"""Random variate generators: law checks against closed-form transforms and
independence/reproducibility of the stream plumbing."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc
from scipy.special import gamma as Gamma

from fracq import (
    FppParams,
    ParameterError,
    RngStream,
    inverse_subordinator_moments,
    ml_cdf,
    mittag_leffler,
    MlIndex,
    sample_inverse_subordinator_at,
    sample_mittag_leffler,
    sample_positive_stable,
)
from fracq import samplers
from fracq.processes import _level_walks
from fracq.samplers import _inverse_clock_at, _kanter, _mittag_leffler_steps, _stable_steps

N_LAW = 200_000
Z_MAX = 4.0


def z_score(sample: np.ndarray, target_mean: float) -> float:
    return (sample.mean() - target_mean) / (sample.std(ddof=1) / math.sqrt(len(sample)))


def trigonometric_form(p: FppParams, rng: RngStream, size: int) -> np.ndarray:
    """The renewal walks' Mittag-Leffler gaps on `size` pairs of uniforms."""
    return _mittag_leffler_steps(p, rng.generator().random((size, 2)))


# stream plumbing


def test_same_seed_reproduces():
    a = sample_positive_stable(0.6, RngStream(seed=42), size=1000)
    b = sample_positive_stable(0.6, RngStream(seed=42), size=1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = sample_positive_stable(0.6, RngStream(seed=1), size=100)
    b = sample_positive_stable(0.6, RngStream(seed=2), size=100)
    assert not np.array_equal(a, b)


def test_stream_keys_are_seed_and_zero_led_path():
    # every fixed-seed artifact rests on this key layout
    seq = np.random.SeedSequence(7, spawn_key=(0, 3, 1))
    np.testing.assert_array_equal(
        RngStream(seed=7).substream(3).substream(1).generator().random(50),
        np.random.Generator(np.random.Philox(seq)).random(50),
    )


def test_generator_continues_one_stream():
    rng = RngStream(seed=5)
    first = rng.generator().random(10)
    second = rng.generator().random(10)
    combined = RngStream(seed=5).generator().random(20)
    np.testing.assert_array_equal(np.concatenate([first, second]), combined)


def test_substream_independent_of_parent_consumption():
    parent = RngStream(seed=9)
    parent.generator().random(1234)  # consume some of the parent stream
    a = parent.substream(3).generator().random(20)
    b = RngStream(seed=9).substream(3).generator().random(20)
    np.testing.assert_array_equal(a, b)


def test_substream_paths_distinct():
    root = RngStream(seed=11)
    draws = {
        "s0": root.substream(0).generator().random(8),
        "s1": root.substream(1).generator().random(8),
        "s0s0": root.substream(0).substream(0).generator().random(8),
        "s0s1": root.substream(0).substream(1).generator().random(8),
    }
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.array_equal(draws[keys[i]], draws[keys[j]])


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3", None])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
        RngStream(seed=seed)


def test_numpy_and_large_integer_seeds_are_accepted():
    a = RngStream(seed=np.int64(3)).generator().random(4)
    np.testing.assert_array_equal(a, RngStream(seed=3).generator().random(4))
    assert RngStream(seed=0).generator().random() != RngStream(seed=2**70).generator().random()


def test_shape_convention_and_domain_checks():
    rng = RngStream(seed=0)
    assert sample_mittag_leffler(FppParams(0.5, 1.0), rng, size=7).shape == (7,)
    with pytest.raises(ParameterError):
        sample_positive_stable(1.5, rng, size=1)
    with pytest.raises(ParameterError):
        sample_inverse_subordinator_at(0.5, -1.0, rng, size=1)


# positive stable: Laplace transform E exp(-u S) = exp(-u^theta)


@pytest.mark.parametrize("theta", [0.4, 0.7])
def test_stable_laplace_transform(theta):
    s = sample_positive_stable(theta, RngStream(seed=101), size=N_LAW)
    assert np.all(s > 0.0)
    for u in (0.5, 1.0, 2.0):
        z = z_score(np.exp(-u * s), math.exp(-(u**theta)))
        assert abs(z) < Z_MAX


def test_stable_degenerate_at_one():
    s = sample_positive_stable(1.0, RngStream(seed=0), size=100)
    assert np.all(s == 1.0)


# Mittag-Leffler waiting times


@pytest.mark.parametrize("theta", [0.5, 0.8])
def test_ml_sampler_matches_cdf(theta):
    p = FppParams(theta, 1.3)
    x = sample_mittag_leffler(p, RngStream(seed=21), size=20_000)
    res = stats.kstest(x, lambda v: ml_cdf(p, v))
    assert res.pvalue > 1e-3


@pytest.mark.parametrize("theta", [0.5, 0.8])
def test_ml_two_constructions_agree(theta):
    p = FppParams(theta, 2.0)
    a = sample_mittag_leffler(p, RngStream(seed=31), size=20_000)
    b = trigonometric_form(p, RngStream(seed=32), size=20_000)
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 1e-3


def test_ml_trig_matches_cdf():
    p = FppParams(0.65, 1.0)
    x = trigonometric_form(p, RngStream(seed=41), size=20_000)
    res = stats.kstest(x, lambda v: ml_cdf(p, v))
    assert res.pvalue > 1e-3


@pytest.mark.parametrize("form", [sample_mittag_leffler, trigonometric_form])
def test_ml_exponential_reduction(form):
    p = FppParams(1.0, 2.5)
    x = form(p, RngStream(seed=51), size=20_000)
    res = stats.kstest(x, stats.expon(scale=1.0 / 2.5).cdf)
    assert res.pvalue > 1e-3


# the walks' steps from pairs of uniforms


def inverted_sine_ratio(p, pairs):
    """A planted defect: the trigonometric gap with its sine ratio upside down."""
    u, v = pairs[..., 0], pairs[..., 1]
    tp = p.theta * np.pi
    return -np.log(1.0 - u) * (np.sin(tp * v) / np.sin(tp * (1.0 - v))) ** (1.0 / p.theta) / p.lam


def walk_gaps_pass(gaps, theta, seed):
    """gaps(p, pairs) against two other Mittag-Leffler forms: in law against
    the product form (KS), and draw by draw against the trigonometric
    inversion's bracket sin(theta pi)/tan(theta pi V) - cos(theta pi), fed
    the same uniforms, U read as 1 - U."""
    p, n = FppParams(theta, 1.7), 20_000
    g = RngStream(seed=seed).generator()
    u, v = g.random(n), g.random(n)
    x = gaps(p, np.stack([1.0 - u, v], axis=-1))
    in_law = stats.ks_2samp(x, sample_mittag_leffler(p, RngStream(seed=seed + 1), size=n)).pvalue > 1e-3
    tp = theta * np.pi
    trig = -np.log(u) * (np.sin(tp) / np.tan(tp * v) - np.cos(tp)) ** (1.0 / theta) / p.lam
    return in_law and np.allclose(x, trig, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("theta, seed", [(0.3, 111), (0.65, 113), (0.9, 115)])
def test_walk_gaps_match_the_other_mittag_leffler_forms(theta, seed):
    assert walk_gaps_pass(_mittag_leffler_steps, theta, seed)
    # the inverted ratio has the same law (V and 1 - V are alike), so only
    # the draw-by-draw check catches it
    assert not walk_gaps_pass(inverted_sine_ratio, theta, seed)
    pairs = RngStream(seed=seed + 2).generator().random((20_000, 2))
    s = sample_positive_stable(theta, RngStream(seed=seed + 3), size=20_000)
    assert stats.ks_2samp(_stable_steps(theta, pairs), s).pvalue > 1e-3


def test_walk_gaps_at_theta_one_are_exponential():
    pairs = RngStream(seed=117).generator().random((1000, 2))
    got = _mittag_leffler_steps(FppParams(1.0, 2.5), pairs)
    expected = -np.log(1.0 - pairs[:, 0]) / 2.5
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.all(_stable_steps(1.0, pairs) == 1.0)


def test_ml_rate_scaling():
    # lam enters only as a 1/lam time scale
    a = sample_mittag_leffler(FppParams(0.6, 1.0), RngStream(seed=61), size=1000)
    b = sample_mittag_leffler(FppParams(0.6, 4.0), RngStream(seed=61), size=1000)
    np.testing.assert_allclose(a / 4.0, b, rtol=1e-12)


# inverse clock at a fixed time


def test_inverse_clock_laplace_transform():
    # E exp(-u Y(t)) = E_theta(-u t^theta), the strongest single-time check
    theta, t = 0.6, 2.0
    y = sample_inverse_subordinator_at(theta, t, RngStream(seed=71), size=N_LAW)
    assert np.all(y > 0.0)
    for u in (0.5, 1.0, 3.0):
        target = mittag_leffler(MlIndex(theta), -u * t**theta)
        assert abs(z_score(np.exp(-u * y), target)) < Z_MAX


def test_inverse_clock_moments():
    theta, t = 0.7, 3.0
    y = sample_inverse_subordinator_at(theta, t, RngStream(seed=81), size=N_LAW)
    mean, var = inverse_subordinator_moments(theta, t)
    assert abs(z_score(y, mean)) < Z_MAX
    second = var + mean**2
    assert abs(z_score(y**2, second)) < Z_MAX


def test_inverse_clock_self_similarity():
    # Y(t) =d t^theta Y(1), checked with the same seed on both sides
    theta, t = 0.5, 4.0
    a = sample_inverse_subordinator_at(theta, t, RngStream(seed=91), size=1000)
    b = sample_inverse_subordinator_at(theta, 1.0, RngStream(seed=91), size=1000)
    np.testing.assert_allclose(a, t**theta * b, rtol=1e-12)


def test_inverse_clock_degenerate_at_one():
    y = sample_inverse_subordinator_at(1.0, 2.5, RngStream(seed=0), size=50)
    assert np.all(y == 2.5)
    assert np.all(sample_inverse_subordinator_at(1.0, 0.0, RngStream(seed=0), size=3) == 0.0)


def test_inverse_clock_mean_formula():
    # E Y(t) = t^theta / Gamma(1 + theta)
    theta, t = 0.4, 1.0
    y = sample_inverse_subordinator_at(theta, t, RngStream(seed=95), size=N_LAW)
    assert abs(z_score(y, 1.0 / Gamma(1.4))) < Z_MAX


# the inverse clock at many times at once, drawn exactly passage by passage

CLOCK_TIMES = (0.5, 1.0, 2.0)
CLOCK_STEP = 0.5  # level spacing of the covering grid the joint law is checked on


def swapped_beta(theta, times, rng):
    """A planted defect: the undershoot drawn as d Beta(1 - theta, theta)."""

    class Swapped:
        def __init__(self, g):
            self.g = g

        def __getattr__(self, name):
            return getattr(self.g, name)

        def beta(self, a, b, size):
            return self.g.beta(b, a, size)

    class Stream:
        def generator(self):
            return Swapped(rng.generator())

    return _inverse_clock_at(theta, times, Stream())


def untilted(monkeypatch):
    """A planted defect: the clock's growth divides by a plain stable S."""
    monkeypatch.setattr(samplers, "_tilted_stable",
                        lambda theta, g, n: _kanter(theta, 1.0 - g.random(n), g.standard_exponential(n)))
    return _inverse_clock_at


def fresh_at_each_time(theta, times, rng):
    """A planted defect: no carry-over of L's value, so each time's clock
    restarts afresh at the last time read."""
    steps = np.diff(times, axis=1, prepend=0.0)
    return np.cumsum(_inverse_clock_at(theta, steps.reshape(-1, 1), rng).reshape(times.shape), axis=1)


def grid_level_counts(theta, n, rng):
    """ceil(Y(t) / step) at CLOCK_TIMES from the covering grid: one more than
    the count of levels k step with L(k step) <= t."""
    count, levels = _level_walks(theta, CLOCK_STEP, max(CLOCK_TIMES), rng, n)
    rows = np.split(levels, np.cumsum(count + 1)[:-1])
    return np.array([np.searchsorted(row, CLOCK_TIMES, side="right") + 1 for row in rows])


def joint_chi2_p(a, b):
    """Two-sample chi-square p-value of integer rows a and b over their joint
    cells, those with fewer than 10 rows in all pooled into one."""
    cells, idx = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    table = np.stack([np.bincount(idx[: len(a)], minlength=len(cells)),
                      np.bincount(idx[len(a):], minlength=len(cells))])
    small = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~small], table[:, small].sum(axis=1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


def clock_law_holds(sampler, theta, seed, n=20_000):
    """sampler(theta, times, rng) against three exact laws: Y(t) at one time
    against (t / S)^theta; the chance I_{a/b}(theta, 1 - theta) that Y does
    not move over (a, b]; and the joint law of the level counts ceil(Y(t_j) /
    step) at CLOCK_TIMES against the covering grid's."""
    one = sampler(theta, np.full((n, 1), 1.5), RngStream(seed=seed))[:, 0]
    ref = sample_inverse_subordinator_at(theta, 1.5, RngStream(seed=seed + 1), n)
    ok = stats.ks_2samp(one, ref).pvalue > 1e-3
    y = sampler(theta, np.tile(CLOCK_TIMES, (n, 1)), RngStream(seed=seed + 2))
    for a, b in ((0, 1), (1, 2)):
        e = betainc(theta, 1.0 - theta, CLOCK_TIMES[a] / CLOCK_TIMES[b])
        z = ((y[:, a] == y[:, b]).mean() - e) / math.sqrt(e * (1.0 - e) / n)
        ok = ok and abs(z) < Z_MAX
    grid = grid_level_counts(theta, n, RngStream(seed=seed + 3))
    return ok and joint_chi2_p(np.ceil(y / CLOCK_STEP).astype(int), grid) > 1e-3


@pytest.mark.parametrize("theta, seed", [(0.3, 201), (0.6, 205), (0.9, 209)])
def test_inverse_clock_at_many_times_has_the_exact_laws(theta, seed):
    assert clock_law_holds(_inverse_clock_at, theta, seed)


@pytest.mark.parametrize("defect", ["swapped_beta", "untilted", "fresh_at_each_time"])
def test_inverse_clock_checks_catch_planted_defects(monkeypatch, defect):
    sampler = untilted(monkeypatch) if defect == "untilted" else globals()[defect]
    assert not clock_law_holds(sampler, 0.6, 205)


def test_inverse_clock_at_theta_one_returns_the_times():
    times = np.array([[0.0, 0.5, 0.5, 2.0], [1.0, 3.0, 4.0, 4.0]])
    np.testing.assert_array_equal(_inverse_clock_at(1.0, times, RngStream(seed=0)), times)


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.99])
def test_inverse_clock_at_stays_finite_and_nondecreasing(theta):
    # zero, repeated and far-apart times; a RuntimeWarning is an error here
    times = np.tile([0.0, 1e-12, 1e-12, 1.0, 1.0, 1e6], (5000, 1))
    y = _inverse_clock_at(theta, times, RngStream(seed=3))
    assert np.all(np.isfinite(y)) and np.all(y[:, 0] == 0.0)
    assert np.all(np.diff(y, axis=1) >= 0.0) and np.all(y[:, 1:3] == y[:, [1]])
