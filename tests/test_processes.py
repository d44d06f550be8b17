"""Event-level process constructions: timelines, clock grids, thinning, and
agreement between the renewal and time-change routes."""

import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fracq import (
    ClassProbabilities,
    EventCapError,
    EventTimeline,
    FppParams,
    ParameterError,
    RngStream,
    fpp_pmf_table,
    inverse_subordinator_moments,
    renewal_counts,
    sample_inverse_subordinator_at,
    sample_mittag_leffler,
    sample_positive_stable,
    simulate_fpp_renewal,
    simulate_fpp_timechange,
    simulate_subordinator,
    thin_events,
    timechange_counts,
)
from fracq import limitlab, processes
from fracq.gof import chi_square_counts
from fracq.processes import DEFAULT_RESOLUTION, _covering_levels, _pair_block, _strictly_increasing
from fracq.samplers import _mittag_leffler_steps, _stable_steps


# timeline container


def test_timeline_validation():
    with pytest.raises(ParameterError):
        EventTimeline(horizon=0.0, times=np.array([]))
    with pytest.raises(ParameterError):
        EventTimeline(horizon=1.0, times=np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        EventTimeline(horizon=1.0, times=np.array([0.0, 0.5]))
    with pytest.raises(ParameterError):
        EventTimeline(horizon=1.0, times=np.array([0.5, 1.5]))
    with pytest.raises(ParameterError):
        EventTimeline(horizon=1.0, times=np.array([0.5]), labels=np.array([0]))
    with pytest.raises(ParameterError):
        EventTimeline(horizon=1.0, times=np.array([0.5]), labels=np.array([1, 2]))


def test_timeline_count_at():
    tl = EventTimeline(horizon=10.0, times=np.array([1.0, 2.0, 5.0]))
    assert len(tl) == 3
    assert tl.count_at(0.5) == 0
    assert tl.count_at(2.0) == 2  # boundary events count
    assert tl.count_at(100.0) == 3


def test_timeline_boundary_event_allowed():
    tl = EventTimeline(horizon=1.0, times=np.array([1.0]))
    assert tl.count_at(1.0) == 1


def test_timeline_csv_round_trip(tmp_path):
    tl = EventTimeline(
        horizon=10.0,
        times=np.array([0.1234567890123456789, 2.0, 9.5]),
        labels=np.array([2, 1, 3]),
    )
    path = tmp_path / "timeline.csv"
    tl.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "class"]
    assert len(rows) == 4
    np.testing.assert_array_equal(
        np.array([float(r[0]) for r in rows[1:]]), tl.times
    )
    assert [int(r[1]) for r in rows[1:]] == [2, 1, 3]


def test_timeline_csv_unlabeled(tmp_path):
    tl = EventTimeline(horizon=1.0, times=np.array([0.5]))
    path = tmp_path / "plain.csv"
    tl.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == ""


def test_timeline_and_grid_csv_match_csv_writer(tmp_path):
    def writer_bytes(header, rows):
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return (tmp_path / "oracle.csv").read_bytes()

    times = np.array([1e-300, 0.1, 1.0 / 3.0, 2.0, 7.5e6])
    # more rows than one formatting block
    long_times = np.cumsum(np.random.default_rng(0).exponential(size=10_000))
    long_labels = np.random.default_rng(1).integers(1, 4, size=10_000)
    for times, labels in [(times, None), (times, np.array([1, 3, 2, 2, 10])),
                          (long_times, None), (long_times, long_labels)]:
        EventTimeline(horizon=1e7, times=times, labels=labels).to_csv(str(tmp_path / "tl.csv"))
        rows = [("%.17g" % t, "" if labels is None else int(labels[i])) for i, t in enumerate(times)]
        assert (tmp_path / "tl.csv").read_bytes() == writer_bytes(["time", "class"], rows)


def test_csv_writer_memory_does_not_grow_with_the_file(tmp_path):
    # a writer that formats the whole file at once peaks near 8 MB here
    n = 100_000
    tl = EventTimeline(horizon=float(n), times=np.arange(1, n + 1, dtype=float),
                       labels=np.random.default_rng(2).integers(1, 4, size=n))
    tracemalloc.start()
    try:
        tl.to_csv(str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with open(tmp_path / "big.csv", "rb") as fh:
        assert sum(1 for _ in fh) == n + 1


# class probabilities


def test_class_probabilities_validation():
    with pytest.raises(ParameterError):
        ClassProbabilities(np.array([]))
    with pytest.raises(ParameterError):
        ClassProbabilities(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ParameterError):
        ClassProbabilities(np.array([0.5, 0.4]))
    for bad in ([np.nan, 0.5], [np.nan, 1.0], [np.inf, 0.5], [0.5, -np.inf, 0.5]):
        with pytest.raises(ParameterError):
            ClassProbabilities(np.array(bad))


def test_class_probabilities_cumulative():
    probs = ClassProbabilities(np.array([0.2, 0.3, 0.5]))
    assert probs.n_classes == 3
    assert probs.cumulative[-1] == 1.0
    assert math.isclose(probs.head_sum(1), 0.2)
    assert math.isclose(probs.head_sum(2), 0.5)
    assert probs.head_sum(3) == 1.0
    with pytest.raises(ParameterError):
        probs.head_sum(0)
    with pytest.raises(ParameterError):
        probs.head_sum(4)


# renewal construction


def test_renewal_basic_invariants():
    p = FppParams(0.7, 2.0)
    tl = simulate_fpp_renewal(p, 5.0, RngStream(seed=3))
    assert tl.horizon == 5.0
    assert np.all(np.diff(tl.times) > 0)
    assert tl.times.size == 0 or (tl.times[0] > 0 and tl.times[-1] <= 5.0)


def test_renewal_deterministic():
    p = FppParams(0.6, 1.0)
    a = simulate_fpp_renewal(p, 3.0, RngStream(seed=8))
    b = simulate_fpp_renewal(p, 3.0, RngStream(seed=8))
    np.testing.assert_array_equal(a.times, b.times)


def test_renewal_poisson_reduction():
    # theta = 1 renewal events are a rate-lam Poisson process
    p = FppParams(1.0, 2.0)
    counts = np.array(
        [len(simulate_fpp_renewal(p, 4.0, RngStream(seed=s))) for s in range(2000)]
    )
    pmf = fpp_pmf_table(p, 4.0, cum_tol=1e-12)
    _, pval, _ = chi_square_counts(counts, pmf)
    assert pval > 1e-3


def test_renewal_event_cap():
    with pytest.raises(EventCapError):
        simulate_fpp_renewal(FppParams(1.0, 1000.0), 1000.0, RngStream(seed=0), event_cap=100)
    # a first block of cap + 1 gaps, not of the mean count, 1e18
    with pytest.raises(EventCapError, match="exceeded 1000 events"):
        simulate_fpp_renewal(FppParams(1.0, 1e9), 1e9, RngStream(seed=0), event_cap=1000)


def raw_renewal_sums(p, horizon, seed):
    """The partial sums of one renewal walk up to the horizon, not nudged."""
    sums = np.concatenate(processes._renewal_walks(p, horizon, RngStream(seed=seed), 1)[2])
    return sums[sums <= horizon]


# seeds of 0-59 at which two raw partial sums of FppParams(0.2, 1.0) up to
# 1e6 collide in float64
COLLISION_SEEDS = (13, 27, 42, 54)


def test_renewal_float_collisions_are_nudged():
    # at small theta a long wait can make later gaps fall below one ulp of the
    # partial sum
    p = FppParams(0.2, 1.0)
    for seed in COLLISION_SEEDS:
        assert np.any(np.diff(raw_renewal_sums(p, 1e6, seed)) <= 0)
        tl = simulate_fpp_renewal(p, 1e6, RngStream(seed=seed))
        assert np.all(np.diff(tl.times) > 0)
        assert tl.times[0] > 0 and tl.times[-1] <= 1e6


def nudge_one_by_one(times):
    """Reference tie resolution: each event at least one ulp above the last."""
    out = times.copy()
    for k in range(1, out.size):
        if out[k] <= out[k - 1]:
            out[k] = np.nextafter(out[k - 1], np.inf)
    return out


def test_strictly_increasing_matches_sequential_nudging():
    g = np.random.default_rng(0)
    levels = np.sort(g.uniform(0.5, 4.0, 12))
    parts = [np.zeros(3), np.full(4000, np.nextafter(2.0, 0.0))]  # run crosses 2.0
    for x in levels:
        run = np.full(int(g.integers(1000, 6000)), x)
        run[run.size // 2] = np.nextafter(x, np.inf) + 1e-15  # lands inside the run
        parts.append(run)
    parts.append(np.array([1.0, 0.5]))  # out of order: nudged above its predecessor
    times = np.concatenate(parts)
    before = times.copy()
    got = _strictly_increasing(times)
    np.testing.assert_array_equal(got.view(np.int64), nudge_one_by_one(times).view(np.int64))
    np.testing.assert_array_equal(times, before)
    assert np.all(np.diff(got) > 0)
    assert _strictly_increasing(np.empty(0)).size == 0


# the fixed-range subordinator grid


def test_subordinator_grid_shape():
    values = simulate_subordinator(0.6, 0.1, 5.0, RngStream(seed=4))
    assert values[0] == 0.0
    assert values.size == 51
    assert np.all(np.diff(values) >= 0)
    for step, s_max in [(0.0, 1.0), (0.2, 0.1), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)]:
        with pytest.raises(ParameterError):
            simulate_subordinator(0.6, step, s_max, RngStream(seed=4))


def test_subordinator_increment_law():
    # increments / step^(1/theta) are iid standard positive stable
    theta, step = 0.5, 0.25
    values = simulate_subordinator(theta, step, 2500.0, RngStream(seed=5))
    incs = np.diff(values) / step ** (1.0 / theta)
    for u in (0.5, 2.0):
        target = math.exp(-(u**theta))
        obs = np.exp(-u * incs)
        z = (obs.mean() - target) / (obs.std(ddof=1) / math.sqrt(obs.size))
        assert abs(z) < 4.0


def test_default_inverse_clock_step():
    # the default clock step is 1e-3 of the clock's natural scale horizon^theta
    for seed, (theta, horizon) in enumerate([(0.5, 4.0), (1.0, 10.0), (0.7, 2.5)]):
        p = FppParams(theta, 10.0)
        default = simulate_fpp_timechange(p, horizon, RngStream(seed=seed))
        explicit = simulate_fpp_timechange(p, horizon, RngStream(seed=seed), step=1e-3 * horizon**theta)
        assert len(default) > 0
        assert_bitwise_equal(default.times, explicit.times)


# time-change construction


def test_timechange_basic_invariants():
    p = FppParams(0.6, 1.5)
    tl = simulate_fpp_timechange(p, 4.0, RngStream(seed=9))
    assert np.all(np.diff(tl.times) > 0)
    assert tl.times.size == 0 or (tl.times[0] > 0 and tl.times[-1] <= 4.0)


def test_timechange_deterministic():
    p = FppParams(0.8, 1.0)
    a = simulate_fpp_timechange(p, 2.0, RngStream(seed=10))
    b = simulate_fpp_timechange(p, 2.0, RngStream(seed=10))
    np.testing.assert_array_equal(a.times, b.times)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
def test_invalid_clock_step_is_rejected(step):
    # a negative step once made the level increments complex and the
    # extension loop never ended
    with pytest.raises(ParameterError, match="step must be positive and finite"):
        simulate_fpp_timechange(FppParams(0.7, 1.0), 1.0, RngStream(seed=1), step=step)


def test_constructions_agree_in_law():
    # the central dual-route check: renewal counts vs time-change counts
    p = FppParams(0.6, 1.3)
    n = 20_000
    a = renewal_counts(p, 1.0, n, RngStream(seed=11))
    b = timechange_counts(p, 1.0, n, RngStream(seed=12))
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 1e-3


def test_counts_match_pmf():
    p = FppParams(0.6, 1.3)
    counts = renewal_counts(p, 1.0, 30_000, RngStream(seed=15))
    pmf = fpp_pmf_table(p, 1.0, cum_tol=1e-12)
    _, pval, _ = chi_square_counts(counts, pmf)
    assert pval > 1e-3


def test_timechange_counts_poisson_at_one():
    p = FppParams(1.0, 2.0)
    counts = timechange_counts(p, 1.5, 30_000, RngStream(seed=16))
    pmf = fpp_pmf_table(p, 1.5, cum_tol=1e-12)
    _, pval, _ = chi_square_counts(counts, pmf)
    assert pval > 1e-3


def test_count_helpers_mean():
    # E N(t) = lam^theta t^theta / Gamma(1 + theta)
    p = FppParams(0.7, 1.3)
    mean_y, _ = inverse_subordinator_moments(p.theta, 2.0)
    target = p.lam**p.theta * mean_y
    counts = renewal_counts(p, 2.0, 50_000, RngStream(seed=17)).astype(float)
    z = (counts.mean() - target) / (counts.std(ddof=1) / math.sqrt(counts.size))
    assert abs(z) < 4.0


# thinning


def test_thinning_labels_and_preservation():
    p = FppParams(0.8, 3.0)
    tl = simulate_fpp_renewal(p, 30.0, RngStream(seed=18))
    probs = ClassProbabilities(np.array([0.2, 0.3, 0.5]))
    labeled = thin_events(tl, probs, RngStream(seed=19))
    np.testing.assert_array_equal(labeled.times, tl.times)
    assert labeled.horizon == tl.horizon
    assert labeled.labels.min() >= 1 and labeled.labels.max() <= 3


def test_thinning_frequencies():
    times = np.arange(1, 40_001, dtype=float)
    tl = EventTimeline(horizon=40_001.0, times=times)
    probs = ClassProbabilities(np.array([0.2, 0.3, 0.5]))
    labeled = thin_events(tl, probs, RngStream(seed=20))
    for i, pi in enumerate(probs.p, start=1):
        freq = float(np.mean(labeled.labels == i))
        z = (freq - pi) / math.sqrt(pi * (1 - pi) / len(tl))
        assert abs(z) < 4.0


# the walks' pair transforms and blocks, against the whole stream of pairs


def assert_bitwise_equal(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def eager_stable(theta, rng, n):
    """Kanter's formula over all n draws at once."""
    g = rng.generator()
    if theta == 1.0:
        return np.ones(n)
    u = g.random(n) * np.pi
    e = g.standard_exponential(n)
    ratio = (1.0 - theta) / theta
    return (np.sin(theta * u) / np.sin(u) ** (1.0 / theta)) * (
        np.sin((1.0 - theta) * u) / e
    ) ** ratio


def eager_mittag_leffler(p, rng, n):
    e = rng.generator().standard_exponential(n)
    if p.theta == 1.0:
        return e / p.lam
    return e ** (1.0 / p.theta) * eager_stable(p.theta, rng, n) / p.lam


def stream_pairs(seed, n):
    """The first n pairs of uniforms of RngStream(seed=seed)."""
    return RngStream(seed=seed).generator().random((n, 2))


def pair_transforms(theta, lam):
    """The walks' steps from pairs: Kanter levels and Mittag-Leffler gaps."""
    p = FppParams(theta, lam)
    return lambda x: _stable_steps(theta, x), lambda x: _mittag_leffler_steps(p, x)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.9, 1.0])
def test_kanter_prefix_matches_eager_draws(theta):
    # the product forms behind `fracq sample` keep their draws
    n = 1000
    eager = eager_stable(theta, RngStream(seed=3), n)
    assert_bitwise_equal(sample_positive_stable(theta, RngStream(seed=3), size=n), eager)
    p = FppParams(theta, 2.5)
    assert_bitwise_equal(sample_mittag_leffler(p, RngStream(seed=4), size=n),
                         eager_mittag_leffler(p, RngStream(seed=4), n))
    # the pair transforms on chunks that start off any vector boundary give
    # the numbers of the whole stream
    pairs = stream_pairs(5, n)
    cuts = (0, 1, 13, 203, 461, 999, 1000)
    for transform in pair_transforms(theta, 2.5):
        chunks = [transform(pairs[None, a:b])[0] for a, b in zip(cuts, cuts[1:])]
        assert_bitwise_equal(np.concatenate(chunks), transform(pairs))


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.0])
def test_kanter_block_keys_match_eager_draws(theta):
    # a (rows, cols) block draws its pairs as one (rows, cols, 2) array, and
    # gathered rows and column slices read the transforms of the same pairs
    rows, cols = 40, 25
    gathered = np.array([0, 3, 17, 39])
    pairs = stream_pairs(5, rows * cols).reshape(rows, cols, 2)
    for transform in pair_transforms(theta, 0.7):
        block = _pair_block(transform, RngStream(seed=5), (rows, cols))
        for key in (np.s_[:, :], np.s_[:, 7:19], np.s_[gathered, 3:11], np.s_[gathered[1:], :]):
            assert_bitwise_equal(block(key), transform(pairs)[key])


def block_widths(mean, sd):
    """The one sizing rule: a first block of int(mean + 2 sd) + 1 steps, then
    blocks of half the steps drawn so far, each at least 16."""
    drawn, width = 0, max(16, int(mean + 2.0 * sd) + 1)
    while True:
        yield width
        drawn += width
        width = max(16, drawn // 2)


def count_widths(p, horizon):
    """block_widths for the count N(horizon) of a renewal walk."""
    mean_y, var_y = processes.inverse_subordinator_moments(p.theta, horizon)
    rate = p.lam**p.theta
    return block_widths(rate * mean_y, math.sqrt(rate**2 * var_y + rate * mean_y))


# the stream-order identity: a one-row walk's sums are the cumsum of the
# transforms of the first pairs of its stream, up to its first above the
# level, whatever its blocks and reads


def stream_order_sums(transform, rng, level):
    g, steps = rng.generator(), np.empty(0)
    while True:
        steps = np.concatenate([steps, transform(g.random((max(16, steps.size), 2)))])
        sums = np.cumsum(steps)
        if sums[-1] > level:
            return sums[: np.argmax(sums > level) + 1]


def eager_covering_grid(theta, step, horizon, rng):
    scale = step ** (1.0 / theta)
    return np.concatenate([[0.0], stream_order_sums(lambda x: scale * _stable_steps(theta, x), rng, horizon)])


def eager_renewal_times(p, horizon, rng):
    sums = stream_order_sums(lambda x: _mittag_leffler_steps(p, x), rng, horizon)
    times = _strictly_increasing(sums[sums <= horizon])
    return times[times <= horizon]


def eager_timechange_times(p, horizon, rng, step):
    values = eager_covering_grid(p.theta, step, horizon, rng.substream(0))
    g = rng.substream(1).generator()
    k_top = values.size - 1
    y_top = k_top * step
    y_pos = np.sort(g.random(int(g.poisson(p.lam**p.theta * y_top)))) * y_top
    k_ev = np.clip(np.ceil(y_pos / step).astype(int), 1, k_top)
    times = values[k_ev - 1]
    times = _strictly_increasing(np.where(times <= 0.0, np.nextafter(0.0, 1.0), times))
    return times[times <= horizon]


def no_moments(theta, t):
    return 0.0, 0.0


@pytest.fixture
def short_blocks(monkeypatch):
    """Size every first block as if the clock never moved, so that blocks
    fall short of the horizon and the extension loops run."""
    monkeypatch.setattr(processes, "inverse_subordinator_moments", no_moments)


def check_covering_levels(theta, step, horizon, seed):
    values, n_levels = _covering_levels(theta, step, horizon, RngStream(seed=seed))
    assert_bitwise_equal(values, eager_covering_grid(theta, step, horizon, RngStream(seed=seed)))
    assert values[-2] <= horizon < values[-1]
    # the blocks span every level read
    assert n_levels >= values.size - 1
    return n_levels


def test_covering_levels_match_eager_grid():
    for seed, theta, horizon in [(1, 0.6, 10.0), (2, 0.3, 1e4), (3, 0.9, 0.5), (4, 1.0, 7.0)]:
        check_covering_levels(theta, DEFAULT_RESOLUTION * horizon**theta, horizon, seed)


def test_covering_levels_extension_matches_eager_grid(short_blocks):
    for seed in (5, 6):
        # a first block of 16 levels, then several extensions
        assert check_covering_levels(0.7, 0.01, 3.0, seed) > 16 + 16 + 16


def test_timechange_matches_eager_construction():
    cases = [(0.6, 2.0, 100.0, None), (0.9, 1e5, 0.3, 1.0), (0.4, 1.0, 1e3, 0.05)]
    for seed, (theta, lam, horizon, step) in enumerate(cases):
        p = FppParams(theta, lam)
        tl = simulate_fpp_timechange(p, horizon, RngStream(seed=seed), step=step)
        step = DEFAULT_RESOLUTION * horizon**theta if step is None else step
        assert_bitwise_equal(tl.times, eager_timechange_times(p, horizon, RngStream(seed=seed), step))


def test_timechange_extension_matches_eager_construction(short_blocks):
    p = FppParams(0.7, 3.0)
    tl = simulate_fpp_timechange(p, 3.0, RngStream(seed=8), step=0.01)
    assert_bitwise_equal(tl.times, eager_timechange_times(p, 3.0, RngStream(seed=8), 0.01))


def check_renewal_paths(theta, lam, horizon, seed):
    p = FppParams(theta, lam)
    times = simulate_fpp_renewal(p, horizon, RngStream(seed=seed)).times
    eager = eager_renewal_times(p, horizon, RngStream(seed=seed))
    assert_bitwise_equal(times, eager)
    # the limit-law observables' renewal paths
    assert_bitwise_equal(processes._renewal_times(p, horizon, RngStream(seed=seed)), eager)
    return times.size


def test_renewal_paths_match_eager_blocks():
    for seed, (theta, lam, horizon) in enumerate([(0.9, 1.0, 1e3), (0.3, 2.0, 50.0), (1.0, 3.0, 20.0)]):
        check_renewal_paths(theta, lam, horizon, seed)
    check_renewal_paths(0.2, 1.0, 1e6, COLLISION_SEEDS[0])  # float collisions are nudged


def test_renewal_paths_with_later_blocks_match_eager_blocks(short_blocks):
    for seed, theta in enumerate((0.6, 0.8, 1.0)):
        # blocks from 16 gaps up for a few hundred events
        assert check_renewal_paths(theta, 4.0, 2000.0, seed) > 64


def recorded_reads(steps, reads):
    """steps, appending the column range and row count of each read."""
    def read(key):
        x = steps(key)
        reads.append((key[1].start or 0, key[1].stop, x.shape[0]))
        return x
    return read


def record_walk_reads(monkeypatch):
    """The reads of the walks' blocks, as recorded_reads lists them."""
    reads = []
    monkeypatch.setattr(processes, "_pair_block", lambda *args: recorded_reads(_pair_block(*args), reads))
    return reads


IDENTITY_P = FppParams(0.8, 4.0)
IDENTITY_WALKS = [
    # (sums of one walk on rng, transform of its steps, level)
    (lambda rng: np.concatenate(processes._renewal_walks(IDENTITY_P, 1500.0, rng, 1)[2]),
     lambda x: _mittag_leffler_steps(IDENTITY_P, x), 1500.0),
    (lambda rng: _covering_levels(0.7, 1e-3, 3.0, rng)[0][1:],
     lambda x: 1e-3 ** (1.0 / 0.7) * _stable_steps(0.7, x), 3.0),
]


def stream_order_identity_holds():
    for seed, (walk, transform, level) in itertools.product(range(4), IDENTITY_WALKS):
        got = walk(RngStream(seed=seed))
        expected = stream_order_sums(transform, RngStream(seed=seed), level)
        if got.shape != expected.shape or not np.array_equal(got.view(np.int64), expected.view(np.int64)):
            return False
    return True


def drop_a_draw_after_each_read(transform, rng, shape):
    steps = _pair_block(transform, rng, shape)
    return lambda key: (steps(key), rng.generator().random())[0]


def read_pairs_as_v_u(transform, rng, shape):
    return _pair_block(lambda x: transform(x[..., ::-1]), rng, shape)


CHUNK_RULES = {
    "sized": {},
    "short_blocks": {"inverse_subordinator_moments": no_moments},
    "short_reads": {"inverse_subordinator_moments": no_moments, "_MIN_READ": 7, "_MIN_BLOCK": 3},
}


@pytest.mark.parametrize("rule", list(CHUNK_RULES))
def test_walk_sums_are_cumsums_of_stream_order_pairs(rule, monkeypatch):
    for name, value in CHUNK_RULES[rule].items():
        monkeypatch.setattr(processes, name, value)
    reads = record_walk_reads(monkeypatch)
    assert stream_order_identity_holds()
    # the walks read in several chunks, so the planted defects below show
    assert len(reads) > 3 * 2 * len(IDENTITY_WALKS)
    for defect in (drop_a_draw_after_each_read, read_pairs_as_v_u):
        monkeypatch.setattr(processes, "_pair_block", defect)
        assert not stream_order_identity_holds()


def test_first_passage_on_gathered_rows_matches_eager_sums():
    # rows past the level retire after different reads, and the last read
    # takes the block's last column on the rows left, four of them short
    rows, n, level = 60, 64, 200.0
    start = np.linspace(0.0, level, rows, endpoint=False)
    reads = []
    stable = pair_transforms(0.7, 1.0)[0]
    steps = recorded_reads(_pair_block(stable, RngStream(seed=9), (rows, n)), reads)
    x = stable(stream_pairs(9, rows * n).reshape(rows, n, 2))
    x[:, 0] += start
    full = np.cumsum(x, axis=1)
    count, ends, path = processes._first_passage(steps, (rows, n), start, level, 4)
    np.testing.assert_array_equal(count, (full <= level).sum(axis=1))
    # reads cover the block in order, each a quarter more than read so far
    # and at least 64 steps over its rows
    assert reads[0] == (0, 4, rows) and reads[-1][1] == n
    assert all(a == prev_b and b == min(n, a + max(a // 4, math.ceil(64 / r)))
               for (_, prev_b, _), (a, b, r) in zip(reads, reads[1:]))
    retired_after = {int(np.searchsorted([b for _, b, _ in reads], c + 1)) for c in count[count < n]}
    assert len(retired_after) > 5 and (count < 4).any()
    assert_bitwise_equal(ends, full[count == n, -1])
    assert (count == n).sum() == 4 and path == []


def one_row_passage(level, n=400, k=16, seed=10):
    """_first_passage of a one-row block from start 3.5: its count, its sums
    joined across reads, its reads and the eager sums of the whole block."""
    reads = []
    stable = pair_transforms(0.7, 1.0)[0]
    steps = recorded_reads(_pair_block(stable, RngStream(seed=seed), (1, n)), reads)
    count, ends, path = processes._first_passage(steps, (1, n), np.array([3.5]), level, k)
    x = stable(stream_pairs(seed, n))
    x[0] += 3.5
    return int(count[0]), np.concatenate(path), reads, np.cumsum(x), ends


def test_first_passage_of_one_row_matches_eager_sums_at_read_edges():
    _, _, reads, full, ends = one_row_passage(math.inf)
    # reads of at least 64 steps from the first on
    assert reads[:3] == [(0, 64, 1), (64, 128, 1), (128, 192, 1)]
    assert len(reads) > 4 and ends.size == 1 and ends[0] == full[-1]
    for j in (0, 1, 3):
        last = reads[j][1] - 1
        # first above the level on the last column of read j, then on the
        # first column of read j + 1
        for first_above, n_reads in ((last, j + 1), (last + 1, j + 2)):
            count, sums, got_reads, _, ends = one_row_passage(full[first_above - 1])
            assert count == first_above and ends.size == 0
            assert got_reads == reads[:n_reads]
            assert_bitwise_equal(sums, full[: first_above + 1])


def test_one_row_walk_over_two_blocks_matches_eager_sums(short_blocks, monkeypatch):
    # blocks of at least 1024 gaps, the first read from 64 columns on: 1686 events
    monkeypatch.setattr(processes, "_MIN_BLOCK", 1024)
    p, horizon = FppParams(0.8, 4.0), 1500.0
    reads = record_walk_reads(monkeypatch)
    count, drawn, path = processes._renewal_walks(p, horizon, RngStream(seed=5), 1)
    assert count[0] == 1686 and drawn == 2048 and len(reads) > 15
    # the second block is read from a quarter of the 1024 steps drawn
    assert reads[0] == (0, 64, 1) and (0, 256, 1) in reads[1:]
    full = np.cumsum(_mittag_leffler_steps(p, stream_pairs(5, 1687)))
    assert_bitwise_equal(np.concatenate(path), full)


def eager_renewal_counts(p, t, n, rng):
    """renewal_counts from blocks of pairs drawn in full (one chunk of rows:
    n times the first block below 1M): an (n, block, 2) array, then the next
    block of count_widths for each row still short, each row's last sum
    folded into its first gap."""
    g = rng.generator()
    gaps = lambda rows, block: _mittag_leffler_steps(p, g.random((rows, block, 2)))
    widths = count_widths(p, t)
    sums = np.cumsum(gaps(n, next(widths)), axis=1)
    counts = (sums <= t).sum(axis=1)
    short = np.flatnonzero(sums[:, -1] <= t)
    tails = sums[short, -1]
    while short.size:
        x = gaps(short.size, next(widths))
        x[:, 0] += tails
        more = np.cumsum(x, axis=1)
        counts[short] += (more <= t).sum(axis=1)
        still = more[:, -1] <= t
        short, tails = short[still], more[still, -1]
    return counts


COUNT_CASES = [(0.7, 1.2, 1.0, 400), (0.3, 2.0, 5.0, 300), (0.95, 1.5, 20.0, 200), (1.0, 2.0, 1.5, 100)]


def test_count_helpers_match_eager_blocks():
    for seed, (theta, lam, t, n) in enumerate(COUNT_CASES):
        p = FppParams(theta, lam)
        assert_bitwise_equal(
            renewal_counts(p, t, n, RngStream(seed=seed)),
            eager_renewal_counts(p, t, n, RngStream(seed=seed)),
        )


def test_count_helpers_with_tail_blocks_match_eager_blocks(short_blocks):
    # first blocks of 16 gaps: most rows need tail blocks, some several, and
    # the first prefixes of 2 gaps double
    ren = {}
    for seed, (theta, lam, t, n) in enumerate(COUNT_CASES):
        p = FppParams(theta, lam)
        ren[theta] = renewal_counts(p, t, n, RngStream(seed=seed))
        assert_bitwise_equal(ren[theta], eager_renewal_counts(p, t, n, RngStream(seed=seed)))
    assert (ren[0.95] > 16).sum() > 100 and (ren[0.95] > 32).sum() > 10


def test_one_row_walk_reads_about_a_quarter_past_its_count(monkeypatch):
    # the queue-scaling arrivals point: a first read of the mean count plus
    # one, 32880 gaps, of a first block of mean + 2 sd, 54038
    p, horizon = FppParams(0.9, 1.0), 1e5
    assert next(count_widths(p, horizon)) == 54_038
    reads = record_walk_reads(monkeypatch)
    for seed in range(4):
        reads.clear()
        rng = RngStream(seed=seed)
        count, drawn, _ = processes._renewal_walks(p, horizon, rng, 1)
        transformed = sum(b - a for a, b, _ in reads)
        assert drawn == 54_038 and reads[0] == (0, 32_880, 1)
        assert transformed <= max(32_880, 1.25 * (count[0] + 1))
        # the walk drew the pairs it transformed and no more
        assert_bitwise_equal(rng.generator().random(2), stream_pairs(seed, transformed + 1)[-1])


# the sizing rule by its ratio of variates drawn to variates kept, summed
# over seeds 0-99


def test_arrivals_walk_draws_under_1_8_gaps_per_gap_kept(monkeypatch):
    # the blocks span under 1.8 gaps per gap kept, and the walk draws the
    # pairs it reads, under 1.3 per gap kept
    reads = record_walk_reads(monkeypatch)
    p, spanned, kept = FppParams(0.9, 1.0), 0, 0
    for seed in range(100):
        count, n, _ = processes._renewal_walks(p, 1e5, RngStream(seed=seed), 1)
        spanned, kept = spanned + n, kept + int(count[0])
    assert spanned / kept < 1.8
    assert sum(b - a for a, b, _ in reads) / kept < 1.3


def test_covering_grid_draws_under_2_6_levels_per_level_kept(monkeypatch):
    # the blocks span under 2.6 levels per level kept, and the walk draws
    # the pairs it reads, under 1.5 per level kept
    reads = record_walk_reads(monkeypatch)
    spanned = kept = 0
    for seed in range(100):
        values, n_levels = _covering_levels(0.6, 1e-3, 1.0, RngStream(seed=seed))
        spanned, kept = spanned + n_levels, kept + values.size - 1
    assert spanned / kept < 2.6
    assert sum(b - a for a, b, _ in reads) / kept < 1.5


def test_extension_blocks_grow_geometrically(short_blocks, monkeypatch):
    # from a first block of 16, each block adds half the steps drawn, so a
    # walk needing N steps takes at most 2 + log_1.5(N / 16) blocks; blocks
    # of one fixed width would take N / 16
    blocks = []
    monkeypatch.setattr(processes, "_pair_block",
                        lambda *args: blocks.append(args[-1]) or _pair_block(*args))
    walks = [lambda: processes._renewal_walks(FppParams(0.8, 4.0), 1500.0, RngStream(seed=5), 1)[0][0] + 1,
             lambda: _covering_levels(0.7, 1e-3, 3.0, RngStream(seed=6))[0].size - 1]
    for walk in walks:
        blocks.clear()
        needed = walk()
        assert needed > 1000 and blocks[0] == (1, 16)
        assert len(blocks) <= 2 + math.log(needed / 16, 1.5)


# exact law of the covering grid: a driftless stable subordinator passes
# every level by a jump, so L(s) > t exactly when s >= Y(t), and the first
# level above t is ceil(Y(t) / step) at any step, with Y(t) = (t / S)^theta


def chi_square_two_samples(a, b, cells=50):
    """p-value of a chi-square test that two integer samples share one law,
    on cells cut at quantiles of the pooled sample."""
    edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0, 1, cells + 1)[1:-1],
                                  method="inverted_cdf"))
    table = np.array([np.bincount(np.searchsorted(edges, x), minlength=edges.size + 1)
                      for x in (a, b)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


EXACT_LAW_CASES = [(0.7, 1.0, 0.05, 31), (0.5, 3.0, 0.2, 32)]


@pytest.mark.parametrize("theta, t, step, seed", EXACT_LAW_CASES)
def test_covering_grid_first_level_above_t_has_exact_law(theta, t, step, seed):
    n = 10_000
    rng = RngStream(seed=seed)
    k_top = np.array([_covering_levels(theta, step, t, rng.substream(r))[0].size - 1
                      for r in range(n)])
    y = sample_inverse_subordinator_at(theta, t, RngStream(seed=seed + 100), size=n)
    assert chi_square_two_samples(k_top, np.ceil(y / step).astype(int)) > 1e-3


# the time-change path reads Y(horizon) as ceil(Y / step) levels, so its
# count at the horizon is Poisson with mean lam^theta step ceil(Y / step)
PATH_LAW_CASES = [(0.5, 3.0, 0.2, 32), (0.9, 1.0, 0.1, 33)]


@pytest.mark.parametrize("theta, t, step, seed", PATH_LAW_CASES)
def test_timechange_path_count_has_exact_law(theta, t, step, seed):
    p, n = FppParams(theta, 1.5), 10_000
    rng = RngStream(seed=seed)
    counts = np.array([len(simulate_fpp_timechange(p, t, rng.substream(r), step=step))
                       for r in range(n)])
    ref = RngStream(seed=seed + 100)
    k_top = np.ceil(sample_inverse_subordinator_at(theta, t, ref.substream(0), size=n) / step)
    exact = ref.substream(1).generator().poisson(p.lam**p.theta * step * k_top)
    assert chi_square_two_samples(counts, exact) > 1e-3


# each clock of the two-clock grid reads, at t, the last level it passed by
# t: k[-1] = floor(Y(t) / step)


@pytest.mark.parametrize("theta_a, theta_b, t, resolution, seed",
                         [(0.6, 0.9, 2.0, 0.05, 41), (0.5, 0.5, 1.0, 0.1, 42)])
def test_two_clocks_read_exact_clock_law_at_t(theta_a, theta_b, t, resolution, seed):
    n = 10_000
    rng = RngStream(seed=seed)
    clocks = [limitlab._two_clocks(theta_a, theta_b, t, resolution, rng.substream(r))
              for r in range(n)]
    ref = RngStream(seed=seed + 100)
    for j, theta in enumerate((theta_a, theta_b)):
        k_end = np.array([pair[j][1][-1] for pair in clocks])
        y = sample_inverse_subordinator_at(theta, t, ref.substream(j), size=n)
        exact = np.floor(y / (resolution * t**theta)).astype(int)
        assert chi_square_two_samples(k_end, exact) > 1e-3
