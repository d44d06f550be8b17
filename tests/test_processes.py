"""Event-level process constructions: timelines, clock grids, thinning, and
agreement between the renewal and time-change routes."""

import csv
import itertools
import math
import tracemalloc
from types import SimpleNamespace

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
    fpp_pmf,
    fpp_pmf_table,
    inverse_subordinator_moments,
    ml_cdf,
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
from fracq.processes import DEFAULT_RESOLUTION, _strictly_increasing
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


P07, NAN = FppParams(0.7, 1.0), float("nan")
NON_FINITE_INPUTS = {
    "renewal_nan_horizon": lambda: simulate_fpp_renewal(P07, NAN, RngStream(seed=0)),
    "renewal_inf_horizon": lambda: simulate_fpp_renewal(P07, math.inf, RngStream(seed=0)),
    "renewal_counts_nan_t": lambda: renewal_counts(P07, NAN, 10, RngStream(seed=0)),
    "inf_lam": lambda: FppParams(0.7, math.inf),
    "timeline_nan_horizon": lambda: EventTimeline(horizon=NAN, times=np.array([])),
    "inverse_clock_nan_t": lambda: sample_inverse_subordinator_at(0.7, NAN, RngStream(seed=0), 1),
    "inverse_clock_inf_t": lambda: sample_inverse_subordinator_at(0.7, math.inf, RngStream(seed=0), 1),
    "pmf_nan_t": lambda: fpp_pmf(P07, NAN, 2),
    "ml_cdf_nan_x": lambda: ml_cdf(P07, NAN),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_input_is_a_parameter_error(case):
    with pytest.raises(ParameterError):
        NON_FINITE_INPUTS[case]()


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
    sums = processes._renewal_walks(p, horizon, RngStream(seed=seed), 1, keep=True)[1]
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


# the walks' pair transforms, against the whole stream of pairs


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


# the read loop: a walk draws exactly the pairs its reads take


def recorded_transform(transform, reads):
    """transform, appending the (rows, columns) of the pairs of each read."""
    def read(pairs):
        reads.append(pairs.shape[:2])
        return transform(pairs)
    return read


def record_walk_reads(monkeypatch):
    """The (rows, columns) of each read of the walks' pair transforms."""
    reads = []
    for name in ("_mittag_leffler_steps", "_stable_steps"):
        def recorded(param, pairs, steps=getattr(processes, name)):
            reads.append(pairs.shape[:2])
            return steps(param, pairs)
        monkeypatch.setattr(processes, name, recorded)
    return reads


def pairs_drawn(reads):
    return sum(rows * columns for rows, columns in reads)


# the stream-order identity: a one-row walk's sums are the cumsum of the
# transforms of the first pairs of its stream, up to its first above the
# level, whatever its reads


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
def short_first_reads(monkeypatch):
    """Size every first read as if the clock never moved, so that first reads
    fall short of the horizon and later reads run."""
    monkeypatch.setattr(processes, "inverse_subordinator_moments", no_moments)


def covering_levels(theta, step, horizon, rng):
    """L on the levels k step, from L(0) = 0 up to its first value above the
    horizon: one level walk, the clock simulate_fpp_timechange draws."""
    return np.append(0.0, processes._level_walks(theta, step, horizon, rng, 1)[1])


def check_covering_levels(theta, step, horizon, seed):
    values = covering_levels(theta, step, horizon, RngStream(seed=seed))
    assert_bitwise_equal(values, eager_covering_grid(theta, step, horizon, RngStream(seed=seed)))
    assert values[-2] <= horizon < values[-1]


def test_covering_levels_match_eager_grid():
    for seed, theta, horizon in [(1, 0.6, 10.0), (2, 0.3, 1e4), (3, 0.9, 0.5), (4, 1.0, 7.0)]:
        check_covering_levels(theta, DEFAULT_RESOLUTION * horizon**theta, horizon, seed)


def test_covering_levels_extension_matches_eager_grid(short_first_reads, monkeypatch):
    reads = record_walk_reads(monkeypatch)
    for seed in (5, 6):
        check_covering_levels(0.7, 0.002, 3.0, seed)
    # first reads of 64 levels, then several more
    assert reads[0] == (1, 64) and len(reads) > 6


def test_timechange_matches_eager_construction():
    cases = [(0.6, 2.0, 100.0, None), (0.9, 1e5, 0.3, 1.0), (0.4, 1.0, 1e3, 0.05)]
    for seed, (theta, lam, horizon, step) in enumerate(cases):
        p = FppParams(theta, lam)
        tl = simulate_fpp_timechange(p, horizon, RngStream(seed=seed), step=step)
        step = DEFAULT_RESOLUTION * horizon**theta if step is None else step
        assert_bitwise_equal(tl.times, eager_timechange_times(p, horizon, RngStream(seed=seed), step))


def test_timechange_extension_matches_eager_construction(short_first_reads):
    p = FppParams(0.7, 3.0)
    tl = simulate_fpp_timechange(p, 3.0, RngStream(seed=8), step=0.01)
    assert_bitwise_equal(tl.times, eager_timechange_times(p, 3.0, RngStream(seed=8), 0.01))


def check_renewal_paths(theta, lam, horizon, seed):
    p = FppParams(theta, lam)
    times = simulate_fpp_renewal(p, horizon, RngStream(seed=seed)).times
    eager = eager_renewal_times(p, horizon, RngStream(seed=seed))
    assert_bitwise_equal(times, eager)
    # the limit-law observables' renewal paths, as a chunk of one row
    count, rows = processes._renewal_rows(p, horizon, RngStream(seed=seed), 1)
    assert count.tolist() == [eager.size]
    assert_bitwise_equal(rows, eager)
    return times.size


def test_renewal_paths_match_eager_blocks():
    for seed, (theta, lam, horizon) in enumerate([(0.9, 1.0, 1e3), (0.3, 2.0, 50.0), (1.0, 3.0, 20.0)]):
        check_renewal_paths(theta, lam, horizon, seed)
    check_renewal_paths(0.2, 1.0, 1e6, COLLISION_SEEDS[0])  # float collisions are nudged


def test_renewal_paths_with_later_blocks_match_eager_blocks(short_first_reads):
    for seed, theta in enumerate((0.6, 0.8, 1.0)):
        # reads from 64 gaps up for a few hundred events
        assert check_renewal_paths(theta, 4.0, 2000.0, seed) > 64


IDENTITY_P = FppParams(0.8, 4.0)
IDENTITY_WALKS = [
    # (sums of one walk on rng, transform of its steps, level)
    (lambda rng: processes._renewal_walks(IDENTITY_P, 1500.0, rng, 1, keep=True)[1],
     lambda x: _mittag_leffler_steps(IDENTITY_P, x), 1500.0),
    (lambda rng: covering_levels(0.7, 1e-3, 3.0, rng)[1:],
     lambda x: 1e-3 ** (1.0 / 0.7) * _stable_steps(0.7, x), 3.0),
]


def stream_order_identity_holds(stream=RngStream):
    """Whether each identity walk, on stream(seed=seed), gives the cumsum of
    the first pairs of RngStream(seed=seed)."""
    for seed, (walk, transform, level) in itertools.product(range(4), IDENTITY_WALKS):
        got = walk(stream(seed=seed))
        expected = stream_order_sums(transform, RngStream(seed=seed), level)
        if got.shape != expected.shape or not np.array_equal(got.view(np.int64), expected.view(np.int64)):
            return False
    return True


class DropADrawAfterEachRead(RngStream):
    """A planted defect: a stream whose generator loses a uniform after each
    read."""

    def generator(self):
        g = super().generator()
        return SimpleNamespace(random=lambda shape: (g.random(shape), g.random())[0])


def read_pairs_as_v_u(monkeypatch):
    """A planted defect: every walk transforms its pairs (U, V) as (V, U)."""
    for name in ("_mittag_leffler_steps", "_stable_steps"):
        steps = getattr(processes, name)
        monkeypatch.setattr(processes, name,
                            lambda param, pairs, steps=steps: steps(param, pairs[..., ::-1]))


CHUNK_RULES = {
    "sized": {},
    "short_blocks": {"inverse_subordinator_moments": no_moments},
    "short_reads": {"inverse_subordinator_moments": no_moments, "_MIN_READ": 7},
}


@pytest.mark.parametrize("rule", list(CHUNK_RULES))
def test_walk_sums_are_cumsums_of_stream_order_pairs(rule, monkeypatch):
    for name, value in CHUNK_RULES[rule].items():
        monkeypatch.setattr(processes, name, value)
    reads = record_walk_reads(monkeypatch)
    assert stream_order_identity_holds()
    # the walks read in several chunks, so the planted defects below show
    assert len(reads) > 3 * 2 * len(IDENTITY_WALKS)
    assert not stream_order_identity_holds(DropADrawAfterEachRead)
    read_pairs_as_v_u(monkeypatch)
    assert not stream_order_identity_holds()


# many walks at once: each read draws g.random((live, columns, 2)) for the
# rows still at or below the level, rows in chunks of at most
# processes._ROW_CHUNK first-read steps


def eager_walk_sums(transform, rng, rows, level, first, chunk):
    """The sums of `rows` walks by the read rule, each row's steps gathered
    across reads and summed whole, every step it drew: in chunks of `chunk`
    rows, a read of max(first, ceil(64 / rows)) columns, then of
    max(done // 4, ceil(64 / live)) on the live rows, the rows whose last sum
    is still at or below the level."""
    g, sums = rng.generator(), []
    for lo in range(0, rows, chunk):
        steps = [np.empty(0) for _ in range(min(chunk, rows - lo))]
        live, k = list(range(len(steps))), max(first, math.ceil(64 / len(steps)))
        while live:
            for r, row in zip(live, transform(g.random((len(live), k, 2)))):
                steps[r] = np.concatenate([steps[r], row])
            live = [r for r in live if np.cumsum(steps[r])[-1] <= level]
            if live:
                k = max(steps[live[0]].size // 4, math.ceil(64 / len(live)))
        sums += [np.cumsum(x) for x in steps]
    return sums


def eager_walk_counts(transform, rng, rows, level, first, chunk):
    """The counts of sums at or below the level of eager_walk_sums' rows."""
    return np.array([int((x <= level).sum())
                     for x in eager_walk_sums(transform, rng, rows, level, first, chunk)])


def eager_renewal_counts(p, t, n, rng):
    """renewal_counts by eager_walk_counts: a first read of the mean count
    plus one, rows in chunks of at most _ROW_CHUNK first-read steps."""
    first = int(p.lam**p.theta * processes.inverse_subordinator_moments(p.theta, t)[0]) + 1
    chunk = max(1, min(n, processes._ROW_CHUNK // first))
    return eager_walk_counts(lambda x: _mittag_leffler_steps(p, x), rng, n, t, first, chunk)


def test_passage_on_gathered_rows_matches_eager_sums():
    # rows past the level retire after different reads, and each read draws
    # the pairs of the rows left
    rows, level, reads = 60, 200.0, []
    stable = pair_transforms(0.7, 1.0)[0]
    count, path = processes._passage(recorded_transform(stable, reads), RngStream(seed=9),
                                     rows, level, 4.5)
    assert_bitwise_equal(count, eager_walk_counts(stable, RngStream(seed=9), rows, level, 5, rows))
    # a first read of the mean count plus one, then a quarter more than read
    # so far, at least 64 steps over the rows left
    assert reads[0] == (rows, 5) and path is None
    done = np.cumsum([k for _, k in reads])
    assert all(r <= prev and k == max(d // 4, math.ceil(64 / r))
               for (prev, _), (r, k), d in zip(reads, reads[1:], done))
    assert len({r for r, _ in reads}) > 5 and reads[-1][0] <= 5


def one_row_passage(level, seed=10):
    """_passage of one walk of stable steps, with mean count 15: its count,
    its sums joined across reads, and the (rows, columns) of its reads."""
    reads = []
    stable = pair_transforms(0.7, 1.0)[0]
    count, sums = processes._passage(recorded_transform(stable, reads), RngStream(seed=seed),
                                     1, level, 15.0, keep=True)
    return int(count[0]), sums, reads


def test_passage_of_one_row_matches_eager_sums_at_read_edges():
    full = np.cumsum(pair_transforms(0.7, 1.0)[0](stream_pairs(10, 1000)))
    # reads of at least 64 steps, then a quarter of the steps read so far
    widths = [64, 64, 64, 64, 64, 80, 100]
    edges = np.cumsum(widths)
    for j in (0, 1, 3, 5):
        last = edges[j] - 1
        # first above the level on the last column of read j, then on the
        # first column of read j + 1
        for first_above, n_reads in ((last, j + 1), (last + 1, j + 2)):
            count, sums, reads = one_row_passage(full[first_above - 1])
            assert count == first_above
            assert reads == [(1, w) for w in widths[:n_reads]]
            assert_bitwise_equal(sums, full[: first_above + 1])


COUNT_CASES = [(0.7, 1.2, 1.0, 400), (0.3, 2.0, 5.0, 300), (0.95, 1.5, 20.0, 200), (1.0, 2.0, 1.5, 100)]


# many level walks kept whole: row r's sums are sums[off[r]:off[r + 1]], off
# the cumsum of count + 1 from 0, each the cumsum of the pairs its row drew
# up to its first sum above the level


def rows_match_eager(count, sums, eager, level):
    """Whether the flat sums, cut at the offsets of count + 1, are the eager
    rows up to their first sum above the level, bit for bit."""
    rows = np.split(sums, np.cumsum(count + 1)[:-1])
    expected = [x[: int((x <= level).sum()) + 1] for x in eager]
    return len(rows) == len(expected) and all(
        a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(rows, expected))


LEVEL_WALK_CASES = [(0.7, 0.01, 3.0, 300), (0.4, 0.05, 1.0, 200), (1.0, 0.02, 2.0, 50)]


def eager_level_walks(theta, step, horizon, rng, rows):
    mean = processes.inverse_subordinator_moments(theta, horizon)[0] / step
    transform = lambda x: step ** (1.0 / theta) * _stable_steps(theta, x)
    first = int(mean) + 1
    chunk = max(1, processes._ROW_CHUNK // first)
    return eager_walk_sums(transform, rng, rows, horizon, first, chunk)


@pytest.mark.parametrize("rule", ["sized", "short_reads", "row_chunks"])
def test_level_walk_rows_match_eager_sums(rule, monkeypatch):
    if rule == "short_reads":  # a first read of one level, most rows read again
        monkeypatch.setattr(processes, "inverse_subordinator_moments", no_moments)
    if rule == "row_chunks":  # chunks of 8 to 86 rows
        monkeypatch.setattr(processes, "_ROW_CHUNK", 2_000)
    for seed, (theta, step, horizon, rows) in enumerate(LEVEL_WALK_CASES):
        count, sums = processes._level_walks(theta, step, horizon, RngStream(seed=seed), rows)
        eager = eager_level_walks(theta, step, horizon, RngStream(seed=seed), rows)
        assert rows_match_eager(count, sums, eager, horizon)
        if theta == 1.0:
            continue
        # planted defects the oracle must catch: row offsets shifted by one
        # (each row handed its successor's first sum), and rows kept one sum
        # past their first above the level, where they drew one
        shifted = count.copy()
        shifted[:-1] += 1
        shifted[-1] -= rows - 1
        assert not rows_match_eager(shifted, sums, eager, horizon)
        longer = [x.size > c + 2 for x, c in zip(eager, count)]
        assert sum(longer) > rows // 4
        kept = np.concatenate([x[: c + 2 + extra] for x, c, extra in zip(eager, count, longer)])
        assert not rows_match_eager(count + longer, kept, eager, horizon)


def test_count_helpers_match_eager_blocks(monkeypatch):
    for seed, (theta, lam, t, n) in enumerate(COUNT_CASES):
        p = FppParams(theta, lam)
        assert_bitwise_equal(
            renewal_counts(p, t, n, RngStream(seed=seed)),
            eager_renewal_counts(p, t, n, RngStream(seed=seed)),
        )
    # planted defects the oracle must catch
    p, t, n = FppParams(*COUNT_CASES[0][:2]), *COUNT_CASES[0][2:]
    eager = eager_renewal_counts(p, t, n, RngStream(seed=0))
    assert not np.array_equal(renewal_counts(p, t, n, DropADrawAfterEachRead(seed=0)), eager)
    read_pairs_as_v_u(monkeypatch)
    assert not np.array_equal(renewal_counts(p, t, n, RngStream(seed=0)), eager)


def test_count_helpers_with_tail_blocks_match_eager_blocks(short_first_reads, monkeypatch):
    # first reads of one gap: most rows need later reads, some several
    ren = {}
    reads = record_walk_reads(monkeypatch)
    for seed, (theta, lam, t, n) in enumerate(COUNT_CASES):
        p = FppParams(theta, lam)
        ren[theta] = renewal_counts(p, t, n, RngStream(seed=seed))
        assert_bitwise_equal(ren[theta], eager_renewal_counts(p, t, n, RngStream(seed=seed)))
    assert (ren[0.95] > 1).sum() > 100 and (ren[0.95] > 32).sum() > 10
    assert reads[0] == (400, 1) and len(reads) > 4 * len(COUNT_CASES)


def test_count_helpers_match_eager_blocks_across_row_chunks(monkeypatch):
    # chunks of 150, 150 and 100 rows, each a first read of 2 gaps
    monkeypatch.setattr(processes, "_ROW_CHUNK", 300)
    reads = record_walk_reads(monkeypatch)
    p, t, n = FppParams(0.7, 1.2), 1.0, 400
    counts = renewal_counts(p, t, n, RngStream(seed=0))
    assert_bitwise_equal(counts, eager_renewal_counts(p, t, n, RngStream(seed=0)))
    # a chunk's first read is the first on more rows than the read before
    firsts = [reads[0]] + [b for a, b in zip(reads, reads[1:]) if b[0] > a[0]]
    assert firsts == [(150, 2), (150, 2), (100, 2)]
    # the chunks change the draws, so the oracle's chunks are checked
    monkeypatch.undo()
    assert not np.array_equal(counts, renewal_counts(p, t, n, RngStream(seed=0)))


def test_one_row_walk_reads_about_a_quarter_past_its_count(monkeypatch):
    # the queue-scaling arrivals point: a first read of the mean count plus
    # one, 32880 gaps
    p, horizon = FppParams(0.9, 1.0), 1e5
    reads = record_walk_reads(monkeypatch)
    for seed in range(4):
        reads.clear()
        rng = RngStream(seed=seed)
        count, _ = processes._renewal_walks(p, horizon, rng, 1)
        drawn = pairs_drawn(reads)
        assert reads[0] == (1, 32_880)
        assert drawn <= max(32_880, 1.25 * (count[0] + 1))
        # the walk drew the pairs it transformed and no more
        assert_bitwise_equal(rng.generator().random(2), stream_pairs(seed, drawn + 1)[-1])


# the read rule by its ratio of variates drawn to variates kept, summed over
# seeds 0-99


def test_arrivals_walk_draws_under_1_8_gaps_per_gap_kept(monkeypatch):
    # the walk draws the pairs it reads, under 1.3 per gap kept
    reads = record_walk_reads(monkeypatch)
    p = FppParams(0.9, 1.0)
    kept = sum(int(processes._renewal_walks(p, 1e5, RngStream(seed=seed), 1)[0][0])
               for seed in range(100))
    assert pairs_drawn(reads) / kept < 1.3


def test_covering_grid_draws_under_2_6_levels_per_level_kept(monkeypatch):
    # the walk draws the pairs it reads, under 1.5 per level kept
    reads = record_walk_reads(monkeypatch)
    kept = sum(covering_levels(0.6, 1e-3, 1.0, RngStream(seed=seed)).size - 1
               for seed in range(100))
    assert pairs_drawn(reads) / kept < 1.5


def test_extension_blocks_grow_geometrically(short_first_reads, monkeypatch):
    # from a first read of 64 steps, each read adds a quarter of the steps
    # read so far, so a walk needing N steps takes at most
    # 5 + log_1.25(N / 256) reads; reads of one fixed width would take N / 64
    reads = record_walk_reads(monkeypatch)
    walks = [lambda: processes._renewal_walks(FppParams(0.8, 4.0), 1500.0, RngStream(seed=5), 1)[0][0] + 1,
             lambda: covering_levels(0.7, 1e-3, 3.0, RngStream(seed=6)).size - 1]
    for walk in walks:
        reads.clear()
        needed = walk()
        assert needed > 1000 and reads[0] == (1, 64)
        assert len(reads) <= 5 + math.log(needed / 256, 1.25) < needed / 64


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
    k_top = np.array([covering_levels(theta, step, t, rng.substream(r)).size - 1
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


# each clock of a two-clock row reads, at t, the last level it passed by t:
# k = floor(Y(t) / step) at the row's last slot


@pytest.mark.parametrize("theta_a, theta_b, t, resolution, seed",
                         [(0.6, 0.9, 2.0, 0.05, 41), (0.5, 0.5, 1.0, 0.1, 42)])
def test_two_clocks_read_exact_clock_law_at_t(theta_a, theta_b, t, resolution, seed):
    n = 10_000
    clocks = limitlab._clock_pair(theta_a, theta_b, t, resolution, RngStream(seed=seed), n)
    ref = RngStream(seed=seed + 100)
    for j, (theta, clock) in enumerate(zip((theta_a, theta_b), clocks)):
        k_end = clock.k[clock.off[1:] - 1]
        y = sample_inverse_subordinator_at(theta, t, ref.substream(j), size=n)
        exact = np.floor(y / (resolution * t**theta)).astype(int)
        assert chi_square_two_samples(k_end, exact) > 1e-3
