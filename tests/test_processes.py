"""Event-level process constructions: timelines, clock grids, thinning, and
agreement between the renewal and time-change routes."""

import csv
import math

import numpy as np
import pytest
from scipy import stats

from fracq import (
    ClassProbabilities,
    CoverageError,
    EventCapError,
    EventTimeline,
    FppParams,
    ParameterError,
    RngStream,
    SubordinatorGrid,
    class_count_at,
    fpp_pmf_table,
    inverse_subordinator_moments,
    invert_subordinator,
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
from fracq.processes import (
    _covering_levels,
    _strictly_increasing,
    default_inverse_clock_step,
)
from fracq.samplers import _mittag_leffler_draws, _stable_draws


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
    grid = simulate_subordinator(0.6, 0.1, 2.0, RngStream(seed=7))
    grid.to_csv(str(tmp_path / "grid.csv"))
    rows = [("%.17g" % (k * 0.1), "%.17g" % v) for k, v in enumerate(grid.values)]
    assert (tmp_path / "grid.csv").read_bytes() == writer_bytes(["t", "y"], rows)


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


def test_renewal_float_collisions_are_nudged():
    # at small theta a long wait can make later gaps fall below one ulp of the
    # partial sum; at these seeds two partial sums collide in float64
    for seed in (3, 5, 6, 12, 13, 38):
        tl = simulate_fpp_renewal(FppParams(0.2, 1.0), 1e6, RngStream(seed=seed))
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


# subordinator grid and inversion


def test_subordinator_grid_shape():
    grid = simulate_subordinator(0.6, 0.1, 5.0, RngStream(seed=4))
    assert grid.values[0] == 0.0
    assert grid.values.size == 51
    assert np.all(np.diff(grid.values) >= 0)


def test_subordinator_increment_law():
    # increments / step^(1/theta) are iid standard positive stable
    theta, step = 0.5, 0.25
    grid = simulate_subordinator(theta, step, 2500.0, RngStream(seed=5))
    incs = np.diff(grid.values) / step ** (1.0 / theta)
    for u in (0.5, 2.0):
        target = math.exp(-(u**theta))
        obs = np.exp(-u * incs)
        z = (obs.mean() - target) / (obs.std(ddof=1) / math.sqrt(obs.size))
        assert abs(z) < 4.0


def test_invert_subordinator_by_hand():
    grid = SubordinatorGrid(step=0.5, values=np.array([0.0, 1.0, 1.5, 4.0]))
    inv = invert_subordinator(grid, np.array([0.0, 0.9, 1.0, 2.0, 3.9]))
    # first k with L(k step) > t, reported as k step
    np.testing.assert_allclose(inv.y_values, [0.5, 0.5, 1.0, 1.5, 1.5])


def test_invert_subordinator_coverage_error():
    grid = SubordinatorGrid(step=0.5, values=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(CoverageError):
        invert_subordinator(grid, np.array([2.5]))
    with pytest.raises(ParameterError):
        invert_subordinator(grid, np.array([-1.0]))


def test_inverse_clock_monotone_in_query_time():
    grid = simulate_subordinator(0.7, 0.01, 50.0, RngStream(seed=6))
    t_grid = np.linspace(0.0, grid.values[-1] * 0.9, 200)
    inv = invert_subordinator(grid, t_grid)
    assert np.all(np.diff(inv.y_values) >= 0)


def test_default_inverse_clock_step():
    assert math.isclose(default_inverse_clock_step(0.5, 4.0), 1e-3 * 2.0)
    assert math.isclose(default_inverse_clock_step(1.0, 10.0), 1e-2)


def test_grid_csv_round_trip(tmp_path):
    grid = simulate_subordinator(0.6, 0.5, 2.0, RngStream(seed=7))
    path = tmp_path / "grid.csv"
    grid.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0, 1.5, 2.0]
    np.testing.assert_array_equal(np.array([float(r[1]) for r in rows[1:]]), grid.values)

    inv = invert_subordinator(grid, np.array([0.1]))
    inv_path = tmp_path / "inv.csv"
    inv.to_csv(str(inv_path))
    with open(inv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y"]


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
    with pytest.raises(ParameterError, match="require 0 < step <= s_max"):
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


def test_class_count_consistency():
    p = FppParams(0.9, 2.0)
    tl = thin_events(
        simulate_fpp_renewal(p, 20.0, RngStream(seed=21)),
        ClassProbabilities(np.array([0.4, 0.6])),
        RngStream(seed=22),
    )
    for t in (0.0, 5.0, 20.0):
        total = sum(class_count_at(tl, i, t) for i in (1, 2))
        assert total == tl.count_at(t)
    with pytest.raises(ParameterError):
        class_count_at(simulate_fpp_renewal(p, 1.0, RngStream(seed=23)), 1, 0.5)


# Kanter's transform on the first-passage prefix, against the eager draws


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


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.9, 1.0])
def test_kanter_prefix_matches_eager_draws(theta):
    n = 1000
    eager = eager_stable(theta, RngStream(seed=3), n)
    assert_bitwise_equal(sample_positive_stable(theta, RngStream(seed=3), size=n), eager)
    for k in (1, 13, 203, 999):
        assert_bitwise_equal(_stable_draws(theta, RngStream(seed=3), n)(np.s_[:k]), eager[:k])
    # slices that start off any vector boundary give the same numbers
    kanter = _stable_draws(theta, RngStream(seed=3), n)
    cuts = (0, 13, 203, 461, 999, 1000)
    assert_bitwise_equal(np.concatenate([kanter(np.s_[a:b]) for a, b in zip(cuts, cuts[1:])]), eager)

    p = FppParams(theta, 2.5)
    eager = eager_mittag_leffler(p, RngStream(seed=4), n)
    assert_bitwise_equal(sample_mittag_leffler(p, RngStream(seed=4), size=n), eager)
    ml = _mittag_leffler_draws(p, RngStream(seed=4), n)
    assert_bitwise_equal(np.concatenate([ml(np.s_[a:b]) for a, b in zip(cuts, cuts[1:])]), eager)


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.0])
def test_kanter_block_keys_match_eager_draws(theta):
    # a (rows, cols) block draws what a flat block of rows * cols draws, and
    # gathered rows and column slices read the same numbers
    rows, cols = 40, 25
    gathered = np.array([0, 3, 17, 39])
    stable = eager_stable(theta, RngStream(seed=5), rows * cols).reshape(rows, cols)
    kanter = _stable_draws(theta, RngStream(seed=5), (rows, cols))
    p = FppParams(theta, 0.7)
    ml_eager = eager_mittag_leffler(p, RngStream(seed=6), rows * cols).reshape(rows, cols)
    ml = _mittag_leffler_draws(p, RngStream(seed=6), (rows, cols))
    for key in (np.s_[:, :], np.s_[:, 7:19], np.s_[gathered, 3:11], np.s_[gathered[1:], :]):
        assert_bitwise_equal(kanter(key), stable[key])
        assert_bitwise_equal(ml(key), ml_eager[key])


def eager_covering_grid(theta, step, horizon, rng):
    """The covering grid built in full: a first block of mean + 8 sd levels,
    then blocks of max(64, size // 2) until one value passes the horizon."""
    mean_y, var_y = processes.inverse_subordinator_moments(theta, horizon)
    s_max = max(step, 1.25 * mean_y + 8.0 * math.sqrt(var_y) + 2.0 * step)
    m = int(math.ceil(s_max / step - 1e-12))
    values = np.concatenate([[0.0], np.cumsum(step ** (1.0 / theta) * eager_stable(theta, rng, m))])
    while values[-1] <= horizon:
        m_extra = max(64, values.size // 2)
        incs = step ** (1.0 / theta) * eager_stable(theta, rng, m_extra)
        values = np.concatenate([values, values[-1] + np.cumsum(incs)])
    return values


def eager_renewal_times(p, horizon, rng, min_block):
    """Renewal event times from blocks of Mittag-Leffler gaps drawn in full."""
    mean_y, var_y = processes.inverse_subordinator_moments(p.theta, horizon)
    rate = p.lam**p.theta
    block = max(min_block, int(rate * mean_y + 8.0 * math.sqrt(rate**2 * var_y + rate * mean_y + 1.0)))
    chunks, total = [], 0.0
    while total <= horizon:
        chunks.append(total + np.cumsum(eager_mittag_leffler(p, rng, block)))
        total = chunks[-1][-1]
    times = np.concatenate(chunks)
    times = _strictly_increasing(times[times <= horizon])
    return times[times <= horizon]


def eager_timechange_times(p, horizon, rng, step):
    g = rng.generator()
    values = eager_covering_grid(p.theta, step, horizon, rng)
    k_top = int(np.searchsorted(values, horizon, side="right"))
    y_top = k_top * step
    y_pos = np.sort(g.random(int(g.poisson(p.lam**p.theta * y_top)))) * y_top
    k_ev = np.clip(np.ceil(y_pos / step).astype(int), 1, values.size - 1)
    times = values[k_ev - 1]
    times = _strictly_increasing(np.where(times <= 0.0, np.nextafter(0.0, 1.0), times))
    return times[times <= horizon]


@pytest.fixture
def short_blocks(monkeypatch):
    """Size every first block as if the clock never moved, so that blocks
    fall short of the horizon and the extension loops run."""
    monkeypatch.setattr(processes, "inverse_subordinator_moments", lambda theta, t: (0.0, 0.0))


def check_covering_levels(theta, step, horizon, seed):
    values, n_levels = _covering_levels(theta, step, horizon, RngStream(seed=seed))
    eager = eager_covering_grid(theta, step, horizon, RngStream(seed=seed))
    top = int(np.searchsorted(eager, horizon, side="right"))
    assert_bitwise_equal(values, eager[: top + 1])
    assert values[-1] > horizon
    assert n_levels == eager.size - 1
    return n_levels


def test_covering_levels_match_eager_grid():
    for seed, theta, horizon in [(1, 0.6, 10.0), (2, 0.3, 1e4), (3, 0.9, 0.5), (4, 1.0, 7.0)]:
        check_covering_levels(theta, default_inverse_clock_step(theta, horizon), horizon, seed)


def test_covering_levels_extension_matches_eager_grid(short_blocks):
    for seed in (5, 6):
        # a first block of 2 levels, then several extensions
        assert check_covering_levels(0.7, 0.01, 3.0, seed) >= 2 + 64 + 64


def test_timechange_matches_eager_construction():
    cases = [(0.6, 2.0, 100.0, None), (0.9, 1e5, 0.3, 1.0), (0.4, 1.0, 1e3, 0.05)]
    for seed, (theta, lam, horizon, step) in enumerate(cases):
        p = FppParams(theta, lam)
        tl = simulate_fpp_timechange(p, horizon, RngStream(seed=seed), step=step)
        step = default_inverse_clock_step(theta, horizon) if step is None else step
        assert_bitwise_equal(tl.times, eager_timechange_times(p, horizon, RngStream(seed=seed), step))


def test_timechange_extension_matches_eager_construction(short_blocks):
    p = FppParams(0.7, 3.0)
    tl = simulate_fpp_timechange(p, 3.0, RngStream(seed=8), step=0.01)
    assert_bitwise_equal(tl.times, eager_timechange_times(p, 3.0, RngStream(seed=8), 0.01))


def check_renewal_paths(theta, lam, horizon, seed):
    p = FppParams(theta, lam)
    times = simulate_fpp_renewal(p, horizon, RngStream(seed=seed)).times
    assert_bitwise_equal(times, eager_renewal_times(p, horizon, RngStream(seed=seed), 64))
    # the limit-law observables' renewal paths, in blocks of at least 16
    observable = processes._renewal_times(p, horizon, RngStream(seed=seed))
    assert_bitwise_equal(observable, eager_renewal_times(p, horizon, RngStream(seed=seed), 16))
    return times.size


def test_renewal_paths_match_eager_blocks():
    for seed, (theta, lam, horizon) in enumerate([(0.9, 1.0, 1e3), (0.3, 2.0, 50.0), (1.0, 3.0, 20.0)]):
        check_renewal_paths(theta, lam, horizon, seed)
    check_renewal_paths(0.2, 1.0, 1e6, 3)  # float collisions are nudged


def test_renewal_paths_with_later_blocks_match_eager_blocks(short_blocks):
    for seed, theta in enumerate((0.6, 0.8, 1.0)):
        # blocks of 64 and 16 gaps for a few hundred events
        assert check_renewal_paths(theta, 4.0, 2000.0, seed) > 64


def test_first_passage_on_gathered_rows_matches_eager_sums():
    # rows past the level after 4, 8, 16 and 32 columns retire, and the last
    # pass sums the whole block on the rows left, two of them short
    rows, n, level = 60, 64, 200.0
    start = np.linspace(0.0, level, rows, endpoint=False)
    steps = _stable_draws(0.7, RngStream(seed=9), (rows, n))
    full = start[:, None] + np.cumsum(eager_stable(0.7, RngStream(seed=9), rows * n).reshape(rows, n), axis=1)
    count, sums, short = processes._first_passage(steps, n, start, level, 4)
    np.testing.assert_array_equal(count, (full <= level).sum(axis=1))
    last = count >= 32
    assert 0 < last.sum() < rows and (count < 4).any()
    assert_bitwise_equal(sums, full[last])
    np.testing.assert_array_equal(short, count[last] == n)
    assert short.sum() == 2


def eager_renewal_counts(p, t, n, rng):
    """renewal_counts from blocks of mean + 8 sd Mittag-Leffler gaps drawn in
    full (one chunk of rows: n * block below 4M): n x block gaps, then
    block more for each row still short, offset by its last sum."""
    mean_y, var_y = processes.inverse_subordinator_moments(p.theta, t)
    rate = p.lam**p.theta
    block = max(16, int(rate * mean_y + 8.0 * math.sqrt(rate**2 * var_y + rate * mean_y + 1.0)))
    sums = np.cumsum(eager_mittag_leffler(p, rng, n * block).reshape(n, block), axis=1)
    counts = (sums <= t).sum(axis=1)
    short = np.flatnonzero(sums[:, -1] <= t)
    tails = sums[short, -1]
    while short.size:
        gaps = eager_mittag_leffler(p, rng, short.size * block).reshape(short.size, block)
        more = tails[:, None] + np.cumsum(gaps, axis=1)
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
