"""Limit-law samplers and the report plumbing around the verification
experiments.  Heavy experiment settings live in the acceptance suite; here we
exercise exact reductions, closed forms, and small smoke runs."""

import inspect
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from fracq import (
    ClassProbabilities,
    EventTimeline,
    ExperimentReport,
    LimitLawSampler,
    LocationSampler,
    ParameterError,
    RngStream,
    sample_inverse_subordinator_at,
    simulate_multiclass_queue,
)
from fracq import limitlab, processes
from fracq.gof import ks_two_sample
from fracq.limitlab import map_replicas
from fracq.processes import DEFAULT_RESOLUTION
from fracq.queueing import _reflect
from fracq.special import FppParams, inverse_subordinator_moments

PROBS2 = ClassProbabilities(np.array([0.6, 0.4]))


def assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


# report plumbing


def make_report(stat, threshold=0.5, direction=">"):
    return ExperimentReport(
        name="demo",
        parameters={"x": 1},
        statistic=stat,
        threshold=threshold,
        direction=direction,
        replicas=10,
        seed=0,
    )


def test_report_verdict_directions():
    assert make_report(0.7).verdict
    assert not make_report(0.3).verdict
    assert make_report(0.3, direction="<").verdict
    assert not make_report(0.7, direction="<").verdict


def test_report_summary_line():
    line = make_report(0.7).summary_line()
    assert line.startswith("[PASS] demo:")
    assert "statistic=0.7" in line
    assert make_report(0.3).summary_line().startswith("[FAIL]")


def test_report_json_round_trip(tmp_path):
    rep = ExperimentReport(
        name="demo",
        parameters={"theta": np.float64(0.5), "horizons": np.array([1.0, 2.0])},
        statistic=0.7,
        threshold=0.5,
        direction=">",
        replicas=10,
        seed=3,
        details={"zs": (np.int64(1), 2.0), "flag": np.bool_(True)},
    )
    d = rep.to_dict()
    assert d["verdict"] is True
    assert d["parameters"]["horizons"] == [1.0, 2.0]
    assert d["details"]["zs"] == [1, 2.0]
    path = tmp_path / "demo.json"
    rep.write_json(str(path))
    assert json.loads(path.read_text()) == d


def test_map_replicas_parallel_matches_serial():
    def fn(sub, m):
        return sub.generator().random((m, 3))

    serial = map_replicas(fn, RngStream(seed=4), 50, chunk=1, jobs=1)
    assert serial.shape == (50, 3)
    np.testing.assert_array_equal(serial, map_replicas(fn, RngStream(seed=4), 50, chunk=1, jobs=8))
    # in chunks of one, replica r draws from substream r
    np.testing.assert_array_equal(serial[7], RngStream(seed=4).substream(7).generator().random(3))
    with pytest.raises(ParameterError):
        map_replicas(fn, RngStream(seed=4), 0, chunk=1)


@pytest.mark.parametrize("jobs", [math.nan, 0, -1])
def test_map_replicas_rejects_a_worker_count_outside_positive_reals(jobs, monkeypatch):
    # a pool of NaN workers starts no thread and never returns; 0 or -1
    # would run serially without a word
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(limitlab, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ParameterError, match=f"jobs must be positive and finite, got {jobs}"):
        map_replicas(lambda sub, m: np.zeros(m), RngStream(seed=4), 4, chunk=2, jobs=jobs)


def test_map_replicas_draws_chunk_c_from_substream_c():
    def fn(sub, m):
        return np.column_stack([np.full(m, sub._path[-1]), sub.generator().random(m)])

    got = map_replicas(fn, RngStream(seed=4), 7, chunk=3)
    assert got[:, 0].tolist() == [0, 0, 0, 1, 1, 1, 2]
    np.testing.assert_array_equal(got[6:, 1], RngStream(seed=4).substream(2).generator().random(1))
    np.testing.assert_array_equal(got, map_replicas(fn, RngStream(seed=4), 7, jobs=2, chunk=3))


# limit-law samplers: validation


def test_limit_law_sampler_validation():
    with pytest.raises(ParameterError):
        LimitLawSampler(0.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler(1.0, 1.5, 1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler(1.0, 0.5, -1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler(1.0, 0.5, 1.0).sample(RngStream(seed=0), -1)
    with pytest.raises(ParameterError):
        LimitLawSampler(1.0, 0.5, 1.0, 0.5, 1.0).sample(RngStream(seed=0), 0)
    # non-finite input would sample NaN
    nan, inf = float("nan"), float("inf")
    for bad in (
        lambda: LimitLawSampler(1.0, 0.5, nan),
        lambda: LimitLawSampler(nan, 0.5, 1.0),
        lambda: LimitLawSampler(inf, 0.5, 1.0),
        lambda: LimitLawSampler(1.0, 0.5, 1.0, 0.5, nan),
    ):
        with pytest.raises(ParameterError):
            bad()


# limit-law samplers: degenerate clocks (theta = 1)


def test_reflected_difference_at_one_matches_drift():
    # deterministic clocks: the reflected difference is the positive-part drift,
    # up to the passage-grid rounding of each clock
    for ca, cb in ((2.0, 0.5), (0.5, 2.0)):
        draws = limitlab._reflected_ends(1.0, (ca,), 1.0, cb, 2.0, 1e-3, RngStream(seed=2), 4)
        target = max(ca - cb, 0.0) * 2.0
        np.testing.assert_allclose(draws, target, atol=3.0 * 1e-3 * 2.0 * (ca + cb))


def test_one_sided_brownian_at_one_is_folded_gaussian():
    v, t = 1.7, 2.0
    s = LimitLawSampler(t, 1.0, v)
    draws = s.sample(RngStream(seed=3), 20_000)
    res = stats.kstest(draws, stats.halfnorm(scale=math.sqrt(v * t)).cdf)
    assert res.pvalue > 1e-3


def test_reflected_brownian_difference_at_one_is_folded_gaussian():
    va, vb, t = 1.0, 0.5, 1.0
    s = LimitLawSampler(t, 1.0, va, 1.0, vb)
    draws = s.sample(RngStream(seed=4), 400)
    scale = math.sqrt((va + vb) * t)
    res = stats.kstest(draws, lambda x: 2.0 * stats.norm.cdf(x / scale) - 1.0)
    assert res.pvalue > 1e-3


# limit-law samplers: fractional clocks


def test_brownian_time_changed_moments():
    # |B(Y(t))| has the even moments of B(Y(t)): v E Y and 3 v^2 E Y^2
    theta, v, t = 0.7, 1.3, 2.0
    draws = LimitLawSampler(t, theta, v).sample(RngStream(seed=6), 60_000)
    mean_y, var_y = inverse_subordinator_moments(theta, t)
    for power, target in ((2, v * mean_y), (4, 3.0 * v**2 * (var_y + mean_y**2))):
        x = draws**power
        z = (x.mean() - target) / (x.std(ddof=1) / math.sqrt(x.size))
        assert abs(z) < 4.0


def test_one_sided_reflections_reduce_to_exact_samplers():
    # with nothing subtracted the reflection is the path's absolute value,
    # drawn exactly at the one time, whatever theta_b is
    t = 1.0
    rng = RngStream(seed=8)
    rbm = LimitLawSampler(t, 0.7, 1.4, 0.3).sample(rng, 500)
    y = sample_inverse_subordinator_at(0.7, t, rng.substream(0), 500)
    z = rng.substream(1).generator().standard_normal(500)
    np.testing.assert_array_equal(rbm, np.abs(np.sqrt(1.4 * y) * z))


def test_two_sided_brownian_law_draws_y_a_z_and_y_b_from_substreams_0_1_2():
    # sqrt(a Y_a(t) + b Y_b(t)) |z|, exact
    t, rng = 1.5, RngStream(seed=9)
    got = LimitLawSampler(t, 0.6, 1.2, 0.8, 0.5).sample(rng, 300)
    y_a = sample_inverse_subordinator_at(0.6, t, rng.substream(0), 300)
    z = rng.substream(1).generator().standard_normal(300)
    y_b = sample_inverse_subordinator_at(0.8, t, rng.substream(2), 300)
    assert_bitwise_equal(got, np.abs(np.sqrt(1.2 * y_a + 0.5 * y_b) * z))


def two_sided_brownian_moment_z(x, theta_a, a, theta_b, b, t):
    """z-scores of the sample means of x^2 and x^4 against the two-sided
    Brownian law's E X^2 = a E Y_a + b E Y_b and E X^4 = 3 E (a Y_a + b Y_b)^2."""
    (ma, va), (mb, vb) = (inverse_subordinator_moments(th, t) for th in (theta_a, theta_b))
    targets = {2: a * ma + b * mb,
               4: 3.0 * (a * a * (va + ma * ma) + 2.0 * a * b * ma * mb + b * b * (vb + mb * mb))}
    return [(np.mean(x**k) - target) / (np.std(x**k, ddof=1) / math.sqrt(x.size))
            for k, target in targets.items()]


def test_two_sided_brownian_moments_reject_planted_defects():
    theta_a, a, theta_b, b, t, n = 0.6, 1.2, 0.8, 0.5, 1.5, 60_000
    rng = RngStream(seed=10)
    x = LimitLawSampler(t, theta_a, a, theta_b, b).sample(rng, n)
    assert max(map(abs, two_sided_brownian_moment_z(x, theta_a, a, theta_b, b, t))) < 4.0
    # the same draws put together wrong: the scales added, not the
    # variances; and Y_b dropped
    y_a = sample_inverse_subordinator_at(theta_a, t, rng.substream(0), n)
    z = rng.substream(1).generator().standard_normal(n)
    y_b = sample_inverse_subordinator_at(theta_b, t, rng.substream(2), n)
    for scale in (np.sqrt(a * y_a) + np.sqrt(b * y_b), np.sqrt(a * y_a)):
        planted = np.abs(scale * z)
        assert max(map(abs, two_sided_brownian_moment_z(planted, theta_a, a, theta_b, b, t))) > 4.0


# experiment smoke runs (small replica counts; the acceptance suite scales up)


def test_verify_pmf_smoke(tmp_path):
    rep = limitlab.verify_pmf(
        0.6, 1.3, t=1.0, replicas=20_000, rng=RngStream(seed=0),
        out_dir=str(tmp_path), verbose=False,
    )
    assert rep.verdict
    assert (tmp_path / "pmf-agreement.json").exists()
    payload = json.loads((tmp_path / "pmf-agreement.json").read_text())
    assert payload["verdict"] is True
    for art in rep.artifacts:
        assert art.endswith(".csv")


def test_verify_pmf_deterministic(tmp_path):
    kwargs = dict(theta=0.7, lam=1.0, t=1.0, replicas=5000, verbose=False)
    a = limitlab.verify_pmf(rng=RngStream(seed=5), **kwargs)
    b = limitlab.verify_pmf(rng=RngStream(seed=5), **kwargs)
    assert a.to_dict() == b.to_dict()


def test_verify_covariance_smoke():
    rep = limitlab.verify_covariance(
        0.7, 1.2, ClassProbabilities(np.array([0.3, 0.3, 0.4])),
        t=1.0, replicas=40_000, rng=RngStream(seed=1), verbose=False,
    )
    assert rep.verdict
    assert rep.details["target_12"] > 0.0  # off-diagonal covariance is positive
    assert rep.statistic < 4.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_covariance_single_replica_fails():
    # one replica has no sample variance: every z-score is NaN
    rep = limitlab.verify_covariance(
        0.7, 1.0, ClassProbabilities(np.array([0.5, 0.5])), t=1.0, replicas=1,
        rng=RngStream(seed=0), verbose=False,
    )
    assert math.isnan(rep.details["z_11"])
    assert math.isnan(rep.statistic)
    assert not rep.verdict


def test_verify_lln_smoke():
    rep = limitlab.verify_lln(
        0.7, 1.0, PROBS2, t=1.0, u=1e4, replicas=2000,
        rng=RngStream(seed=2), verbose=False,
    )
    assert rep.verdict
    assert rep.details["corr_12"] > 0.5  # classes share one clock


def test_verify_lln_degenerate_at_one():
    rep = limitlab.verify_lln(
        1.0, 1.0, PROBS2, t=1.0, u=1e4, replicas=2000,
        rng=RngStream(seed=3), verbose=False,
    )
    assert rep.verdict
    assert rep.direction == "<"


def test_verify_fclt_smoke():
    rep = limitlab.verify_fclt(
        0.7, 1.0, PROBS2, t=1.0, u=1e3, replicas=4000,
        rng=RngStream(seed=4), verbose=False,
    )
    assert rep.verdict
    assert abs(rep.details["z_cross_class"]) < 4.0


def test_verify_fclt_lattice_at_one():
    rep = limitlab.verify_fclt(
        1.0, 1.0, PROBS2, t=1.0, u=1e4, replicas=4000,
        rng=RngStream(seed=5), verbose=False,
    )
    assert rep.verdict


def test_verify_queue_scaling_balanced_smoke():
    rep = limitlab.verify_queue_scaling(
        0.6, 0.6, 1.1, 1.0, ClassProbabilities(np.array([0.5, 0.5])), i=2,
        t=1.0, u=1e3, replicas=500, rng=RngStream(seed=0), verbose=False,
    )
    assert rep.details["regime"] == "balanced"
    assert "ks_per_class" in rep.details
    assert rep.verdict


def test_verify_centered_clt_smoke():
    rep = limitlab.verify_centered_queue_clt(
        0.7, 0.5, 1.0, 1.0, PROBS2, i=2, t=1.0, u=1e3, replicas=300,
        rng=RngStream(seed=3), verbose=False,
    )
    assert rep.verdict


def test_verify_oscillation_smoke():
    rep = limitlab.verify_oscillation(
        0.5, 1.0, horizons=(0.5, 8.0), replicas=100,
        rng=RngStream(seed=6), verbose=False,
    )
    assert rep.verdict
    mins = rep.details["median_running_min"]
    maxs = rep.details["median_running_max"]
    assert mins[1] < mins[0] and maxs[1] > maxs[0]


def test_median_trends_take_the_least_step_in_each_columns_direction():
    # column 0's medians 2, 3, 5 and column 1's 8, 6, 2 along three rungs
    rungs = [np.column_stack([[1.0, 2.0, 3.0], [9.0, 8.0, 7.0]]) + d * np.array([1.0, -2.0])
             for d in (0, 1, 3)]
    found = limitlab._median_trends(rungs, up=True, down=False)
    assert found.details == {"up": [2.0, 3.0, 5.0], "down": [8.0, 6.0, 2.0]}
    assert found[:3] == (1.0, 0.0, ">")
    assert limitlab._median_trends(rungs, up=False, down=True).statistic == -4.0
    # equal medians fail at exactly 0.0, the falling column first so that a
    # -0.0 from it would be the least margin
    found = limitlab._median_trends([rungs[0], rungs[0]], down=False, up=True)
    assert found.statistic == 0.0 and math.copysign(1.0, found.statistic) == 1.0
    assert not ExperimentReport("demo", {}, *found[:3], replicas=3, seed=0).verdict


def test_verify_validation_errors():
    with pytest.raises(ParameterError):
        limitlab.verify_recurrence(
            0.6, 1.0, 1.0, horizons=(10.0, 5.0, 20.0),
            replicas=5, rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_recurrence(
            0.6, 1.0, 1.0, horizons=(10.0, 20.0),
            replicas=5, rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_oscillation(
            1.0, 1.0, horizons=(1.0, 2.0), replicas=5,
            rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_oscillation(
            0.5, 0.0, horizons=(1.0, 2.0), replicas=5,
            rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_best_ask(
            0.5, 0.8, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0),
            t_values=(1.0, 10.0), replicas=5, rng=RngStream(seed=0), verbose=False,
        )
    # horizons must be positive and strictly increasing
    for horizons in ((0.0, 10.0, 100.0), (100.0, 100.0), (1.0, float("nan"))):
        with pytest.raises(ParameterError, match="positive, strictly increasing"):
            limitlab.verify_oscillation(
                0.5, 1.0, horizons=horizons, replicas=5,
                rng=RngStream(seed=0), verbose=False,
            )
    with pytest.raises(ParameterError, match="positive, strictly increasing"):
        limitlab.verify_best_ask(
            0.9, 0.5, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0),
            t_values=(10.0, 10.0), replicas=5, rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_recurrence(
            0.6, 1.0, 1.0, horizons=(10.0, 20.0, 40.0),
            replicas=0, rng=RngStream(seed=0), verbose=False,
        )


def test_nan_time_scale_or_window_is_rejected():
    # the CLI rejects NaN flags itself; the experiments must too
    with pytest.raises(ParameterError, match="u must be positive and finite, got nan"):
        limitlab.verify_lln(0.7, 1.0, PROBS2, t=1.0, u=math.nan, replicas=10,
                            rng=RngStream(seed=0), verbose=False)
    with pytest.raises(ParameterError, match="t must be positive and finite, got nan"):
        limitlab.verify_covariance(0.7, 1.0, PROBS2, t=math.nan, replicas=10,
                                   rng=RngStream(seed=0), verbose=False)
    with pytest.raises(ParameterError, match=r"eps in \(0, inf\)"):
        limitlab.verify_best_ask(
            0.9, 0.5, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0), t_values=(1.0, 10.0),
            replicas=5, rng=RngStream(seed=0), eps_values=(0.1, math.nan), verbose=False,
        )


# each experiment at its first battery point, with each argument it needs in
# (0, inf)
BATTERY_POINTS = {}
for _, verify, point in limitlab.BATTERY.values():
    BATTERY_POINTS.setdefault(verify, point)
POSITIVE = {"t", "u", "c", "z_max", "resolution", "concentration_tol", "degenerate_tol", "jobs",
            "replicas"}
POSITIVE_CASES = [(verify, arg) for verify in BATTERY_POINTS
                  for arg in inspect.signature(verify).parameters if arg in POSITIVE]


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0], ids=["nan", "0", "-1"])
@pytest.mark.parametrize("verify, arg", POSITIVE_CASES,
                         ids=[f"{verify.__name__}-{arg}" for verify, arg in POSITIVE_CASES])
def test_positive_settings_are_checked_before_any_draw(monkeypatch, verify, arg, bad):
    def no_draws(self):
        raise AssertionError("an experiment drew before checking its settings")

    monkeypatch.setattr(RngStream, "generator", no_draws)
    kw = dict(BATTERY_POINTS[verify], replicas=20)
    kw[arg] = bad
    with pytest.raises(ParameterError, match=f"^{arg} must be positive and finite"):
        verify(rng=RngStream(seed=0), verbose=False, **kw)


@pytest.mark.parametrize("p_min", [0.05, 1e-3, 1e-6])
def test_ks_check_accepts_the_fewest_replicas_that_can_reject(p_min):
    # the smallest two-sample KS p-value at n each is that of two samples that
    # do not interleave, 2 / C(2n, n)
    n = next(n for n in range(2, 100) if 2 / math.comb(2 * n, n) < p_min)
    for m, rejects in ((n - 1, False), (n, True)):
        p = ks_two_sample(np.arange(m), np.arange(m) + m)[1]
        assert (p < p_min) == rejects
    limitlab._require_ks_can_reject(n, p_min)
    with pytest.raises(ParameterError, match=f"need at least {n}$"):
        limitlab._require_ks_can_reject(n - 1, p_min)


# every replica loop keys its streams by replica, never by thread

JOBS_CASES = {
    "queue_scaling_balanced": lambda **kw: limitlab.verify_queue_scaling(
        0.6, 0.6, 1.1, 1.0, ClassProbabilities(np.array([0.5, 0.5])), i=2,
        t=1.0, u=100.0, replicas=40, rng=RngStream(seed=1), **kw),
    "centered_clt": lambda **kw: limitlab.verify_centered_queue_clt(
        0.6, 0.6, 1.0, 1.0, PROBS2, i=2, t=1.0, u=100.0, replicas=40,
        rng=RngStream(seed=2), **kw),
    "recurrence": lambda **kw: limitlab.verify_recurrence(
        0.6, 2.0, 1.0, horizons=(10.0, 100.0, 1000.0),
        replicas=20, rng=RngStream(seed=3), **kw),
    "oscillation": lambda **kw: limitlab.verify_oscillation(
        0.5, 1.0, horizons=(1.0, 10.0), replicas=20, rng=RngStream(seed=4), **kw),
    "best_ask": lambda **kw: limitlab.verify_best_ask(
        0.9, 0.5, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0), t_values=(10.0, 100.0),
        replicas=20, rng=RngStream(seed=5), **kw),
}


@pytest.mark.parametrize("name", sorted(JOBS_CASES))
def test_experiments_independent_of_jobs(tmp_path, monkeypatch, name):
    reports, files = [], []
    for jobs in (1, 2):
        # a relative out dir gives both runs the same artifact paths
        run_dir = tmp_path / f"jobs{jobs}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        reports.append(JOBS_CASES[name](out_dir="out", jobs=jobs, verbose=False).to_dict())
        files.append({p.name: p.read_bytes() for p in sorted(Path("out").iterdir())})
    assert reports[0] == reports[1]
    assert files[0] == files[1]
    assert len(files[0]) == 1 + len(reports[0]["artifacts"])


# event-level queues: a chunk of rows, read at services, against the
# event-by-event queue on each row's own paths


def split_rows(count, values):
    return np.split(values, np.cumsum(count)[:-1])


def one_class_queue(arrival_times, departure_times, horizon):
    """(final length, emptyings, running max) of the one-class queue that
    simulate_multiclass_queue runs over these arrivals and services."""
    arrivals = EventTimeline(horizon, arrival_times, np.ones(arrival_times.size, int))
    traj = simulate_multiclass_queue(arrivals, EventTimeline(horizon, departure_times), 1)
    return traj.final_lengths()[0], traj.emptying_times.size, traj.total_lengths.max(initial=0)


def rows_oracle(n_arr, arr, n_dep, dep, keep, horizon):
    """one_class_queue of each row, for each column of keep (true where that
    column's queue takes the arrival)."""
    out = [[one_class_queue(a[k[:, c]], d, horizon) for c in range(keep.shape[1])]
           for a, d, k in zip(split_rows(n_arr, arr), split_rows(n_dep, dep), split_rows(n_arr, keep))]
    return np.array(out, dtype=np.int64)


def marks(rng, n, shares):
    """The renewal reader's marks: uniform on [0, 1), kept below each share."""
    return rng.generator().random(n)[:, None] < np.asarray(shares)


def queue_rows_oracle(arrivals, services, horizon, shares, rng, rows):
    """Each row's (Q(T), emptyings, running max) per column of shares, from
    the one-class queue on the row's own renewal paths and marks, drawn as
    the renewal reader draws them."""
    n_arr, arr = processes._renewal_rows(arrivals, horizon, rng.substream(0), rows)
    n_dep, dep = processes._renewal_rows(services, horizon, rng.substream(2), rows)
    keep = marks(rng.substream(1), arr.size, shares)
    return rows_oracle(n_arr, arr, n_dep, dep, keep, horizon), n_arr, n_dep


def edges(count):
    """Where in a chunk the rows with count 0 sit."""
    last = count.size - 1
    return {"leading" if r == 0 else "trailing" if r == last else "middle"
            for r in np.flatnonzero(count == 0).tolist()}


POINTS = LocationSampler.point_masses([1.0, 1.05, 1.1, 2.0], [0.1, 0.2, 0.3, 0.4])

# (arrivals, services, horizon, shares, rows).  Read from renewal arrival
# rows (alpha <= beta): balanced and services-dominate heads, and horizons so
# short that many rows have no arrivals or no services
RENEWAL_CASES = [
    (FppParams(0.6, 1.1), FppParams(0.6, 1.0), 1e3, (1.0, 0.5), 40),
    (FppParams(0.3, 1.0), FppParams(0.9, 1.0), 1e3, (0.3,), 25),
    (FppParams(0.5, 1.0), FppParams(0.7, 1.0), 0.3, (1.0, 0.4), 143),
    (FppParams(0.4, 2.0), FppParams(0.4, 1.0), 0.5, (1.0,), 150),
]
# read through the arrivals' clock (alpha > beta): best-ask location cuts
# (point masses sit on a cut), heads with a share of 1, short horizons
CLOCK_CASES = [
    (FppParams(0.9, 1.0), FppParams(0.5, 1.0), 50.0, (POINTS.cdf(1.1), POINTS.cdf(1.05)), 60),
    (FppParams(0.7, 1.0), FppParams(0.5, 1.0), 0.3, (1.0, 0.4), 143),
    (FppParams(0.9, 2.0), FppParams(0.3, 1.0), 0.5, (1.0,), 150),
]


def test_queue_ends_rows_match_the_one_class_queue():
    empty = {"arrivals": set(), "services": set()}
    for seed, (arrivals, services, horizon, shares, rows) in enumerate(RENEWAL_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._queue_ends(arrivals, services, horizon, shares, rng, rows)
        expected, n_arr, n_dep = queue_rows_oracle(arrivals, services, horizon, shares, rng, rows)
        np.testing.assert_array_equal(got, expected)
        empty["arrivals"] |= edges(n_arr)
        empty["services"] |= edges(n_dep)
    # rows with no arrivals and rows with no services, at each end of a
    # chunk and inside it
    assert empty["arrivals"] == empty["services"] == {"leading", "middle", "trailing"}


def placed_arrivals(dep, kept, total, horizon, g):
    """Arrival times that put kept[j] - kept[j - 1] arrivals anywhere in
    (s_{j-1}, s_j] and total - kept[-1] in (s_n, T]; half the time the last
    of an interval sits on its service, a tie."""
    bounds = np.concatenate([[0.0], dep, [horizon]])
    counts = np.diff(np.concatenate([[0], kept, [total]]))
    times = []
    for lo, hi, k in zip(bounds[:-1], bounds[1:], counts.tolist()):
        x = np.sort(np.minimum(lo + (hi - lo) * (1.0 - g.random(k)), hi))
        if k and g.random() < 0.5:
            x[-1] = hi
        times.append(x)
    return np.concatenate(times)


def test_clock_reader_rows_match_the_one_class_queue():
    # the queue depends on the arrivals only through the kept count between
    # services, so any placement of the clock reader's counts must give the
    # kernel's numbers, bit for bit
    g = np.random.default_rng(11)
    empty = {"arrivals": set(), "services": set()}
    for seed, (arrivals, services, horizon, shares, rows) in enumerate(CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._queue_ends(arrivals, services, horizon, shares, rng, rows)
        n_dep, dep = processes._renewal_rows(services, horizon, rng.substream(2), rows)
        row_d = np.repeat(np.arange(rows), n_dep)
        j = np.arange(dep.size) - (np.cumsum(n_dep) - n_dep)[row_d]
        kept, total = limitlab._kept_by_clock(arrivals, horizon, np.asarray(shares), rng,
                                              n_dep, dep, row_d, j)
        assert np.all(kept[:, 0] >= kept[:, -1]) and np.all(total[:, 0] >= total[:, -1])  # nested
        expected = [[one_class_queue(placed_arrivals(d, k[:, c], tot[c], horizon, g), d, horizon)
                     for c in range(len(shares))]
                    for d, k, tot in zip(split_rows(n_dep, dep), split_rows(n_dep, kept), total)]
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64))
        empty["arrivals"] |= edges(total[:, 0])
        empty["services"] |= edges(n_dep)
    assert empty["arrivals"] == empty["services"] == {"leading", "middle", "trailing"}


def test_clock_reader_matches_the_renewal_reader_in_law(monkeypatch):
    arrivals, services, horizon, shares = FppParams(0.9, 1.0), FppParams(0.3, 1.0), 1e3, (1.0, 0.3)
    ends = partial(limitlab._queue_ends, arrivals, services, horizon, shares)
    chunk = limitlab._queue_rows(arrivals, services, horizon)
    dense = map_replicas(ends, RngStream(seed=1), 2000, chunk)
    monkeypatch.setattr(limitlab, "_kept_by_clock", limitlab._kept_by_renewals)
    walked = map_replicas(ends, RngStream(seed=2), 2000, chunk)
    for c in range(len(shares)):
        for k in range(3):  # Q(T), emptyings, running max
            assert ks_two_sample(dense[:, c, k], walked[:, c, k])[1] > 1e-3


def lattice_rows():
    """30 rows of arrivals (keyed by their rate 1.1) and of services (rate
    1.0) on a lattice of step 0.5, so that the two often share an instant."""
    g = np.random.default_rng(3)
    paths = {}
    for lam in (1.1, 1.0):
        rows = [np.unique(g.integers(1, 40, g.integers(0, 30))) * 0.5 for _ in range(30)]
        paths[lam] = (np.array([r.size for r in rows]), np.concatenate(rows))
    return paths


def rows_match_oracle_on_lattice(monkeypatch, services_first=False):
    arrivals, services, shares = FppParams(0.6, 1.1), FppParams(0.6, 1.0), (1.0, 0.5)
    paths = lattice_rows()
    (n_arr, arr), (n_dep, dep) = paths[1.1], paths[1.0]
    ties = sum(np.isin(d, a).sum() for a, d in zip(split_rows(n_arr, arr), split_rows(n_dep, dep)))
    assert ties > 100
    fed = dict(paths)
    if services_first:  # every service one ulp earlier
        fed[1.0] = (n_dep, np.nextafter(dep, -np.inf))
    monkeypatch.setattr(limitlab, "_renewal_rows", lambda p, horizon, rng, rows: fed[p.lam])
    rng = RngStream(seed=0)
    got = limitlab._queue_ends(arrivals, services, 20.0, shares, rng, 30)
    expected = rows_oracle(n_arr, arr, n_dep, dep, marks(rng.substream(1), arr.size, shares), 20.0)
    return np.array_equal(got, expected)


def test_queue_ends_count_an_arrival_before_a_service_at_the_same_instant(monkeypatch):
    assert rows_match_oracle_on_lattice(monkeypatch)
    # planted defect the oracle must catch: services first at ties
    assert not rows_match_oracle_on_lattice(monkeypatch, services_first=True)


def test_queue_ends_restart_the_running_minimum_at_each_row(monkeypatch):
    arrivals, services, horizon, shares, rows = RENEWAL_CASES[0]
    expected = queue_rows_oracle(arrivals, services, horizon, shares, RngStream(seed=0), rows)[0]
    # planted defect the oracle must catch: the minimum carried across rows
    monkeypatch.setattr(limitlab, "_row_cummin", lambda x, row: np.minimum.accumulate(x))
    got = limitlab._queue_ends(arrivals, services, horizon, shares, RngStream(seed=0), rows)
    assert not np.array_equal(got, expected)
    assert np.array_equal(got[0], expected[0])  # the first row has nothing to carry


def test_one_row_chunk_matches_the_per_replica_queue():
    # one replica as it was built alone: a renewal timeline per side and
    # one uniform mark per arrival, the queue merged event by event
    arrivals, services, heads = FppParams(0.6, 1.1), FppParams(0.6, 1.0), (1.0, 0.3)
    for r in range(3):
        sub = RngStream(seed=8).substream(r)
        arr = processes.simulate_fpp_renewal(arrivals, 2e3, sub.substream(0)).times
        dep = processes.simulate_fpp_renewal(services, 2e3, sub.substream(2)).times
        u = sub.substream(1).generator().random(arr.size)
        expected = [one_class_queue(arr[u < head], dep, 2e3) for head in heads]
        got = limitlab._queue_ends(arrivals, services, 2e3, heads, sub, 1)
        np.testing.assert_array_equal(got[0], np.array(expected))


def test_queue_observables_draw_chunk_by_chunk():
    # through renewal arrival rows and through the arrivals' clock
    for arrivals, services, horizon, shares, _ in (RENEWAL_CASES[0], CLOCK_CASES[0]):
        chunk = limitlab._queue_rows(arrivals, services, horizon)
        ends = lambda sub, m: limitlab._queue_ends(arrivals, services, horizon, shares, sub, m)
        rng = RngStream(seed=5)
        # fewer replicas than a chunk, then a chunk and one more
        np.testing.assert_array_equal(map_replicas(ends, rng, 7, chunk=chunk), ends(rng.substream(0), 7))
        got = map_replicas(ends, rng, chunk + 1, chunk=chunk)
        np.testing.assert_array_equal(got, np.concatenate([ends(rng.substream(0), chunk),
                                                           ends(rng.substream(1), 1)]))
        np.testing.assert_array_equal(map_replicas(ends, rng, chunk + 1, jobs=2, chunk=chunk), got)


def test_queue_chunks_are_sized_by_the_walks_the_reader_takes():
    mean = 1.1**0.6 * 1e3**0.6 / math.gamma(1.6)
    assert limitlab._queue_rows(*RENEWAL_CASES[0][:3]) == limitlab._PAIR_STEPS // (int(mean) + 1) == 218
    # a services-dominated queue at u = 1e5 walks about 32.9k services a
    # row: one row a chunk
    assert limitlab._queue_rows(FppParams(0.3, 1.0), FppParams(0.9, 1.0), 1e5) == 1
    # the arrivals-dominated mirror walks only its about 35 services a row
    services = 1e5**0.3 / math.gamma(1.3)
    assert limitlab._reads_clock(FppParams(0.9, 1.0), FppParams(0.3, 1.0), 1e5)
    assert limitlab._queue_rows(FppParams(0.9, 1.0), FppParams(0.3, 1.0), 1e5) == (
        limitlab._PAIR_STEPS // (int(services) + 1)) == 455
    # with about 1120 services a row against 32.9k arrivals the clock's loop
    # would cost more than the arrivals' walk: m^2 >= 16 A
    assert not limitlab._reads_clock(FppParams(0.9, 1.0), FppParams(0.6, 1.0), 1e5)
    assert limitlab._queue_rows(FppParams(0.9, 1.0), FppParams(0.6, 1.0), 1e5) == 1
    assert limitlab._reads_clock(FppParams(0.9, 1.0), FppParams(0.5, 1.0), 1e5)
    assert not limitlab._reads_clock(FppParams(0.6, 1.0), FppParams(0.6, 1.0), 1e5)


def test_renewal_rows_nudge_only_the_row_with_a_float_collision(monkeypatch):
    # a tie planted in one row of a chunk: that row alone is nudged, exactly
    # as _strictly_increasing nudges it, and the queue reads the nudged row
    arrivals, services, horizon, shares, rows = RENEWAL_CASES[0]
    clean = processes._renewal_rows(arrivals, horizon, RngStream(seed=0).substream(0), rows)
    walks = processes._renewal_walks
    planted = {}

    def colliding_walks(p, horizon, rng, rows, event_cap=math.inf, keep=False):
        count, sums = walks(p, horizon, rng, rows, event_cap, keep)
        if p is arrivals:
            at = int(np.cumsum(count + 1)[6]) + count[7] // 2  # inside row 7
            sums[at : at + 3] = sums[at]  # three arrivals at one instant
            planted["row"] = sums[np.cumsum(count + 1)[6] : np.cumsum(count + 1)[7]][: count[7]]
        return count, sums

    monkeypatch.setattr(processes, "_renewal_walks", colliding_walks)
    count, times = processes._renewal_rows(arrivals, horizon, RngStream(seed=0).substream(0), rows)
    assert count.tolist() == clean[0].tolist()
    got, before = split_rows(count, times), split_rows(*clean)
    nudged = processes._strictly_increasing(planted["row"])
    assert_bitwise_equal(got[7], nudged)
    assert not np.array_equal(nudged, planted["row"]) and np.all(np.diff(got[7]) > 0)
    for r in set(range(rows)) - {7}:
        assert_bitwise_equal(got[r], before[r])
    np.testing.assert_array_equal(
        limitlab._queue_ends(arrivals, services, horizon, shares, RngStream(seed=0), rows),
        queue_rows_oracle(arrivals, services, horizon, shares, RngStream(seed=0), rows)[0])


# two-clock functionals, evaluated at clock passages over rows of one level
# walk per clock, against the reflection on each row's union grid of passage
# times built from the same levels and the same per-level draws


TWO_CLOCK_CASES = [(0.7, 0.6, 50.0), (0.5, 0.9, 3.0), (0.8, 0.8, 200.0)]
RES = 1e-2


def clock_rows(theta, t, rng, rows):
    """step and each row's levels L(step), L(2 step), ... through the first
    above t, from one level walk of `rows` rows."""
    step = RES * t**theta
    count, levels = processes._level_walks(theta, step, t, rng, rows)
    return step, np.split(levels, np.cumsum(count + 1)[:-1])


def union_grid_paths(theta_a, theta_b, t, rng, rows, walk_a, walk_b):
    """Each row's path walk_a(k_a) - walk_b(k_b) on the union of its passage
    times up to t (t included), the clocks' levels from substreams 0 and 1 of
    rng.  walk_x(step, counts) gives each row's values at k = 0 .. n, the
    rows' level counts n listed in `counts`."""
    (step_a, la), (step_b, lb) = (clock_rows(th, t, rng.substream(j), rows)
                                  for j, th in enumerate((theta_a, theta_b)))
    wa = walk_a(step_a, [x.size - 1 for x in la])
    wb = walk_b(step_b, [x.size - 1 for x in lb])
    paths = []
    for ra, rb, va, vb in zip(la, lb, wa, wb):
        ra, rb = np.concatenate([[0.0], ra]), np.concatenate([[0.0], rb])
        ev = np.union1d(ra[:-1], rb[:-1])
        if ev[-1] < t:
            ev = np.append(ev, t)
        paths.append(va[np.searchsorted(ra, ev, side="right") - 1]
                     - vb[np.searchsorted(rb, ev, side="right") - 1])
    return paths


def linear(coef):
    return lambda step, counts: [coef * (step * np.arange(n + 1)) for n in counts]


def level_walk(rng, draw):
    """Per row, 0 then the cumsum of draw(g, step, m) taken row after row."""
    def walk(step, counts):
        x = np.split(draw(rng.generator(), step, sum(counts)), np.cumsum(counts)[:-1])
        return [np.concatenate([[0.0], np.cumsum(row)]) for row in x]
    return walk


def reflected_ends(paths):
    return np.array([_reflect(path)[-1] for path in paths])


def test_reflected_ends_match_union_grid_reflection():
    for seed, (theta_a, theta_b, t) in enumerate(TWO_CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._reflected_ends(theta_a, (1.5, 0.4), theta_b, 0.7, t, RES, rng, 40)
        for coef, ends in zip((1.5, 0.4), got.T):
            paths = union_grid_paths(theta_a, theta_b, t, rng, 40, linear(coef), linear(0.7))
            assert_bitwise_equal(ends, reflected_ends(paths))
        # both kinds of end: reflected to 0, and above a running minimum
        assert (got[:, 1] == 0).any() and (got[:, 1] > 0).any()


def one_pair_union_counts(theta_a, theta_b, t, resolution, rng):
    """One pair of one-row covering grids (substreams 0 and 1) read on the
    union of their passage times up to t: (step, k) for each clock."""
    out = []
    for j, theta in enumerate((theta_a, theta_b)):
        step = resolution * t**theta
        out.append((step, np.append(0.0, processes._level_walks(theta, step, t, rng.substream(j), 1)[1])))
    ev = np.union1d(out[0][1][:-1], out[1][1][:-1])
    if ev[-1] < t:
        ev = np.append(ev, t)
    return [(step, np.searchsorted(levels, ev, side="right") - 1) for step, levels in out]


def test_compensated_queue_end_matches_full_sort():
    # bit for bit against the union grid, with Poisson(rate step) counts per
    # level; then in law against each stream's positions over [0, Y(horizon)]
    # on one-row grids, counted by comparing every position with every grid
    # value
    def compensated(rng, rate):
        walk = level_walk(rng, lambda g, step, m: g.poisson(rate * step, m))
        return lambda step, counts: [w - rate * (step * np.arange(w.size))
                                     for w in walk(step, counts)]

    for seed, (alpha, beta, horizon) in enumerate(TWO_CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._walk_ends(alpha, 2.0, beta, 1.5, horizon, RES, rng, 40)
        paths = union_grid_paths(alpha, beta, horizon, rng, 40,
                                 compensated(rng.substream(2), 2.0),
                                 compensated(rng.substream(3), 1.5))
        assert_bitwise_equal(got, reflected_ends(paths))
    alpha, beta, horizon = TWO_CLOCK_CASES[1]
    n = 3000
    got = limitlab._walk_ends(alpha, 2.0, beta, 1.5, horizon, 0.1, RngStream(seed=7), n)
    ref = []
    for r in range(n):
        sub = RngStream(seed=8).substream(r)
        (step_a, ka), (step_b, kb) = one_pair_union_counts(alpha, beta, horizon, 0.1, sub)
        ya, yb = step_a * ka, step_b * kb
        ga, gb = sub.substream(2).generator(), sub.substream(3).generator()
        arr_pos = ga.random(ga.poisson(2.0 * ya[-1])) * ya[-1]
        dep_pos = gb.random(gb.poisson(1.5 * yb[-1])) * yb[-1]
        path = ((arr_pos <= ya[:, None]).sum(axis=1) - 2.0 * ya) - (
            (dep_pos <= yb[:, None]).sum(axis=1) - 1.5 * yb)
        ref.append(_reflect(path)[-1])
    assert ks_two_sample(got, np.array(ref))[1] > 1e-3


def test_clock_extremes_match_union_grid_min_and_max():
    for seed, (theta, _, t) in enumerate(TWO_CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._clock_extremes(theta, 2.5, RES, t, rng, 40)
        paths = union_grid_paths(theta, theta, t, rng, 40, linear(1.0), linear(2.5))
        assert_bitwise_equal(got[:, 0], np.array([path.min() for path in paths]))
        assert_bitwise_equal(got[:, 1], np.array([path.max() for path in paths]))


def test_clock_pair_counts_a_tied_level_as_passed(monkeypatch):
    # both clocks on the same level rows (1.0 the horizon): at a passage of
    # level k + 1 the other clock has passed its own level k + 1 too
    count = np.array([2, 0, 3])
    levels = np.array([0.2, 0.7, 1.5, 1.2, 0.1, 0.4, 0.9, 3.0])
    monkeypatch.setattr(limitlab, "_level_walks", lambda *args: (count, levels))
    a, b = limitlab._clock_pair(0.6, 0.6, 1.0, RES, RngStream(seed=0), 3)
    for clock in (a, b):
        np.testing.assert_array_equal(clock.off, [0, 3, 4, 8])
        np.testing.assert_array_equal(clock.k, [0, 1, 2, 0, 0, 1, 2, 3])
        np.testing.assert_array_equal(clock.other, [1, 2, 0, 3, 5, 6, 7, 4])
    low, high = limitlab._path_extremes(a, a.step * a.k, b, b.step * b.k)[1:]
    assert not low.any() and not high.any()


def test_balanced_queue_scaling_aggregate_oracle_is_the_two_sided_law(tmp_path):
    # both balanced oracles read one sample of clock pairs from substream 1,
    # in chunks of _pair_rows replicas, chunk c from its substream c; the
    # aggregate is column 0 of _reflected_ends, the two-sided monotone law,
    # rounded onto the observable's lattice k / u^gamma
    rng, n, probs = RngStream(seed=3), 40, ClassProbabilities(np.array([0.5, 0.5]))
    chunk = limitlab._pair_rows(0.6, 0.6, 1.0, DEFAULT_RESOLUTION)
    assert chunk == limitlab._PAIR_STEPS // (int(1.0 / (DEFAULT_RESOLUTION * math.gamma(1.6))) + 1)
    coefs = tuple(1.1**0.6 * probs.head_sum(h) for h in (2, 1))
    sizes = [min(chunk, n - lo) for lo in range(0, n, chunk)]
    assert len(sizes) == 3
    oracle = np.concatenate([
        limitlab._reflected_ends(0.6, coefs, 0.6, 1.0, 1.0, DEFAULT_RESOLUTION,
                                 rng.substream(1).substream(c), m)[:, 0]
        for c, m in enumerate(sizes)])
    oracle = np.round(oracle * 50.0**0.6) / 50.0**0.6
    want = str(tmp_path / "want.csv")
    limitlab._write_ecdf(want, oracle)
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        limitlab.verify_queue_scaling(0.6, 0.6, 1.1, 1.0, probs, i=2, t=1.0, u=50.0, replicas=n,
                                      rng=rng, out_dir=str(out), jobs=jobs, verbose=False)
        got = out / "queue_scaling_oracle_ecdf.csv"
        assert got.read_bytes() == Path(want).read_bytes()


def test_arrivals_queue_scaling_oracle_is_the_exact_clock_on_the_lattice(tmp_path):
    # lam^alpha P_i Y_alpha(t), Y from substream 1 in one draw, rounded onto
    # the observable's lattice k / u^alpha, whatever jobs is
    rng, n, probs = RngStream(seed=6), 40, ClassProbabilities(np.array([0.3, 0.7]))
    y = sample_inverse_subordinator_at(0.9, 1.0, rng.substream(1), n)
    oracle = np.round(1.2**0.9 * probs.head_sum(1) * y * 1e3**0.9) / 1e3**0.9
    want = str(tmp_path / "want.csv")
    limitlab._write_ecdf(want, oracle)
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        limitlab.verify_queue_scaling(0.9, 0.3, 1.2, 1.0, probs, i=1, t=1.0, u=1e3, replicas=n,
                                      rng=rng, out_dir=str(out), jobs=jobs, verbose=False)
        got = out / "queue_scaling_oracle_ecdf.csv"
        assert got.read_bytes() == Path(want).read_bytes()


def test_queue_scaling_oracle_lives_on_the_observable_lattice(tmp_path):
    # Q(ut) / u^gamma is a count over u^gamma (spacing 0.096 at u = 50), and
    # so is each oracle value the KS tests and the ECDF artifact see
    probs = ClassProbabilities(np.array([0.5, 0.5]))
    limitlab.verify_queue_scaling(0.6, 0.6, 1.1, 1.0, probs, i=2, t=1.0, u=50.0, replicas=40,
                                  rng=RngStream(seed=5), out_dir=str(tmp_path), verbose=False)
    x = np.loadtxt(tmp_path / "queue_scaling_oracle_ecdf.csv", delimiter=",", skiprows=1)[:, 0]
    k = x * 50.0**0.6
    assert (k > 0.5).any()  # not every draw reflected to 0
    np.testing.assert_allclose(k, np.round(k), rtol=0.0, atol=1e-9)


# each experiment's report parameters: its arguments less the run settings,
# probs recorded as p and locations as location_kind
PARAMETER_KEYS = {
    "pmf-agreement": ["lam", "t", "theta"],
    "thinning-covariance": ["alpha", "lam", "p", "t"],
    "lln": ["lam", "p", "t", "theta", "u"],
    "fclt": ["lam", "p", "t", "theta", "u"],
    "queue-scaling": ["alpha", "beta", "i", "lam", "mu", "p", "t", "u"],
    "centered-queue-clt": ["alpha", "beta", "i", "lam", "mu", "p", "t", "u"],
    "recurrence": ["alpha", "horizons", "lam", "mu"],
    "oscillation": ["c", "horizons", "theta"],
    "best-ask": ["alpha", "beta", "eps_values", "lam", "location_kind", "mu", "t_values"],
}


def test_report_parameters_are_the_experiment_point_without_run_settings():
    # every battery entry, so every regime and branch (queue scaling's
    # services-dominated mean window, lln's theta = 1 RMS window) reports
    seen = set()
    for _, run in limitlab.battery(0, scale=0.01):
        report = run(None).to_dict()
        assert sorted(report["parameters"]) == PARAMETER_KEYS[report["name"]], report["name"]
        seen.add(report["name"])
    assert seen == set(PARAMETER_KEYS)


def test_battery_keys_streams_by_offset_and_scales_replicas():
    runners = dict(limitlab.battery(3, 0.001, 1))
    assert list(runners) == list(limitlab.BATTERY)
    pmf = runners["pmf_theta_0.7"](None)
    cov = runners["covariance"](None)
    assert (pmf.seed, pmf.replicas) == (3, 100)
    assert (cov.seed, cov.replicas) == (5, 1000)
