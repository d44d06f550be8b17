"""Limit-law samplers and the report plumbing around the verification
experiments.  Heavy experiment settings live in the acceptance suite; here we
exercise exact reductions, closed forms, and small smoke runs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from fracq import (
    ClassProbabilities,
    DomainError,
    ExperimentReport,
    LimitLawSampler,
    LocationSampler,
    ParameterError,
    RngStream,
)
from fracq import limitlab
from fracq.gof import ks_two_sample
from fracq.limitlab import map_replicas
from fracq.queueing import _reflect
from fracq.special import inverse_subordinator_moments

PROBS2 = ClassProbabilities(np.array([0.6, 0.4]))


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
    def fn(sub):
        return sub.generator().random(3)

    serial = map_replicas(fn, RngStream(seed=4), 50, jobs=1)
    assert serial.shape == (50, 3)
    np.testing.assert_array_equal(serial, map_replicas(fn, RngStream(seed=4), 50, jobs=8))
    # replica r draws from substream r
    np.testing.assert_array_equal(serial[7], RngStream(seed=4).substream(7).generator().random(3))
    with pytest.raises(ParameterError):
        map_replicas(fn, RngStream(seed=4), 0)


# limit-law samplers: validation


def test_limit_law_sampler_validation():
    with pytest.raises(ParameterError):
        LimitLawSampler(kind="nope", t=1.0, theta_a=0.5, coef_a=1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler.inverse_clock(0.5, 1.0, t=0.0)
    with pytest.raises(ParameterError):
        LimitLawSampler.inverse_clock(1.5, 1.0, t=1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler.inverse_clock(0.5, -1.0, t=1.0)
    with pytest.raises(ParameterError):
        LimitLawSampler.reflected_difference(0.5, 1.0, 0.5, 1.0, t=1.0, resolution=0.0)
    with pytest.raises(ParameterError):
        LimitLawSampler.inverse_clock(0.5, 1.0, t=1.0).sample(RngStream(seed=0), -1)
    with pytest.raises(ParameterError):
        LimitLawSampler.reflected_difference(0.5, 1.0, 0.5, 1.0, t=1.0).sample(RngStream(seed=0), 0)
    # non-finite input would sample NaN or never finish a passage grid
    nan, inf = float("nan"), float("inf")
    for bad in (
        lambda: LimitLawSampler.inverse_clock(0.5, nan, 1.0),
        lambda: LimitLawSampler.inverse_clock(0.5, 1.0, t=nan),
        lambda: LimitLawSampler.brownian_time_changed(0.5, 1.0, t=inf),
        lambda: LimitLawSampler.reflected_difference(0.5, 1.0, 0.5, nan, t=1.0),
        lambda: LimitLawSampler.reflected_difference(0.5, 1.0, 0.5, 1.0, t=1.0, resolution=inf),
        lambda: LimitLawSampler.reflected_brownian_difference(0.5, 1.0, t=1.0, resolution=nan),
    ):
        with pytest.raises(ParameterError):
            bad()


def test_closed_form_quantile_domain():
    s = LimitLawSampler.inverse_clock(0.5, 1.0, t=1.0)
    with pytest.raises(DomainError):
        s.closed_form_quantile(0.5)
    s1 = LimitLawSampler.inverse_clock(1.0, 2.0, t=3.0)
    with pytest.raises(ParameterError):
        s1.closed_form_quantile(0.0)
    with pytest.raises(ParameterError):
        s1.closed_form_quantile(1.0)


# limit-law samplers: degenerate clocks (theta = 1)


def test_inverse_clock_at_one_is_deterministic():
    s = LimitLawSampler.inverse_clock(1.0, 2.5, t=3.0)
    draws = s.sample(RngStream(seed=1), 100)
    np.testing.assert_array_equal(draws, np.full(100, 7.5))
    assert s.closed_form_quantile(0.3) == 7.5
    np.testing.assert_allclose(s.closed_form_quantile(np.array([0.1, 0.9])), [7.5, 7.5])


def test_reflected_difference_at_one_matches_drift():
    # deterministic clocks: the reflected difference is the positive-part drift,
    # up to the passage-grid rounding of each clock
    for ca, cb in ((2.0, 0.5), (0.5, 2.0)):
        s = LimitLawSampler.reflected_difference(1.0, ca, 1.0, cb, t=2.0, resolution=1e-3)
        draws = s.sample(RngStream(seed=2), 4)
        target = max(ca - cb, 0.0) * 2.0
        assert s.closed_form_quantile(0.5) == target
        np.testing.assert_allclose(draws, target, atol=3.0 * 1e-3 * 2.0 * (ca + cb))


def test_brownian_time_changed_at_one_is_gaussian():
    v, t = 1.7, 2.0
    s = LimitLawSampler.brownian_time_changed(1.0, v, t)
    draws = s.sample(RngStream(seed=3), 20_000)
    res = stats.kstest(draws, stats.norm(scale=math.sqrt(v * t)).cdf)
    assert res.pvalue > 1e-3
    q = s.closed_form_quantile(np.array([0.1, 0.5, 0.975]))
    np.testing.assert_allclose(q, stats.norm.ppf([0.1, 0.5, 0.975], scale=math.sqrt(v * t)))


def test_reflected_brownian_difference_at_one_is_folded_gaussian():
    va, vb, t = 1.0, 0.5, 1.0
    s = LimitLawSampler.reflected_brownian_difference(1.0, va, 1.0, vb, t=t, resolution=1e-3)
    draws = s.sample(RngStream(seed=4), 400)
    scale = math.sqrt((va + vb) * t)
    res = stats.kstest(draws, lambda x: 2.0 * stats.norm.cdf(x / scale) - 1.0)
    assert res.pvalue > 1e-3
    med = s.closed_form_quantile(0.5)
    assert math.isclose(med, scale * stats.norm.ppf(0.75))


def test_closed_form_gaussian_quantiles_match_scipy_norm_bitwise():
    q = np.concatenate([[1e-300, 1e-16, 1e-10, 1.0 - 1e-10, 1.0 - 1e-16],
                        np.linspace(0.0, 1.0, 1001)[1:-1]])
    for va, vb, t in ((1.7, 0.0, 2.0), (1.0, 0.5, 1.0), (0.3, 2.2, 7.0)):
        s = LimitLawSampler.brownian_time_changed(1.0, va, t)
        ref = stats.norm.ppf(q, scale=math.sqrt(va * t))
        np.testing.assert_array_equal(s.closed_form_quantile(q).view(np.uint64),
                                      ref.view(np.uint64))
        assert [s.closed_form_quantile(float(q[k])) for k in (0, 4, 505)] == list(ref[[0, 4, 505]])
        s = LimitLawSampler.reflected_brownian_difference(1.0, va, 1.0, vb, t=t)
        scale = math.sqrt((va + vb) * t)
        ref = scale * stats.norm.ppf((1.0 + q) / 2.0)
        np.testing.assert_array_equal(s.closed_form_quantile(q).view(np.uint64),
                                      ref.view(np.uint64))


# limit-law samplers: fractional clocks


def test_inverse_clock_scale_enters_laplace_transform():
    from fracq import mittag_leffler
    from fracq.special import MlIndex

    theta, coef, t = 0.6, 2.0, 1.5
    draws = LimitLawSampler.inverse_clock(theta, coef, t).sample(RngStream(seed=5), 60_000)
    target = mittag_leffler(MlIndex(theta), -coef * t**theta)
    obs = np.exp(-draws)
    z = (obs.mean() - target) / (obs.std(ddof=1) / math.sqrt(obs.size))
    assert abs(z) < 4.0


def test_brownian_time_changed_moments():
    theta, v, t = 0.7, 1.3, 2.0
    draws = LimitLawSampler.brownian_time_changed(theta, v, t).sample(RngStream(seed=6), 60_000)
    mean_y, var_y = inverse_subordinator_moments(theta, t)
    for power, target in ((2, v * mean_y), (4, 3.0 * v**2 * (var_y + mean_y**2))):
        x = draws**power
        z = (x.mean() - target) / (x.std(ddof=1) / math.sqrt(x.size))
        assert abs(z) < 4.0


def test_one_sided_reflections_reduce_to_exact_samplers():
    # with no subtracted stream the reflection is the path itself (monotone) or
    # the absolute value (Brownian); both reduce to exact single-time samplers
    t = 1.0
    clock = LimitLawSampler.inverse_clock(0.7, 1.4, t).sample(RngStream(seed=7), 500)
    refl = LimitLawSampler.reflected_difference(0.7, 1.4, 0.9, 0.0, t).sample(
        RngStream(seed=7), 500
    )
    np.testing.assert_array_equal(clock, refl)

    bm = LimitLawSampler.brownian_time_changed(0.7, 1.4, t).sample(RngStream(seed=8), 500)
    rbm = LimitLawSampler.reflected_brownian_difference(0.7, 1.4, 1.0, 0.0, t).sample(
        RngStream(seed=8), 500
    )
    np.testing.assert_array_equal(np.abs(bm), rbm)


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


def test_verify_best_ask_survives_renewal_float_collisions():
    # a replica of this battery point draws two renewal partial sums that
    # collide in float64
    rep = limitlab.verify_best_ask(
        0.9, 0.5, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0),
        t_values=(10.0, 1e2, 1e3, 1e4), replicas=200,
        rng=RngStream(seed=40300), verbose=False,
    )
    assert len(rep.details["exceedance"]["0.1"]) == 4


def test_verify_validation_errors():
    with pytest.raises(ParameterError):
        limitlab.verify_recurrence(
            0.6, 1.0, 1.0, PROBS2, horizons=(10.0, 5.0, 20.0),
            replicas=5, rng=RngStream(seed=0), verbose=False,
        )
    with pytest.raises(ParameterError):
        limitlab.verify_recurrence(
            0.6, 1.0, 1.0, PROBS2, horizons=(10.0, 20.0),
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
            0.6, 1.0, 1.0, PROBS2, horizons=(10.0, 20.0, 40.0),
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
        0.6, 2.0, 1.0, ClassProbabilities(np.array([1.0])), horizons=(10.0, 100.0, 1000.0),
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


# limit-law paths that draw only what the union grid reads, against the
# versions that draw over every level of the covering grids


TWO_CLOCK_CASES = [(0.7, 0.6, 50.0), (0.5, 0.9, 3.0), (0.8, 0.8, 200.0)]


def test_brownian_difference_path_matches_full_draw():
    for seed, (theta_a, theta_b, t) in enumerate(TWO_CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._brownian_difference_path(theta_a, 1.5, theta_b, 0.7, t, 1e-2, rng)
        (step_a, ka, na), (step_b, kb, nb) = limitlab._two_clocks(theta_a, theta_b, t, 1e-2, rng)
        assert ka[-1] < na and kb[-1] < nb
        ga = rng.substream(2).generator()
        gb = rng.substream(3).generator()
        ba = np.concatenate([[0.0], np.cumsum(ga.normal(0.0, math.sqrt(step_a), na))])
        bb = np.concatenate([[0.0], np.cumsum(gb.normal(0.0, math.sqrt(step_b), nb))])
        expected = math.sqrt(1.5) * ba[ka] - math.sqrt(0.7) * bb[kb]
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_compensated_queue_end_matches_full_sort():
    for seed, (alpha, beta, horizon) in enumerate(TWO_CLOCK_CASES):
        rng = RngStream(seed=seed)
        got = limitlab._compensated_queue_end(alpha, beta, 2.0, 1.5, horizon, 1e-2, rng)
        (step_a, ka, na), (step_b, kb, nb) = limitlab._two_clocks(alpha, beta, horizon, 1e-2, rng)
        ga = rng.substream(2).generator()
        gb = rng.substream(3).generator()
        y_top_a, y_top_b = step_a * na, step_b * nb
        arr_pos = np.sort(ga.random(ga.poisson(2.0 * y_top_a)) * y_top_a)
        dep_pos = np.sort(gb.random(gb.poisson(1.5 * y_top_b)) * y_top_b)
        ya, yb = step_a * ka, step_b * kb
        path = (np.searchsorted(arr_pos, ya, side="right") - 2.0 * ya) - (
            np.searchsorted(dep_pos, yb, side="right") - 1.5 * yb
        )
        assert arr_pos[-1] > ya[-1] and dep_pos[-1] > yb[-1]
        assert got == _reflect(path)[-1]


def test_battery_keys_streams_by_offset_and_scales_replicas():
    runners = dict(limitlab.battery(3, 0.001, 1))
    assert list(runners) == list(limitlab.BATTERY)
    pmf = runners["pmf_theta_0.7"](None)
    cov = runners["covariance"](None)
    assert (pmf.seed, pmf.replicas) == (3, 100)
    assert (cov.seed, cov.replicas) == (5, 1000)
