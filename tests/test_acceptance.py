"""End-to-end acceptance gate.

Thirteen numbered criteria cover the full pipeline: special functions, pmf
normalization, sampler goodness of fit, dual process constructions, thinning
laws, the reflection-map oracle, the scaling limits, recurrence and
oscillation proxies, best-ask convergence, and byte-level determinism.  Each
test prints one [PASS]/[FAIL] line on the real stdout so the gate is readable
straight off the pytest log.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as Gamma

from fracq import (
    ClassProbabilities,
    LimitLawSampler,
    RngStream,
    StepFunction,
    aggregate_lengths,
    fpp_pmf_table,
    limitlab,
    mittag_leffler,
    simulate_fpp_renewal,
    simulate_multiclass_queue,
    thin_events,
)
from fracq.cli import main as cli_main
from fracq.gof import chi_square_counts, ks_one_sample, ks_two_sample
from fracq.processes import renewal_counts, timechange_counts
from fracq.samplers import sample_mittag_leffler, sample_mittag_leffler_trig
from fracq.special import FppParams, MlIndex, ml_cdf

P_MIN = 1e-3
Z_MAX = 4.0

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _remember_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num}: {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_criterion_01_special_function_identities():
    z = np.linspace(-10.0, 10.0, 81)
    rel = np.max(np.abs(mittag_leffler(MlIndex(1.0), z) - np.exp(z)) / np.exp(z))
    half = float(mittag_leffler(MlIndex(0.5), -1.0))
    target = 0.427583576155807  # e * erfc(1)
    err_half = abs(half - target)
    ok = rel <= 1e-10 and err_half <= 1e-8
    report(1, ok, f"exp identity rel={rel:.3g}, E_1/2(-1) err={err_half:.3g}")
    assert ok


def test_criterion_02_pmf_normalization():
    worst_sum, worst_poisson = 0.0, 0.0
    for theta in (0.5, 0.8, 1.0):
        for lam in (1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                p = FppParams(theta, lam)
                table = fpp_pmf_table(p, t, cum_tol=1e-9)
                worst_sum = max(worst_sum, abs(float(table.sum()) - 1.0))
                if theta == 1.0:
                    ref = stats.poisson.pmf(np.arange(table.size), lam * t)
                    worst_poisson = max(
                        worst_poisson, float(np.max(np.abs(table - ref) / ref))
                    )
    ok = worst_sum <= 1e-8 and worst_poisson <= 1e-12
    report(2, ok, f"|sum-1| max={worst_sum:.3g}, Poisson rel max={worst_poisson:.3g}")
    assert ok


def test_criterion_03_sampler_gof():
    n = 100_000
    p_vals = []
    for k, theta in enumerate((0.3, 0.5, 0.8)):
        params = FppParams(theta, 1.0)
        draws = sample_mittag_leffler(params, RngStream(seed=100 + k), size=n)
        _, p = ks_one_sample(draws, lambda x, params=params: ml_cdf(params, x))
        p_vals.append(p)
    a = sample_mittag_leffler(FppParams(0.65, 1.0), RngStream(seed=110), size=n)
    b = sample_mittag_leffler_trig(FppParams(0.65, 1.0), RngStream(seed=111), size=n)
    _, p_cross = ks_two_sample(a, b)
    p_vals.append(p_cross)
    ok = min(p_vals) > P_MIN
    report(3, ok, f"min KS p={min(p_vals):.4g} over three indices plus sampler cross-check")
    assert ok


def test_criterion_04_construction_equivalence():
    n = 100_000
    worst_ks, worst_chi = 1.0, 1.0
    seed = 120
    for theta in (0.5, 0.8):
        for t in (0.5, 1.0, 2.0):
            p = FppParams(theta, 1.0)
            ren = renewal_counts(p, t, n, RngStream(seed=seed))
            tch = timechange_counts(p, t, n, RngStream(seed=seed + 1))
            seed += 2
            _, p_ks = ks_two_sample(ren, tch)
            _, p_chi, _ = chi_square_counts(ren, fpp_pmf_table(p, t, cum_tol=1e-10))
            worst_ks = min(worst_ks, p_ks)
            worst_chi = min(worst_chi, p_chi)
    ok = worst_ks > P_MIN and worst_chi > P_MIN
    report(4, ok, f"min cross KS p={worst_ks:.4g}, min chi2 p={worst_chi:.4g}")
    assert ok


def test_criterion_05_thinning_laws():
    alpha, lam, t = 0.7, 1.0, 1.0
    # per-class and aggregated marginals: thinned counts are again fractional
    # Poisson with rate lam * p^(1/alpha)
    n = 200_000
    probs3 = np.array([0.2, 0.3, 0.5])
    total = renewal_counts(FppParams(alpha, lam), t, n, RngStream(seed=130))
    split = RngStream(seed=131).generator().multinomial(total, probs3)
    p_vals = []
    for i in range(3):
        table = fpp_pmf_table(FppParams(alpha, lam * probs3[i] ** (1.0 / alpha)), t)
        _, p, _ = chi_square_counts(split[:, i], table)
        p_vals.append(p)
    for ell, head in ((2, 0.5), (3, 1.0)):
        agg = split[:, :ell].sum(axis=1)
        table = fpp_pmf_table(FppParams(alpha, lam * head ** (1.0 / alpha)), t)
        _, p, _ = chi_square_counts(agg, table)
        p_vals.append(p)

    # covariance of a two-class split against the closed form
    target = 0.21 * (2.0 / Gamma(2.4) - 1.0 / Gamma(1.7) ** 2)
    total2 = renewal_counts(FppParams(alpha, lam), t, 1_000_000, RngStream(seed=132))
    split2 = RngStream(seed=133).generator().multinomial(total2, [0.3, 0.7]).astype(float)
    c = split2 - split2.mean(axis=0)
    prod = c[:, 0] * c[:, 1]
    z_cov = (prod.mean() - target) / (prod.std(ddof=1) / math.sqrt(prod.size))

    # at alpha = 1 the shared clock is deterministic and classes decouple
    total1 = renewal_counts(FppParams(1.0, lam), t, 1_000_000, RngStream(seed=134))
    split1 = RngStream(seed=135).generator().multinomial(total1, [0.3, 0.7]).astype(float)
    c1 = split1 - split1.mean(axis=0)
    prod1 = c1[:, 0] * c1[:, 1]
    z_ind = prod1.mean() / (prod1.std(ddof=1) / math.sqrt(prod1.size))

    ok = min(p_vals) > P_MIN and abs(z_cov) < Z_MAX and abs(z_ind) < Z_MAX
    report(
        5,
        ok,
        f"min marginal chi2 p={min(p_vals):.4g}, cov z={z_cov:.2f} "
        f"(target {target:.6f}), alpha=1 z={z_ind:.2f}",
    )
    assert ok


def _head_reflection_oracle(arr_times, labels, dep_times, upto) -> StepFunction:
    """Reflection of the class-(<= upto) netflow, computed in one vector pass
    independently of the event loop."""
    keep = arr_times[labels <= upto]
    times = np.concatenate([keep, dep_times])
    kinds = np.concatenate(
        [np.zeros(keep.size, dtype=np.int8), np.ones(dep_times.size, dtype=np.int8)]
    )
    order = np.lexsort((kinds, times))
    t_sorted = times[order]
    netflow = np.cumsum(np.where(kinds[order] == 0, 1, -1))
    q = netflow - np.minimum(np.minimum.accumulate(netflow), 0)
    last = np.flatnonzero(np.concatenate([np.diff(t_sorted) > 0, [True]]))
    return StepFunction(t_sorted[last], q[last].astype(float))


def test_criterion_06_reflection_oracle_equivalence():
    horizon = 100.0
    alphas = (0.6, 0.8, 1.0, 0.7)
    betas = (0.5, 0.9, 1.0, 0.7, 0.6)
    lams = (0.8, 1.6, 2.4)
    mus = (1.2, 0.9, 2.0)
    prob_sets = ([1.0], [0.4, 0.6], [0.2, 0.3, 0.5])
    checked = 0
    for r in range(100):
        rng = RngStream(seed=1000 + r)
        alpha, beta = alphas[r % 4], betas[r % 5]
        lam, mu = lams[r % 3], mus[(r + 1) % 3]
        probs = ClassProbabilities(np.array(prob_sets[r % 3]))
        arrivals = thin_events(
            simulate_fpp_renewal(FppParams(alpha, lam), horizon, rng.substream(0)),
            probs,
            rng.substream(1),
        )
        departures = simulate_fpp_renewal(FppParams(beta, mu), horizon, rng.substream(2))
        traj = simulate_multiclass_queue(arrivals, departures, n_classes=probs.n_classes)
        grid = np.unique(traj.event_times)
        for i in range(1, probs.n_classes + 1):
            oracle = _head_reflection_oracle(
                arrivals.times, arrivals.labels, departures.times, i
            )
            np.testing.assert_array_equal(aggregate_lengths(traj, i)(grid), oracle(grid))
            checked += 1
    report(6, True, f"exact equality on 100 runs ({checked} aggregate paths)")


def battery_point(name: str, seed: int):
    """One point of the verification battery at its base replica count."""
    _, verify, kw = limitlab.BATTERY[name]
    return verify(rng=RngStream(seed=seed), verbose=False, **kw)


def test_criterion_07_lln_and_fclt():
    stats_seen = []
    ok = True
    for theta in ("0.7", "1.0"):
        r_lln = battery_point(f"lln_theta_{theta}", 0)
        r_fclt = battery_point(f"fclt_theta_{theta}", 0)
        ok = ok and r_lln.verdict and r_fclt.verdict
        stats_seen.append(f"theta={theta}: lln={r_lln.statistic:.3g} fclt={r_fclt.statistic:.3g}")
    report(7, ok, "; ".join(stats_seen))
    assert ok


def test_criterion_08_queue_scaling_regimes():
    r_arr = battery_point("queue_scaling_arrivals", 1)
    r_srv = battery_point("queue_scaling_services", 0)
    r_bal = battery_point("queue_scaling_balanced", 0)
    ok = r_arr.verdict and r_srv.verdict and r_bal.verdict
    report(
        8,
        ok,
        f"arrivals p={r_arr.statistic:.4g}, services mean={r_srv.statistic:.4g}, "
        f"balanced p={r_bal.statistic:.4g}",
    )
    assert ok


def test_criterion_09_centered_queue_clt_regimes():
    outcomes = {
        label: battery_point(f"centered_clt_{label}", 0)
        for label in ("arrivals", "services", "balanced")
    }
    ok = all(r.verdict for r in outcomes.values())
    report(9, ok, ", ".join(f"{k} p={r.statistic:.4g}" for k, r in outcomes.items()))
    assert ok


def test_criterion_10_recurrence_proxy():
    r = battery_point("recurrence", 0)
    report(
        10,
        r.verdict,
        f"median emptyings {r.details['median_emptyings']}, "
        f"median running max {r.details['median_running_max']}",
    )
    assert r.verdict


def test_criterion_11_oscillation_proxy():
    outcomes = []
    ok = True
    for name in ("oscillation_c_1", "oscillation_c_4"):
        r = battery_point(name, 0)
        ok = ok and r.verdict
        outcomes.append(f"(theta={r.parameters['theta']}, c={r.parameters['c']}) "
                        f"margin={r.statistic:.3g}")
    report(11, ok, "; ".join(outcomes))
    assert ok


def test_criterion_12_best_ask_convergence():
    r = battery_point("best_ask", 0)
    exc = r.details["exceedance"]["0.1"]
    mass = r.details["near_mass_freq"]["0.1"]
    report(12, r.verdict, f"exceedance ladder {exc}, near-mass ladder {mass}")
    assert r.verdict


def test_criterion_13_determinism(tmp_path):
    mismatches = []

    # sampler draws, bit for bit
    s = LimitLawSampler(1.0, 0.7, 1.3)
    if not np.array_equal(s.sample(RngStream(seed=7), 5000), s.sample(RngStream(seed=7), 5000)):
        mismatches.append("limit-law draws")

    # experiment reports, field for field
    kw = dict(theta=0.5, c=1.0, horizons=(5.0, 50.0), replicas=40, verbose=False)
    a = limitlab.verify_oscillation(rng=RngStream(seed=3), **kw)
    b = limitlab.verify_oscillation(rng=RngStream(seed=3), **kw)
    if a.to_dict() != b.to_dict():
        mismatches.append("oscillation report")

    # command-line artifacts, byte for byte
    for name, args in (
        ("samples.csv", ["sample", "ml", "--theta", "0.6", "--replicas", "2000", "--seed", "5"]),
        ("timeline.csv", ["fpp", "renewal", "--theta", "0.8", "--lambda", "2.0",
                          "--horizon", "50.0", "--p", "0.3,0.7", "--seed", "5"]),
        ("trajectory.csv", ["queue", "--alpha", "0.8", "--beta", "0.6", "--lambda", "2.0",
                            "--mu", "1.5", "--p", "0.5,0.5", "--horizon", "50.0", "--seed", "5"]),
    ):
        payload = []
        for sub in ("a", "b"):
            out = tmp_path / name.replace(".", "_") / sub
            assert cli_main(args + ["--out", str(out)]) == 0
            payload.append((out / name).read_bytes())
        if payload[0] != payload[1]:
            mismatches.append(name)

    ok = not mismatches
    report(13, ok, "reruns byte-identical" if ok else f"mismatches: {mismatches}")
    assert ok
