"""Goodness-of-fit helpers, checked against hand-computed statistics."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chdtrc

from fracq import ParameterError, ecdf, ks_one_sample, ks_two_sample
from fracq.gof import _pool, chi_square_counts


def test_ecdf_by_hand():
    vals, probs = ecdf([3.0, 1.0, 3.0, 2.0])
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(probs, [0.25, 0.5, 1.0])
    with pytest.raises(ParameterError):
        ecdf([])


def test_ks_one_sample_uniform():
    rng = np.random.default_rng(7)
    x = rng.random(5000)
    stat, p = ks_one_sample(x, lambda t: np.clip(t, 0.0, 1.0))
    assert p > 1e-3
    _, p_bad = ks_one_sample(x**3, lambda t: np.clip(t, 0.0, 1.0))
    assert p_bad < 1e-10


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=400), rng.normal(size=600)
    stat, p = ks_two_sample(x, y)
    ref = stats.ks_2samp(x, y)
    assert math.isclose(stat, ref.statistic)
    assert math.isclose(p, ref.pvalue)


def test_ks_two_sample_of_few_tied_counts_keeps_scipy_p_without_warning():
    # at 7 counts with ties and D = 1/7 scipy's exact p-value rounds above 1
    # and it warns and falls back to the asymptotic one
    x, y = [1, 2, 3, 2, 3, 2, 2], [1, 3, 0, 2, 2, 3, 2]
    with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
        ref = stats.ks_2samp(np.asarray(x, float), np.asarray(y, float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ks_two_sample(x, y) == (ref.statistic, ref.pvalue)
        # fully separated counts take the exact branch: 2 / C(14, 7)
        stat, p = ks_two_sample([0] * 7, [1, 1, 2, 1, 2, 2, 1])
    assert stat == 1.0 and math.isclose(p, 2 / math.comb(14, 7)) and p < 5.9e-4
    assert ref.pvalue > 0.9999


def _scipy_ks_two_sample(x, y):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful",
                                RuntimeWarning)
        ref = stats.ks_2samp(np.asarray(x, float), np.asarray(y, float), method="auto")
    return float(ref.statistic), float(ref.pvalue)


def _ks_cases():
    rng = np.random.default_rng(11)
    for n in (1, 7, 20, 250, 2000, 10_000):
        yield f"continuous-{n}", rng.normal(size=n), rng.normal(0.05, 1.0, size=n)
        yield f"tied-{n}", rng.integers(0, 5, n), rng.integers(0, 5, n) + (rng.random(n) < 0.1)
    same = rng.normal(size=300)
    yield "identical", same, same
    yield "permuted-ties", np.repeat([0, 1, 2], 40), np.tile([2, 1, 0], 40)  # h = 0
    # scipy's exact value rounds above 1, so it falls back to the asymptotic one
    yield "exact-above-1", [1, 2, 3, 2, 3, 2, 2], [1, 3, 0, 2, 2, 3, 2]
    yield "unequal", rng.normal(size=300), rng.normal(size=200)
    yield "n-10001", rng.normal(size=10_001), rng.normal(0.05, 1.0, size=10_001)
    yield "nan", np.append(rng.normal(size=49), math.nan), rng.normal(size=50)


@pytest.mark.parametrize("name, x, y", [pytest.param(*case, id=case[0]) for case in _ks_cases()])
def test_ks_two_sample_is_scipys_bit_for_bit(name, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ks_two_sample(x, y)
    want = _scipy_ks_two_sample(x, y)
    if name == "nan":
        assert all(map(math.isnan, got + want))
    else:
        assert got == want
        assert all(type(v) is float for v in got)
    if name in ("identical", "permuted-ties"):
        assert got == (0.0, 1.0)


def test_chi_square_hand_case():
    # two equiprobable cells, observed 55/45: statistic (55-50)^2/50 * 2 = 1.0
    sample = np.concatenate([np.zeros(55, dtype=int), np.ones(45, dtype=int)])
    stat, p, dof = chi_square_counts(sample, [0.5, 0.5], min_expected=1.0)
    assert math.isclose(stat, 1.0)
    assert dof == 1
    assert math.isclose(p, stats.chi2.sf(1.0, 1))


def test_chi_square_pvalue_is_scipy_chi2_sf_bitwise():
    sample = np.repeat([0, 1], [50, 50])
    assert chi_square_counts(sample, [0.5, 0.5], min_expected=1.0) == (0.0, 1.0, 1)
    rng = np.random.default_rng(10)
    for mean in (0.5, 2.0, 6.0, 15.0):
        pmf = stats.poisson.pmf(np.arange(40), 1.05 * mean)
        for n in (50, 500, 5000):
            stat, p, dof = chi_square_counts(rng.poisson(mean, size=n), pmf)
            assert p == stats.chi2.sf(stat, dof)
    x = np.concatenate([[0.0, 1e-300], np.geomspace(1e-6, 1e3, 2000)])
    for dof in (1, 2, 3, 5, 10, 30, 100):
        np.testing.assert_array_equal(chdtrc(dof, x), stats.chi2.sf(x, dof))


def test_chi_square_exact_expected_is_zero():
    sample = np.repeat([0, 1, 2], [20, 30, 50])
    stat, _, _ = chi_square_counts(sample, [0.2, 0.3, 0.5], min_expected=1.0)
    assert stat < 1e-12  # only pmf roundoff


def test_chi_square_overflow_cell():
    # values beyond the pmf length land in the complementary-mass cell
    sample = np.repeat([0, 1, 5], [40, 40, 20])
    stat, _, dof = chi_square_counts(sample, [0.4, 0.4], min_expected=1.0)
    assert stat < 1e-12
    assert dof == 2


def test_chi_square_tail_pooling():
    # tiny tail probabilities get pooled, keeping every expected cell >= 5
    pmf = [0.4, 0.3, 0.2, 0.06, 0.02, 0.01]
    sample = np.repeat(np.arange(6), [40, 30, 20, 6, 2, 2])
    stat, _, dof = chi_square_counts(sample, pmf, min_expected=5.0)
    # expected 40, 30, 20, 6, 2, 1, 1: the last three pool into the 6 cell
    assert dof == 3
    assert stat < 1e-12


def _pool_by_list_pop(observed, expected, min_expected):
    """Reference pooling, one list.pop per pooled cell (quadratic in the cell
    count): the right tail into the cell before it, then each small
    interior cell into its right neighbor (the last into its left), while
    more than two cells remain."""
    obs_list, exp_list = list(observed), list(expected)
    while len(obs_list) > 2 and exp_list[-1] < min_expected:
        tail_e, tail_o = exp_list.pop(), obs_list.pop()
        exp_list[-1] += tail_e
        obs_list[-1] += tail_o
    i = 0
    while i < len(exp_list):
        if exp_list[i] < min_expected and len(exp_list) > 2:
            moved_e, moved_o = exp_list.pop(i), obs_list.pop(i)
            j = i if i < len(exp_list) else i - 1
            exp_list[j] += moved_e
            obs_list[j] += moved_o
        else:
            i += 1
    return np.asarray(obs_list), np.asarray(exp_list)


# pmf weights: mostly small next to a few large ones, so that runs of small
# interior cells form, and a small sample pools down to two cells; -0.0
# passes the pmf check, and pooling keeps the sign of a zero as it was
_WEIGHT = st.one_of(st.sampled_from([-0.0, 0.0, 1e-6, 1e-3, 0.01, 0.1]), st.floats(0.0, 1.0))


@given(st.lists(st.tuples(_WEIGHT, st.integers(0, 30)), min_size=1, max_size=80),
       st.integers(0, 30), st.floats(0.5, 1.0), st.sampled_from([1.0, 5.0, 20.0]))
@example([(0.3, 30)] + [(1e-3, 1)] * 40 + [(0.3, 30)] + [(1e-3, 0)] * 40 + [(0.3, 30)],
         5, 1.0, 5.0)  # two runs of 40 small interior cells
@example([(0.1, 2)] * 30, 1, 0.9, 20.0)  # every cell small: two cells remain
@example([(-0.0, 0), (1.0, 3)], 0, 1.0, 0.0)  # a -0.0 cell, kept: no pooling
@example([(1.0, 0), (5e-324, 0)], 1, 1.0, 1.0)  # a subnormal cell: statistic inf
@settings(max_examples=300, deadline=None)
def test_one_pass_pooling_matches_list_pop_pooling(cells, overflow, mass, min_expected):
    counts = [c for _, c in cells] + [overflow]
    weights = np.array([w for w, _ in cells])
    assume(sum(counts) > 0 and weights.sum() > 0)
    pmf = mass * weights / weights.sum()
    sample = np.repeat(np.arange(len(counts)), counts)
    observed = np.asarray(counts, dtype=float)
    expected = sample.size * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
    got, want = _pool(observed, expected, min_expected), _pool_by_list_pop(
        observed, expected, min_expected)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]  # bit for bit
    obs, exp = want
    if obs.size >= 2 and np.all(exp > 0):
        with np.errstate(over="ignore"):  # a subnormal expected count gives inf
            stat = float(((obs - exp) ** 2 / exp).sum())
        assert chi_square_counts(sample, pmf, min_expected) == (
            stat, float(chdtrc(obs.size - 1, stat)), obs.size - 1)
    else:
        with pytest.raises(ParameterError):
            chi_square_counts(sample, pmf, min_expected)


def test_chi_square_detects_wrong_pmf():
    rng = np.random.default_rng(9)
    sample = rng.poisson(3.0, size=20_000)
    good = stats.poisson.pmf(np.arange(30), 3.0)
    bad = stats.poisson.pmf(np.arange(30), 3.3)
    _, p_good, _ = chi_square_counts(sample, good)
    _, p_bad, _ = chi_square_counts(sample, bad)
    assert p_good > 1e-3
    assert p_bad < 1e-6


def test_chi_square_validation():
    with pytest.raises(ParameterError):
        chi_square_counts([], [0.5, 0.5])
    with pytest.raises(ParameterError):
        chi_square_counts([-1, 0], [0.5, 0.5])
    with pytest.raises(ParameterError):
        chi_square_counts([0, 1], [0.7, 0.7])
    with pytest.raises(ParameterError):
        chi_square_counts([0, 1], [])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            chi_square_counts([0, 1, 1, 0] * 10, [bad, 0.5])


def test_chi_square_rejects_a_non_integer_sample():
    # a float sample, whole-valued or not, would reach np.bincount's cast
    for sample in ([0.5, 1.2, 2.0, 0.0] * 10, np.zeros(40)):
        with pytest.raises(ParameterError, match="sample must be nonnegative integers"):
            chi_square_counts(sample, [0.3, 0.3, 0.3])


def test_chi_square_subnormal_expected_count_rejects_without_warning():
    # one observation in a cell expecting 5e-324 of one: the statistic
    # overflows to inf, which rejects outright
    assert chi_square_counts([1], [1.0, 5e-324], min_expected=1.0) == (math.inf, 0.0, 1)


def _last_line_of_fresh_run(script: str) -> str:
    """The last line a fresh interpreter prints running `script` on src/:
    this test session has imported scipy already."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_simulation_commands_do_not_load_scipy_stats(tmp_path):
    # scipy's special functions and stats about triple the start-up time of
    # `import fracq` and double its memory, and no simulation needs them:
    # only the pmf, the Mittag-Leffler functions and the tests of fit do
    last = _last_line_of_fresh_run(f"""
        import sys
        import fracq, fracq.cli
        runs = [
            ["queue", "--alpha", "0.8", "--beta", "0.7", "--lambda", "2", "--mu", "1.5",
             "--p", "0.5,0.5", "--horizon", "20"],
            ["fpp", "renewal", "--theta", "0.8", "--lambda", "2", "--horizon", "10",
             "--p", "0.3,0.7"],
            ["fpp", "timechange", "--theta", "0.6", "--lambda", "1", "--horizon", "5"],
            ["auction", "--alpha", "0.8", "--beta", "0.5", "--lambda", "2", "--mu", "1",
             "--locations", "uniform:1,2", "--horizon", "50"],
            ["sample", "stable", "--theta", "0.6", "--replicas", "200"],
        ]
        def scipy_loaded():
            return any(m.split(".")[0] == "scipy" for m in sys.modules)

        loaded = ["import fracq"] if scipy_loaded() else []
        for args in runs:
            assert fracq.cli.main([*args, "--seed", "1", "--out", {str(tmp_path)!r}]) == 0
            if not loaded and scipy_loaded():
                loaded.append(" ".join(args[:2]))
        print(loaded)
    """)
    assert last == "[]", f"scipy loaded by: {last}"


def test_verification_does_not_load_scipy_stats(tmp_path):
    # every two-sample KS that `fracq verify` and the battery run is of two
    # samples of one size n <= 10 000, whose exact p-value gof computes
    # itself: importing scipy.stats would add about 0.65 s and 46 MB.
    # scipy.special (the pmf, the chi-square p-value) may load.
    last = _last_line_of_fresh_run(f"""
        import sys
        import fracq.cli
        from fracq import limitlab
        runs = [
            ["scaling", "--alpha", "0.9", "--beta", "0.3", "--lambda", "1", "--mu", "1",
             "--u", "100"],
            ["centered-clt", "--alpha", "0.6", "--beta", "0.6", "--lambda", "1", "--mu", "1",
             "--u", "100"],
            ["lln", "--theta", "0.7", "--lambda", "1", "--p", "0.5,0.5"],
            ["fclt", "--theta", "0.7", "--lambda", "1", "--p", "0.5,0.5"],
        ]
        loaded = []
        for args in runs:
            argv = ["verify", *args, "--replicas", "40", "--seed", "1",
                    "--out", {str(tmp_path)!r}]
            assert fracq.cli.main(argv) == 0
            if not loaded and "scipy.stats" in sys.modules:
                loaded.append(args[0])
        for name, run in limitlab.battery(0, scale=0.02):
            assert run(None).verdict
            if not loaded and "scipy.stats" in sys.modules:
                loaded.append(name)
        print(loaded)
    """)
    assert last == "[]", f"scipy.stats loaded by: {last}"
