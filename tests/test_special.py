"""Mittag-Leffler evaluation and fractional Poisson distributions.

Reference values were generated once with mpmath at 50 significant digits
(series summed in exact rationals until the tail bound dropped below 1e-30)
and frozen here, so the suite never depends on mpmath at run time.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfcx, gamma as Gamma

from fracq import (
    DomainError,
    FppParams,
    MlIndex,
    ParameterError,
    SeriesConvergenceError,
    fpp_pmf,
    fpp_pmf_table,
    inverse_subordinator_moments,
    ml_cdf,
    mittag_leffler,
)
from fracq.special import _asymptotic_tail

# frozen mpmath references: (theta, x) -> E_theta(-x)
ML_ONE_REFS = {
    (0.3, 1.0): 0.45659440832969067,
    (0.3, 1.5): 0.35538165657360315,
    (0.3, 4.0): 0.16650174431551665,
    (0.3, 6.0): 0.11646113163059887,
    (0.7, 2.0): 0.21378672701529728,
    (0.7, 8.0): 0.046069992385362386,
    (0.7, 60.0): 0.0056462751668804214,
    (0.9, 3.0): 0.083888354033773262,
    (0.9, 12.0): 0.010275288049933645,
    (0.9, 80.0): 0.0013419549472801532,
    (0.5, 2.0): 0.25539567631050574,
    (0.5, 7.0): 0.079800054329152933,
    (0.3, 1000.0): 0.00076993246495257769,
    (0.7, 1000.0): 0.0003345414571740996,
    (0.9, 1000.0): 0.00010528835943209589,
}

E_HALF_NEG1 = 0.427583576155807

# (theta, lam, t, n) -> P(N(t) = n)
FPP_PMF_REFS = {
    (0.6, 1.3, 0.9, 0): 0.38667186965018886,
    (0.6, 1.3, 0.9, 1): 0.28044732362032158,
    (0.6, 1.3, 0.9, 2): 0.17007231922202034,
    (0.6, 1.3, 0.9, 3): 0.090030388321532093,
    (0.6, 1.3, 0.9, 4): 0.042712015686538738,
    (0.6, 1.3, 0.9, 5): 0.018485212681032013,
    (0.5, 2.0, 2.0, 0): 0.25539567631050574,
    (0.5, 2.0, 2.0, 1): 0.2135929237069792,
    (0.5, 2.0, 2.0, 2): 0.16721101041410619,
    (0.5, 2.0, 2.0, 3): 0.12368510211432802,
    (0.5, 2.0, 2.0, 4): 0.087051816599556328,
    (0.5, 2.0, 2.0, 5): 0.058613256823634712,
}

# (theta, x, n) -> P(N = n) at lam * t = x, stressing large arguments and
# large counts where the alternating series would lose all precision
FPP_PMF_LARGE_REFS = {
    (0.3, 2.5, 11): 0.00077383195387394276,
    (0.6, 11.7, 20): 0.0010212720907605256,
    (0.6, 65.0, 40): 0.0025085140967325771,
    (0.95, 30.0, 25): 0.054946684594712233,
    (0.5, 100.0, 3): 0.053737791280448501,
}


# frozen references


@pytest.mark.parametrize("theta,x", sorted(ML_ONE_REFS))
def test_ml_one_frozen(theta, x):
    val = mittag_leffler(MlIndex(theta), -x)
    assert math.isclose(val, ML_ONE_REFS[(theta, x)], rel_tol=1e-10)


# closed-form cross-checks (scipy routes, independent of the implementation)


@pytest.mark.parametrize("z", np.linspace(-10.0, 10.0, 21))
def test_exponential_reduction(z):
    assert math.isclose(mittag_leffler(MlIndex(1.0), z), math.exp(z), rel_tol=1e-12)


def test_exponential_reduction_outside_series_zone():
    assert math.isclose(mittag_leffler(MlIndex(1.0), -50.0), math.exp(-50.0), rel_tol=1e-12)
    assert math.isclose(mittag_leffler(MlIndex(1.0), 200.0), math.exp(200.0), rel_tol=1e-12)


def test_erfcx_identity_one():
    # E_{1/2}(-x) = exp(x^2) erfc(x)
    xs = np.linspace(0.05, 30.0, 40)
    vals = mittag_leffler(MlIndex(0.5), -xs)
    ref = erfcx(xs)
    np.testing.assert_allclose(vals, ref, rtol=1e-12)
    assert math.isclose(mittag_leffler(MlIndex(0.5), -1.0), E_HALF_NEG1, rel_tol=1e-12)


@pytest.mark.parametrize("theta", [0.3, 0.55, 0.8, 0.95])
def test_asymptotic_tail_cross_check(theta):
    # the truncated large-argument expansion is an independent route; its own
    # truncation error dominates at x = 200 and vanishes by x = 1e4
    for x, rtol in ((200.0, 1e-7), (1e3, 1e-10), (1e4, 1e-12), (1e6, 1e-12)):
        impl = mittag_leffler(MlIndex(theta), -x)
        tail = float(_asymptotic_tail(theta, np.array([x]), kmax=6)[0])
        assert math.isclose(impl, tail, rel_tol=rtol)


@pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
def test_complete_monotonicity_on_grid(theta):
    xs = np.concatenate([np.linspace(0.0, 20.0, 81), np.logspace(1.5, 6, 46)])
    vals = mittag_leffler(MlIndex(theta), -xs)
    assert vals[0] == 1.0
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_array_shape_and_scalar_type():
    z = np.array([[-1.0, -2.0], [-3.0, 0.5]])
    out = mittag_leffler(MlIndex(0.6), z)
    assert out.shape == z.shape
    assert isinstance(mittag_leffler(MlIndex(0.6), -1.0), float)


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.0])
def test_an_array_evaluates_as_its_raveled_values(theta):
    # arguments past the series zone at theta < 1, so both evaluators run
    g = np.random.default_rng(7)
    z, x = -g.exponential(20.0, (3, 4)), g.exponential(2.0, (3, 4))
    p = FppParams(theta, 1.3)
    for f, arg in ((lambda v: mittag_leffler(MlIndex(theta), v), z), (lambda v: ml_cdf(p, v), x)):
        got = f(arg)
        assert got.shape == arg.shape
        np.testing.assert_array_equal(got.ravel().view(np.int64), f(arg.ravel()).view(np.int64))
        scalar = f(float(arg[1, 2]))
        assert type(scalar) is float and scalar == got[1, 2]


# domain and parameter errors


def test_index_validation():
    with pytest.raises(ParameterError):
        MlIndex(0.0)
    with pytest.raises(ParameterError):
        MlIndex(1.2)
    with pytest.raises(ParameterError):
        FppParams(0.5, 0.0)
    with pytest.raises(ParameterError):
        FppParams(-0.1, 1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        mittag_leffler(MlIndex(0.99), -1e4)  # theta in (0.98, 1) large negative
    with pytest.raises(DomainError):
        mittag_leffler(MlIndex(0.5), np.inf)
    with pytest.raises(DomainError):
        mittag_leffler(MlIndex(0.5), 1e6)  # positive side overflows


@pytest.mark.parametrize("theta, z", [(0.1, 2.5), (1.0, 710.0)])
def test_overflowing_sum_raises_domain_error_without_warning(theta, z):
    # the running sum leaves the float range before any term does (theta =
    # 0.1), or exp does (theta = 1): a DomainError, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows double precision"):
            mittag_leffler(MlIndex(theta), z)


# fractional Poisson pmf


@pytest.mark.parametrize("theta,lam,t,n", sorted(FPP_PMF_REFS))
def test_fpp_pmf_frozen(theta, lam, t, n):
    val = fpp_pmf(FppParams(theta, lam), t, n)
    assert math.isclose(val, FPP_PMF_REFS[(theta, lam, t, n)], rel_tol=1e-10)


@pytest.mark.parametrize("theta,x,n", sorted(FPP_PMF_LARGE_REFS))
def test_fpp_pmf_frozen_large_arguments(theta, x, n):
    val = fpp_pmf(FppParams(theta, x), 1.0, n)
    assert math.isclose(val, FPP_PMF_LARGE_REFS[(theta, x, n)], rel_tol=1e-12)


def test_fpp_pmf_series_cross_check():
    # the alternating series is an independent route; its cancellation is
    # bounded in the small-argument, small-count corner tested here
    from fracq.special import _fpp_pmf_series

    for theta in (0.3, 0.6, 0.9):
        for x in (0.4, 1.0, 1.8):
            p = FppParams(theta, x)
            for n in range(7):
                a = fpp_pmf(p, 1.0, n)
                b = _fpp_pmf_series(theta, x, n)
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-14)


@pytest.mark.parametrize("lam,t", [(1.0, 1.0), (2.5, 0.7), (0.4, 6.0)])
def test_fpp_pmf_poisson_reduction(lam, t):
    p = FppParams(1.0, lam)
    for n in range(12):
        assert math.isclose(fpp_pmf(p, t, n), stats.poisson.pmf(n, lam * t), rel_tol=1e-11)


def test_fpp_pmf_zero_matches_waiting_time_survival():
    # P(N(t) = 0) equals the survival function of the first waiting time
    p = FppParams(0.7, 1.3)
    for t in (0.2, 1.0, 3.0):
        direct = fpp_pmf(p, t, 0)
        assert math.isclose(direct, 1.0 - ml_cdf(p, t), rel_tol=1e-10)
        assert math.isclose(direct, mittag_leffler(MlIndex(0.7), -((1.3 * t) ** 0.7)), rel_tol=1e-12)


def test_fpp_pmf_table_consistency():
    p = FppParams(0.6, 1.3)
    table = fpp_pmf_table(p, 0.9, cum_tol=1e-10)
    assert table.sum() <= 1.0 + 1e-12
    assert table.sum() >= 1.0 - 1e-10
    for n in range(min(len(table), 8)):
        assert math.isclose(table[n], fpp_pmf(p, 0.9, n), rel_tol=1e-9)
    longer = fpp_pmf_table(p, 9.0, cum_tol=1e-10)
    assert len(longer) > len(table)


def test_fpp_pmf_edge_cases():
    p = FppParams(0.6, 1.0)
    assert fpp_pmf(p, 0.0, 0) == 1.0
    assert fpp_pmf(p, 0.0, 3) == 0.0
    with pytest.raises(ParameterError):
        fpp_pmf(p, 1.0, -1)
    with pytest.raises(ParameterError):
        fpp_pmf(p, -1.0, 0)


# waiting-time distribution


@pytest.mark.parametrize("theta", [0.3, 0.6, 1.0])
def test_ml_cdf_monotone(theta):
    p = FppParams(theta, 1.0)
    # at theta = 1 the survival e^(-x) underflows past the increment grid by
    # x ~ 37, so stay below that; heavy tails keep increments representable
    hi = 1.4 if theta == 1.0 else 4.0
    xs = np.concatenate([[0.0], np.logspace(-3, hi, 60)])
    vals = np.array([ml_cdf(p, x) for x in xs])
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals < 1.0)


def test_ml_cdf_reaches_tail():
    # the theta = 0.3 tail is heavy: the cdf passes 0.99 only around x = 2e6
    assert ml_cdf(FppParams(0.3, 1.0), 1e7) >= 0.99
    assert ml_cdf(FppParams(0.6, 1.0), 1e4) >= 0.99
    assert ml_cdf(FppParams(1.0, 1.0), 10.0) >= 0.99


def test_ml_cdf_exponential_reduction():
    p = FppParams(1.0, 2.0)
    for x in (0.1, 1.0, 4.0):
        assert math.isclose(ml_cdf(p, x), 1.0 - math.exp(-2.0 * x), rel_tol=1e-12)


# inverse-clock moments


def test_infinite_or_huge_t_fails_within_a_second():
    # an infinite t made fpp_pmf 0.0, so the table ran its n_cap evaluations
    p = FppParams(0.7, 1.0)
    calls = [
        (ParameterError, lambda: fpp_pmf(p, math.inf, 3)),
        (ParameterError, lambda: fpp_pmf_table(p, math.inf)),
        (SeriesConvergenceError, lambda: fpp_pmf_table(p, 1e300)),
        (SeriesConvergenceError, lambda: fpp_pmf_table(FppParams(1.0, 2.0), 1e5, n_cap=1000)),
    ]
    for error, call in calls:
        start = time.perf_counter()
        with pytest.raises(error):
            call()
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cum_tol", [math.nan, 0.0, -1.0, 1.0, 2.0])
def test_pmf_table_rejects_cum_tol_outside_unit_interval(cum_tol):
    # before any pmf term: NaN, 0 and -1 ran the table to n_cap, and 1 or
    # more returned [P(N = 0)] alone
    with pytest.raises(ParameterError, match="cum_tol"):
        fpp_pmf_table(FppParams(0.7, 1.0), 1.0, cum_tol=cum_tol, n_cap=5)


def test_inverse_clock_moments_closed_form():
    for theta, t in ((0.5, 1.0), (0.5, 3.0), (0.7, 2.0), (0.3, 10.0)):
        mean, var = inverse_subordinator_moments(theta, t)
        assert math.isclose(mean, t**theta / Gamma(1.0 + theta), rel_tol=1e-12)
        expected_var = t ** (2 * theta) * (
            2.0 / Gamma(1.0 + 2 * theta) - 1.0 / Gamma(1.0 + theta) ** 2
        )
        assert math.isclose(var, expected_var, rel_tol=1e-12)
        assert var > 0.0


def test_inverse_clock_moments_degenerate():
    mean, var = inverse_subordinator_moments(1.0, 2.5)
    assert mean == 2.5
    assert var == 0.0
