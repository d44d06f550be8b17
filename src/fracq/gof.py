"""Goodness-of-fit utilities: empirical CDFs, Kolmogorov-Smirnov tests,
and a chi-square test with tail pooling for integer-valued samples.

scipy is imported inside the tests that use it, not with the module, so
importing fracq loads none of it.  The two-sample KS test of two samples of
one size n <= 10 000, the only kind the experiments run, needs no scipy at
all: its exact p-value is a short sum, computed here as scipy computes it.
`scipy.stats` loads only for the one-sample test and for other sizes."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError


def ecdf(sample) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and the empirical CDF evaluated at them."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ParameterError("empty sample")
    vals, counts = np.unique(x, return_counts=True)  # sorted
    return vals, np.cumsum(counts) / x.size


# the largest equal size at which scipy's method="auto" is exact
_EXACT_KS_MAX = 10_000


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample KS statistic and p-value, bit for bit those of
    `scipy.stats.ks_2samp(x, y, method="auto")`.

    Two samples of one size n <= 10 000 with no NaN are tested here: D is
    h / n, h the largest gap between the two samples' counts at or below a
    value, and the p-value is the exact one of Hodges' sum.  Every other
    input goes to scipy.  scipy's exact p-value gives up, with a
    RuntimeWarning, only where it rounds above 1 (small samples with ties and
    a small statistic); its asymptotic fallback is then itself close to 1, so
    the warning is silenced and the p-value kept."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n = x.size
    if x.ndim == 1 and x.shape == y.shape and 0 < n <= _EXACT_KS_MAX:
        both = np.concatenate([x, y])
        if not np.isnan(both).any():
            # scipy rounds its float D * n to this count gap h and reports h / n
            h = int(np.abs(np.searchsorted(x, both, side="right")
                           - np.searchsorted(y, both, side="right")).max())
            p = 1.0 if h == 0 else _prob_outside_square(n, h)
            if 0.0 <= p <= 1.0:
                return h / n, p
    from scipy import stats  # not at module level: it doubles fracq's start-up

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful",
                                RuntimeWarning)
        res = stats.ks_2samp(x, y, method="auto")
    return float(res.statistic), float(res.pvalue)


def _prob_outside_square(n: int, h: int) -> float:
    """P(D >= h / n) for two samples of size n, 0 < h <= n: Hodges' sum
    2 sum_{k >= 1} (-1)^(k+1) C(2n, n - k h) / C(2n, n) in scipy's Horner form
    2 A_0 (1 - A_1 (1 - A_2 (...))), A_k = C(2n, n - (k+1) h) / C(2n, n - k h)
    a product of h factors, innermost bracket first, so that no two terms
    cancel."""
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0
        for j in range(h):
            a = (n - k * h - j) * a / (n + k * h + j + 1)
        p = a * (1.0 - p)
    return 2 * p


def ks_one_sample(x, cdf) -> tuple[float, float]:
    """One-sample KS test of `x` against a vectorized CDF callable."""
    from scipy import stats  # not at module level: it doubles fracq's start-up

    res = stats.kstest(np.asarray(x, dtype=float), cdf)
    return float(res.statistic), float(res.pvalue)


def _pool(observed, expected, min_expected: float) -> tuple[np.ndarray, np.ndarray]:
    """Pool cells until every expected count reaches min_expected or two
    cells remain: the right tail into the cell before it, then each run of
    small interior cells, in one pass, into the cell after it."""
    obs, exp = list(observed), list(expected)
    while len(obs) > 2 and exp[-1] < min_expected:
        tail_e, tail_o = exp.pop(), obs.pop()
        exp[-1] += tail_e
        obs[-1] += tail_o
    # the last cell is now big enough (or one of two), so every run ends on
    # a cell; -0.0 is the empty carry, as x + -0.0 is x, a zero's sign too
    pooled_o, pooled_e = [], []
    carry_o = carry_e = -0.0
    for k, (o, e) in enumerate(zip(obs, exp)):
        o, e = o + carry_o, e + carry_e
        if e < min_expected and len(pooled_e) + len(exp) - k > 2:
            carry_o, carry_e = o, e
        else:
            pooled_o.append(o)
            pooled_e.append(e)
            carry_o = carry_e = -0.0
    return np.asarray(pooled_o), np.asarray(pooled_e)


def chi_square_counts(sample, pmf, min_expected: float = 5.0) -> tuple[float, float, int]:
    """Chi-square GOF test of an integer sample against pmf[n] = P(N = n).

    Outcomes >= len(pmf) fall into an overflow cell with the complementary
    probability.  Cells are pooled until every expected count reaches
    `min_expected`, or two cells remain.  Returns (statistic, p-value,
    degrees of freedom).
    """
    from scipy.special import chdtrc  # not at module level: it doubles fracq's start-up

    x = np.asarray(sample)
    if x.size == 0:
        raise ParameterError("empty sample")
    if not np.issubdtype(x.dtype, np.integer) or np.any(x < 0):
        raise ParameterError("sample must be nonnegative integers")
    probs = np.asarray(pmf, dtype=float)
    # NaN fails probs >= 0, and +inf the total mass
    if probs.size == 0 or not np.all(probs >= 0) or probs.sum() > 1.0 + 1e-9:
        raise ParameterError("pmf must be finite and nonnegative with total mass at most 1")
    n = x.size
    n_cells = probs.size + 1
    observed = np.bincount(np.minimum(x, probs.size), minlength=n_cells).astype(float)
    expected = n * np.concatenate([probs, [max(0.0, 1.0 - probs.sum())]])

    obs_arr, exp_arr = _pool(observed, expected, min_expected)
    if np.any(exp_arr <= 0):
        raise ParameterError("expected counts must be positive after pooling")
    dof = obs_arr.size - 1
    if dof < 1:
        raise ParameterError("need at least two cells after pooling")
    with np.errstate(over="ignore"):  # a subnormal expected count: inf, p = 0
        statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    pvalue = float(chdtrc(dof, statistic))  # the chi2(dof) survival function
    return statistic, pvalue, dof
