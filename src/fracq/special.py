"""Mittag-Leffler special functions and fractional Poisson distributions.

Evaluation strategy for ``E_theta(z)`` on the real line:

* power series with compensated summation while cancellation is harmless,
  which for negative arguments means ``|z|**(1/theta) <= 5`` (the alternating
  series builds terms of magnitude ``exp(|z|**(1/theta))`` before they decay,
  so beyond that point double precision would be destroyed);
* for more negative arguments a complete-monotone spectral integral
  evaluated by a fixed double-exponential quadrature rule, accurate to
  ~1e-12 relative for ``theta <= 0.95``;
* ``theta == 1`` reduces to the exponential function, which is used verbatim.

An independent truncated large-argument expansion is kept private for use as
a cross-check oracle in the test suite.

``scipy.special`` is imported inside the functions that use it, not with the
module: the samplers and simulations, which import this module for its
parameter types and checks, need none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SeriesConvergenceError

_SERIES_TOL = 1e-18
_SERIES_CAP = 100_000
_PMF_CAP = 500
# series branch is safe while |z|**(1/theta) stays below this
_SERIES_ZONE = 5.0


def _check_theta(theta: float) -> None:
    """Reject a stability index outside (0, 1]; NaN fails the comparison too."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must be in (0, 1], got {theta}")


def _check_time(t: float) -> None:
    """Reject a time outside [0, inf); NaN fails the comparison too."""
    if not 0.0 <= t < math.inf:
        raise ParameterError(f"t must be nonnegative and finite, got {t}")


def _require_positive(**values: float) -> None:
    """Reject any value outside (0, inf); NaN fails the comparison too."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class MlIndex:
    """Index theta of the Mittag-Leffler function E_theta."""

    theta: float

    def __post_init__(self) -> None:
        _check_theta(self.theta)


@dataclass(frozen=True)
class FppParams:
    """Stability exponent and rate of a fractional Poisson process."""

    theta: float
    lam: float

    def __post_init__(self) -> None:
        _check_theta(self.theta)
        _require_positive(lam=self.lam)


def _series_vec(theta: float, z: np.ndarray) -> np.ndarray:
    """Power series sum_l z^l / Gamma(1 + theta l), Kahan-compensated."""
    from scipy.special import gammaln  # not at module level: it doubles fracq's start-up

    out = np.zeros_like(z)
    comp = np.zeros_like(z)
    active = np.ones(z.shape, dtype=bool)
    absz = np.abs(z)
    logabs = np.where(absz > 0, np.log(np.where(absz > 0, absz, 1.0)), -np.inf)
    sign = np.where(z < 0, -1.0, 1.0)
    prev_mag = np.full(z.shape, np.inf)
    small_streak = np.zeros(z.shape, dtype=np.int8)
    l = 0
    while active.any():
        if l > _SERIES_CAP:
            raise SeriesConvergenceError("Mittag-Leffler series hit its term cap")
        if l == 0:
            logmag = np.zeros(z.shape)
        else:
            logmag = l * logabs - gammaln(1.0 + theta * l)
        with np.errstate(under="ignore", over="ignore"):
            mag = np.exp(logmag)
            term = mag if l % 2 == 0 else sign * mag
            y = np.where(active, term, 0.0) - comp
            t = out + y
        # a term or the running sum past the float range
        if not np.isfinite(t).all():
            raise DomainError("Mittag-Leffler value overflows double precision")
        comp = (t - out) - y
        out = t
        scale = np.maximum(np.abs(out), 1e-300)
        tiny = mag <= _SERIES_TOL * scale
        decreasing = mag <= prev_mag
        small_streak = np.where(tiny & decreasing, small_streak + 1, 0)
        active &= ~(small_streak >= 2)
        prev_mag = mag
        l += 1
    return out


def _exp_sinh_nodes(theta: float, w_hi: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Step h, abscissae tau and nodes w = exp((pi/2) sinh(tau)) of the
    double-exponential rule for int_0^inf f(w) dw on w in [1e-24, w_hi]."""
    h = 0.012 if theta <= 0.95 else 0.004
    t_hi = math.asinh(math.log(w_hi) / (0.5 * math.pi))
    t_lo = math.asinh(math.log(1e-24) / (0.5 * math.pi))
    tau = h * np.arange(math.floor(t_lo / h), math.ceil(t_hi / h) + 1)
    return h, tau, np.exp(0.5 * np.pi * np.sinh(tau))


def _spectral_vec(theta: float, x: np.ndarray) -> np.ndarray:
    """E_theta(-x) for x > 0.

    Complete-monotone representation: the function is the Laplace transform
    of an explicit rational spectral density, integrated here with a fixed
    double-exponential rule.  Valid for 0 < theta < 1.
    """
    # f decays like exp(-w^(1/theta)), below the float64 range past w = 745^theta
    h, tau, w = _exp_sinh_nodes(theta, 745.0**theta)
    dw = 0.5 * np.pi * np.cosh(tau) * w * h
    cospi = math.cos(math.pi * theta)
    pref = math.sin(math.pi * theta) / (math.pi * theta)
    out = np.empty_like(x)
    # chunked so the (points x nodes) work matrix stays small
    step = 8192
    with np.errstate(under="ignore"):
        numer = np.exp(-(w ** (1.0 / theta))) * dw
        for i in range(0, x.size, step):
            xs = x[i : i + step, None]
            u = w[None, :] / xs
            den = 1.0 + 2.0 * cospi * u + u * u
            vals = (numer[None, :] / den).sum(axis=1)
            out[i : i + step] = pref * vals / xs[:, 0]
    return out


def _asymptotic_tail(theta: float, x: np.ndarray, kmax: int = 5) -> np.ndarray:
    """Truncated large-argument expansion of E_theta(-x), stopping at the
    smallest term.  The expansion envelopes the true value, so the first omitted
    term bounds the error.  Private; used as an independent oracle in tests."""
    from scipy.special import rgamma  # not at module level: it doubles fracq's start-up

    out = np.zeros_like(x)
    prev = np.full(x.shape, np.inf)
    stopped = np.zeros(x.shape, dtype=bool)
    for k in range(1, kmax + 1):
        term = (-1.0) ** (k + 1) * x ** (-float(k)) * rgamma(1.0 - theta * k)
        mag = np.abs(term)
        grew = mag > prev
        stopped |= grew
        out = np.where(stopped, out, out + term)
        # terms killed by a Gamma pole do not end the expansion
        prev = np.where(mag > 0.0, mag, prev)
    return out


def _ml_eval(theta: float, z: np.ndarray) -> np.ndarray:
    if theta == 1.0:
        # exact reduction, no series cancellation
        with np.errstate(over="ignore"):
            out = np.exp(z)
        if not np.isfinite(out).all():
            raise DomainError("Mittag-Leffler value overflows double precision")
        return out
    out = np.empty_like(z)
    neg = z < 0.0
    absz = np.abs(z)
    with np.errstate(invalid="ignore"):
        reach = absz ** (1.0 / theta)
    series_mask = (~neg) | (reach <= _SERIES_ZONE)
    if series_mask.any():
        out[series_mask] = _series_vec(theta, z[series_mask])
    tail = ~series_mask
    if tail.any():
        if theta > 0.98:
            raise DomainError(
                "theta in (0.98, 1) with large negative argument is outside the "
                "validated domain; use theta == 1 or a smaller theta"
            )
        out[tail] = _spectral_vec(theta, absz[tail])
    return out


def mittag_leffler(idx: MlIndex, z):
    """Mittag-Leffler function E_theta(z) for real z.

    Accepts a scalar or array argument.  Raises DomainError outside the
    validated evaluation domain (see module docstring).
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).astype(float).ravel()
    if not np.all(np.isfinite(z_flat)):
        raise DomainError("argument must be finite")
    vals = _ml_eval(idx.theta, z_flat)
    if scalar:
        return float(vals[0])
    return vals.reshape(z_arr.shape)


def _fpp_pmf_mixture(theta: float, x: float, n: int) -> float:
    """P(N = n) as a Poisson mixture over the inverse stable clock.

    With S the unit one-sided stable variable in Kanter form, the clock value
    satisfies Y = S^(-theta) = (W / a(phi))^(1 - theta) for W ~ Exp(1) and
    phi ~ Uniform(0, pi), so the count is conditionally Poisson:

        P(N = n) = (1/pi) int_0^pi int_0^inf e^(-w) Pois(n; m) dw dphi,
        m = x^theta w^(1-theta) b(phi),
        b(phi) = sin(phi) / (sin(theta phi)^theta sin((1-theta) phi)^(1-theta)).

    Every factor is positive, so the route is immune to the cancellation that
    destroys the alternating series at large x.  When x^theta b is large the
    phi mass concentrates in a thin layer at phi = pi, so phi uses a tanh-sinh
    rule (nodes cluster doubly exponentially at both endpoints, and pi - phi
    is carried explicitly to avoid rounding near pi); the w integral uses the
    same double-exponential rule family as the Mittag-Leffler quadrature.
    fpp_pmf sends only theta <= 0.98 here.
    """
    from scipy.special import expit, gammaln, log_expit  # not at module level: it doubles fracq's start-up

    h, tau, w = _exp_sinh_nodes(theta, 745.0 + 2.0 * n)
    log_dw = math.log(0.5 * np.pi * h) + np.log(np.cosh(tau)) + np.log(w)

    h_phi = 0.05
    tau_phi = h_phi * np.arange(-80, 81)
    s = 0.5 * np.pi * np.sinh(tau_phi)
    phi = np.pi * expit(2.0 * s)
    phi_c = np.pi * expit(-2.0 * s)  # pi - phi, exact near the right endpoint
    # dphi/dtau = pi^2 expit(2s) expit(-2s) cosh(tau)
    log_dphi = (
        2.0 * math.log(math.pi)
        + log_expit(2.0 * s)
        + log_expit(-2.0 * s)
        + np.log(np.cosh(tau_phi))
        + math.log(h_phi)
    )
    with np.errstate(divide="ignore"):
        log_b = (
            np.log(np.sin(np.minimum(phi, phi_c)))
            - theta * np.log(np.sin(theta * phi))
            - (1.0 - theta) * np.log(np.sin((1.0 - theta) * phi))
        )
    log_m = theta * math.log(x) + (1.0 - theta) * np.log(w)[:, None] + log_b[None, :]
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        m = np.exp(log_m)
        log_int = -w[:, None] - m - gammaln(n + 1.0) + log_dphi[None, :] + log_dw[:, None]
        if n:
            log_int += n * log_m
        peak = float(np.nanmax(log_int))
        if peak == -np.inf or math.isnan(peak):
            return 0.0
        total = math.exp(peak) * float(np.nansum(np.exp(log_int - peak))) / math.pi
    return min(total, 1.0)


# alternating series loses ~e^x of precision, so beyond this we switch routes
_PMF_SERIES_ZONE = 2.5


def _fpp_pmf_series(theta: float, x: float, n: int) -> float:
    """Reindexed alternating pmf series.

    Once the terms decrease, the next term bounds the remainder; summation
    stops when that bound falls below 1e-13 of the accumulated value (absolute
    floor 1e-18, term cap 500).  Cancellation grows with both x and n, so the
    route is only trusted for small arguments; it is kept as the independent
    cross-check for the mixture quadrature.
    """
    from scipy.special import gammaln  # not at module level: it doubles fracq's start-up

    logx = math.log(x)
    lg_n = gammaln(n + 1)

    def log_term(j: int) -> float:
        m = n + j
        return (
            gammaln(m + 1)
            - gammaln(j + 1)
            - lg_n
            + theta * m * logx
            - gammaln(theta * m + 1.0)
        )

    total = 0.0
    comp = 0.0
    prev_mag = math.inf
    j = 0
    while True:
        if j > _PMF_CAP:
            raise SeriesConvergenceError("fpp_pmf series hit its 500-term cap")
        mag = math.exp(log_term(j))
        term = -mag if j % 2 else mag
        y = term - comp
        t_ = total + y
        comp = (t_ - total) - y
        total = t_
        next_mag = math.exp(log_term(j + 1))
        if next_mag <= max(1e-13 * abs(total), 1e-18) and next_mag <= mag <= prev_mag:
            break
        prev_mag = mag
        j += 1
    if total < 0.0:
        if total < -1e-9:
            raise SeriesConvergenceError(f"fpp_pmf produced {total}, cancellation overload")
        total = 0.0
    return min(total, 1.0)


def fpp_pmf(p: FppParams, t: float, n: int) -> float:
    """P(N(t) = n) for a fractional Poisson process N with parameters p.

    theta == 1 reduces to the Poisson formula and theta <= 0.98 evaluates the
    positive mixture quadrature, which is uniformly accurate in n and lam * t.
    The remaining sliver theta in (0.98, 1) falls back to the alternating
    series, accepted only while lam * t <= 2.5 where its cancellation is
    bounded; accuracy there degrades for large n.
    """
    if not isinstance(n, (int, np.integer)):
        raise ParameterError("n must be an integer")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    _check_time(t)
    x = p.lam * t
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    theta = p.theta
    if theta == 1.0:
        from scipy.special import gammaln  # not at module level: it doubles fracq's start-up

        return math.exp(n * math.log(x) - x - gammaln(n + 1.0))
    if theta <= 0.98:
        return _fpp_pmf_mixture(theta, x, n)
    if x > _PMF_SERIES_ZONE:
        raise DomainError(
            "theta in (0.98, 1) with lam * t outside the series zone is not "
            "validated; use theta == 1 or a smaller theta"
        )
    return _fpp_pmf_series(theta, x, n)


def fpp_pmf_table(p: FppParams, t: float, cum_tol: float = 1e-10, n_cap: int = 100_000) -> np.ndarray:
    """pmf values for n = 0, 1, ... until the unassigned mass drops below cum_tol.

    The returned array's length is the adaptive truncation point N* + 1.
    Raises SeriesConvergenceError at once when the mean count
    lam^theta E Y(t) already exceeds n_cap, and ParameterError at once for a
    cum_tol outside (0, 1).
    """
    _check_time(t)
    if not 0.0 < cum_tol < 1.0:  # NaN fails the comparison too
        raise ParameterError(f"cum_tol must lie in (0, 1), got {cum_tol}")
    mean = (p.lam * t) ** p.theta / math.gamma(1.0 + p.theta)  # lam^theta E Y(t)
    if mean > n_cap:
        raise SeriesConvergenceError(f"fpp_pmf_table: mean count {mean:.6g} exceeds n_cap = {n_cap}")
    vals = []
    cum = 0.0
    n = 0
    while True:
        v = fpp_pmf(p, t, n)
        vals.append(v)
        cum += v
        if 1.0 - cum < cum_tol:
            break
        n += 1
        if n > n_cap:
            raise SeriesConvergenceError("fpp_pmf_table did not exhaust the distribution")
    return np.asarray(vals)


def ml_cdf(p: FppParams, x):
    """Mittag-Leffler waiting-time distribution function 1 - E_theta(-(lam x)^theta)."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xf = np.atleast_1d(x_arr).astype(float).ravel()
    if not np.all(xf >= 0):  # also true for nan
        raise ParameterError("x must be nonnegative numbers")
    w = (p.lam * xf) ** p.theta
    vals = 1.0 - _ml_eval(p.theta, -w)
    vals = np.clip(vals, 0.0, 1.0)
    if scalar:
        return float(vals[0])
    return vals.reshape(x_arr.shape)


def inverse_subordinator_moments(theta: float, t: float) -> tuple[float, float]:
    """Mean and variance of the inverse stable subordinator Y_theta(t).

    E Y = t^theta / Gamma(1 + theta);
    Var Y = t^(2 theta) * (2 / Gamma(1 + 2 theta) - 1 / Gamma(1 + theta)^2),
    which vanishes identically at theta = 1 where Y_1(t) = t.
    """
    _check_theta(theta)
    _check_time(t)
    if theta == 1.0:
        return float(t), 0.0
    g1 = math.gamma(1.0 + theta)
    g2 = math.gamma(1.0 + 2.0 * theta)
    mean = t**theta / g1
    var = t ** (2.0 * theta) * (2.0 / g2 - 1.0 / g1**2)
    return mean, max(var, 0.0)
