"""Random variate generators for stable, Mittag-Leffler and inverse-clock laws.

All draws flow through RngStream, a thin wrapper over a counter-based
64-bit generator (Philox) keyed by a seed and a substream path.  Distinct
paths give non-overlapping streams, so replicas can be fanned out across
workers without coordination and still reproduce bit-identically.

Mittag-Leffler variates have two routes: the trigonometric form of pairs of
uniforms (_mittag_leffler_steps), which every renewal walk and
sample_mittag_leffler_trig run, and the product form E^(1/theta) S / lam
(sample_mittag_leffler), against which the tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .special import FppParams, _check_theta, _check_time


@dataclass
class RngStream:
    """Reproducible random stream keyed by a seed and a substream path.  Draws
    continue it exactly across calls (g.random(a) then g.random(b) give
    g.random(a + b)), so a walk that reads its own stream in order draws the
    same numbers however its reads are chunked."""

    seed: int
    _path: tuple[int, ...] = field(default=(), repr=False, compare=False)
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def generator(self) -> np.random.Generator:
        """The underlying generator; successive calls continue one stream."""
        if self._gen is None:
            # every fixed-seed draw depends on this key layout, leading 0 included
            seq = np.random.SeedSequence(self.seed, spawn_key=(0, *self._path))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def substream(self, k: int) -> "RngStream":
        """Derived independent stream, e.g. one per replica."""
        return RngStream(self.seed, self._path + (k,))


def _kanter(theta: float, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Kanter's transform of uniforms u and unit exponentials e (theta < 1)."""
    v = u * np.pi
    return (np.sin(theta * v) / np.sin(v) ** (1.0 / theta)) * (
        np.sin((1.0 - theta) * v) / e
    ) ** ((1.0 - theta) / theta)


def _stable_steps(theta: float, pairs: np.ndarray) -> np.ndarray:
    """Positive stable variates from pairs (U, U') of uniforms, pairs[..., 0]
    and pairs[..., 1]: Kanter's transform of U and E = -ln(1 - U')."""
    if theta == 1.0:
        return np.ones(pairs.shape[:-1])
    return _kanter(theta, pairs[..., 0], -np.log(1.0 - pairs[..., 1]))


def _mittag_leffler_steps(p: FppParams, pairs: np.ndarray) -> np.ndarray:
    """Mittag-Leffler variates from pairs (U, V) of uniforms by the
    trigonometric form of Fulger, Scalas & Germano (PRE 77, 2008):

        X = -ln(1 - U) (sin(theta pi (1 - V)) / sin(theta pi V))^(1/theta) / lam,

    the inversion bracket sin(theta pi)/tan(theta pi V) - cos(theta pi)
    written without its cancellation; -ln(1 - U) / lam at theta = 1."""
    gap = np.log(1.0 - pairs[..., 0]) / -p.lam
    if p.theta == 1.0:
        return gap
    tp = p.theta * np.pi
    ratio = np.sin(tp * (1.0 - pairs[..., 1])) / np.sin(tp * pairs[..., 1])
    return gap * ratio ** (1.0 / p.theta)


def _n_variates(size: int) -> int:
    n = int(size)
    if n < 0:
        raise ParameterError("size must be nonnegative")
    return n


def sample_positive_stable(theta: float, rng: RngStream, size: int) -> np.ndarray:
    """One-sided positive stable variates S with E exp(-s S) = exp(-s^theta).

    Uses Kanter's exact representation

        S = sin(theta pi U) sin((1-theta) pi U)^((1-theta)/theta)
            / (sin(pi U)^(1/theta) E^((1-theta)/theta)),

    with U uniform on (0,1) and E unit exponential.  At theta = 1 the law
    degenerates to the point mass at 1 and every draw is exactly 1.0.
    """
    _check_theta(theta)
    n = _n_variates(size)
    g = rng.generator()
    return np.ones(n) if theta == 1.0 else _kanter(theta, g.random(n), g.standard_exponential(n))


def sample_mittag_leffler(p: FppParams, rng: RngStream, size: int) -> np.ndarray:
    """Mittag-Leffler waiting times via the product form X = E^(1/theta) S / lam.

    E is unit exponential and S positive stable; the Laplace transform of the
    result is 1 / (1 + (s/lam)^theta).  theta = 1 reduces to Exp(lam) exactly.
    """
    n = _n_variates(size)
    e = rng.generator().standard_exponential(n)
    if p.theta < 1.0:
        # S first, so that E^(1/theta) is not held while the transform runs
        e = sample_positive_stable(p.theta, rng, n) * e ** (1.0 / p.theta)
    return e / p.lam


def sample_mittag_leffler_trig(p: FppParams, rng: RngStream, size: int) -> np.ndarray:
    """Mittag-Leffler waiting times via the trigonometric form that every
    renewal walk runs (_mittag_leffler_steps), on pairs (U, V) of uniforms.
    Independent of the product-form construction; the two must agree in
    law.  theta = 1 gives Exp(lam).
    """
    return _mittag_leffler_steps(p, rng.generator().random((_n_variates(size), 2)))


def sample_inverse_subordinator_at(
    theta: float, t: float, rng: RngStream, size: int
) -> np.ndarray:
    """Y_theta(t), the inverse stable subordinator at a single fixed time.

    Uses the identity Y_theta(t) =d (t / S)^theta with S positive stable,
    which follows from P(Y(t) > s) = P(L(s) <= t) and self-similarity of L.
    theta = 1 returns exactly t.
    """
    _check_theta(theta)
    _check_time(t)
    n = _n_variates(size)
    if theta == 1.0:
        return np.full(n, float(t))
    s = sample_positive_stable(theta, rng, size=n)
    return (t / s) ** theta


def _tilted_stable(theta: float, g: np.random.Generator, n: int) -> np.ndarray:
    """n variates W with density proportional to w^(-theta) g_theta(w), g_theta
    the positive stable density (Devroye, ACM TOMACS 19, 2009): Kanter's
    transform of E' ~ Gamma(2 - theta) and of U with density proportional to
    h(u) = sin(pi u) / (sin(theta pi u)^theta sin((1 - theta) pi u)^(1 - theta)),
    drawn by rejection under h(0) = theta^(-theta) (1 - theta)^(-(1 - theta))."""
    h = lambda u: np.sin(np.pi * u) / (np.sin(theta * np.pi * u) ** theta
                                       * np.sin((1.0 - theta) * np.pi * u) ** (1.0 - theta))
    h0 = theta**-theta * (1.0 - theta) ** (theta - 1.0)
    u = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        cand = 1.0 - g.random(todo.size)  # in (0, 1]
        ok = g.random(todo.size) * h0 <= h(cand)
        u[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return _kanter(theta, u, g.standard_gamma(2.0 - theta, n))


def _inverse_clock_at(theta: float, times: np.ndarray, rng: RngStream) -> np.ndarray:
    """Y_theta exactly at the times of each row, nondecreasing along axis 1
    of a 2-D array; the rows are independent paths.  A row carries its clock
    y and L's value l there, L the stable subordinator that Y inverts.  A time
    t >= l restarts L at y (strong Markov) and draws its passage over d = t -
    l: the undershoot x = d Beta(theta, 1 - theta), the jump (d - x)
    V^(-1/theta), and the clock's growth (x / W)^theta, W polynomially tilted
    stable; a time below l leaves y as it is.  theta = 1 returns the times."""
    times = np.asarray(times, dtype=float)
    if theta == 1.0:
        return times.copy()
    g = rng.generator()
    y = np.zeros(times.shape)
    clock, l = np.zeros(times.shape[0]), np.zeros(times.shape[0])
    for j in range(times.shape[1]):
        t = times[:, j]
        pass_ = np.flatnonzero(l <= t)
        d = t[pass_] - l[pass_]
        x = d * g.beta(theta, 1.0 - theta, pass_.size)
        clock[pass_] += (x / _tilted_stable(theta, g, pass_.size)) ** theta
        with np.errstate(over="ignore"):  # an infinite jump passes every time
            l[pass_] += x + (d - x) * (1.0 - g.random(pass_.size)) ** (-1.0 / theta)
        y[:, j] = clock
    return y
