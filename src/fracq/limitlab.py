"""Monte Carlo verification of scaling limits.

Each experiment simulates an observable from the event-level construction,
samples the claimed limit law by an independent route, and reduces the
comparison to one binding statistic with a pass direction.  Limit processes
built from inverse stable clocks are sampled either exactly at a single time
(via the stable subordinator identity) or pathwise on first-passage grids
whose resolution bounds the reflection bias.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, ParameterError
from .gof import chi_square_counts, ecdf, ks_two_sample
from .processes import (
    DEFAULT_RESOLUTION,
    ClassProbabilities,
    _covering_levels,
    _renewal_times,
    _write_csv,
    renewal_counts,
    timechange_counts,
)
from .queueing import LocationSampler, _reflect, reflected_path_stats
from .samplers import RngStream, sample_inverse_subordinator_at
from .special import FppParams, fpp_pmf_table, inverse_subordinator_moments

DEFAULT_P_MIN = 1e-3
DEFAULT_Z_MAX = 4.0


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one verification experiment.

    The verdict is determined by the binding statistic alone: pass iff
    statistic > threshold (direction '>') or statistic < threshold ('<').
    Structural subchecks (monotonicity, z-windows) force the statistic to the
    failing side when violated; the raw numbers stay in `details`.
    """

    name: str
    parameters: dict
    statistic: float
    threshold: float
    direction: str
    replicas: int
    seed: int
    details: dict = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool:
        if self.direction == ">":
            return bool(self.statistic > self.threshold)
        return bool(self.statistic < self.threshold)

    def summary_line(self) -> str:
        mark = "PASS" if self.verdict else "FAIL"
        return (
            f"[{mark}] {self.name}: statistic={self.statistic:.6g} "
            f"{self.direction} threshold={self.threshold:.6g} "
            f"(replicas={self.replicas}, seed={self.seed})"
        )

    def to_dict(self) -> dict:
        return _jsonify(
            {
                "name": self.name,
                "parameters": self.parameters,
                "statistic": self.statistic,
                "threshold": self.threshold,
                "direction": self.direction,
                "verdict": self.verdict,
                "replicas": self.replicas,
                "seed": self.seed,
                "details": self.details,
                "artifacts": list(self.artifacts),
            }
        )

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _finish(report: ExperimentReport, out_dir: str | None, verbose: bool) -> ExperimentReport:
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_json(os.path.join(out_dir, f"{report.name}.json"))
    if verbose:
        print(report.summary_line())
    return report


def _ecdf_artifact(out_dir: str | None, name: str, sample) -> list[str]:
    if out_dir is None:
        return []
    os.makedirs(out_dir, exist_ok=True)
    xs, ps = ecdf(sample)
    path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(path, ["x", "F"], [(xs, "%.17g"), (ps, "%.17g")])
    return [path]


def map_replicas(fn, rng: RngStream, n: int, jobs: int = 1) -> np.ndarray:
    """fn(rng.substream(r)) for r in range(n), stacked into one array, on a
    thread pool of `jobs` workers when jobs > 1.

    Replica r draws only from its own substream, so the result does not depend
    on jobs.
    """
    if n < 1:
        raise ParameterError("need at least one replica")
    streams = map(rng.substream, range(n))
    if jobs <= 1:
        return np.array(list(map(fn, streams)))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return np.array(list(pool.map(fn, streams)))


def _ladder(fn, horizons, min_rungs: int, rng: RngStream, replicas: int, jobs: int):
    """(horizons, results): results[hi] stacks fn(horizon, stream) over the
    replicas of rung hi, which draw from rng.substream(hi)."""
    horizons = [float(h) for h in horizons]
    # one chained comparison: positive, strictly increasing, and no NaN
    if len(horizons) < min_rungs or not all(a < b for a, b in zip([0.0, *horizons], horizons)):
        raise ParameterError(f"need at least {min_rungs} positive, strictly increasing horizons")
    return horizons, [
        map_replicas(partial(fn, h), rng.substream(hi), replicas, jobs)
        for hi, h in enumerate(horizons)
    ]


# ---------------------------------------------------------------------------
# limit-law sampling

def _two_clocks(
    theta_a: float, theta_b: float, t: float, resolution: float, rng: RngStream
) -> tuple[tuple[float, np.ndarray, int], tuple[float, np.ndarray, int]]:
    """Two independent inverse clocks Y_a, Y_b (substreams 0 and 1), each
    discretized on levels spaced resolution * t^theta, on the union of their
    level-passage times up to t (t itself included).

    For each clock returns (step, k, n): Y = step * k on the union grid, and
    the n levels its covering grid's blocks span, beyond t.
    """
    step_a = resolution * t**theta_a
    step_b = resolution * t**theta_b
    la, na = _covering_levels(theta_a, step_a, t, rng.substream(0))
    lb, nb = _covering_levels(theta_b, step_b, t, rng.substream(1))
    ev = np.union1d(la[:-1], lb[:-1])
    if ev.size == 0 or ev[-1] < t:
        ev = np.append(ev, t)
    ka = np.searchsorted(la, ev, side="right") - 1
    kb = np.searchsorted(lb, ev, side="right") - 1
    return (step_a, ka, na), (step_b, kb, nb)


def _clock_difference_path(
    theta_a: float,
    coef_a: float,
    theta_b: float,
    coef_b: float,
    t: float,
    resolution: float,
    rng: RngStream,
) -> np.ndarray:
    """coef_a Y_a(s) - coef_b Y_b(s) on the union of passage grids up to t."""
    (step_a, ka, _), (step_b, kb, _) = _two_clocks(theta_a, theta_b, t, resolution, rng)
    return coef_a * step_a * ka - coef_b * step_b * kb


def _brownian_difference_path(
    theta_a: float,
    var_a: float,
    theta_b: float,
    var_b: float,
    t: float,
    resolution: float,
    rng: RngStream,
) -> np.ndarray:
    """sqrt(var_a) B(Y_a(s)) - sqrt(var_b) B~(Y_b(s)) on the union grid."""
    (step_a, ka, _), (step_b, kb, _) = _two_clocks(theta_a, theta_b, t, resolution, rng)
    # normals up to the last level the union grid reads, Y(t)
    ga = rng.substream(2).generator()
    gb = rng.substream(3).generator()
    ba = np.concatenate([[0.0], np.cumsum(ga.normal(0.0, math.sqrt(step_a), ka[-1]))])
    bb = np.concatenate([[0.0], np.cumsum(gb.normal(0.0, math.sqrt(step_b), kb[-1]))])
    return math.sqrt(var_a) * ba[ka] - math.sqrt(var_b) * bb[kb]


_KINDS = (
    "inverse_clock",
    "reflected_difference",
    "brownian_time_changed",
    "reflected_brownian_difference",
)
# each two-sided kind with coef_b = 0, as the one-sided kind it reduces to
_ONE_SIDED = {
    "reflected_difference": "inverse_clock",
    "reflected_brownian_difference": "brownian_time_changed",
}


@dataclass(frozen=True)
class LimitLawSampler:
    """Single-time sampler for the limit laws appearing in the scaling results.

    coef_a/coef_b are linear scales for the clock kinds and variance scales
    for the Brownian kinds.  Where an exact single-time representation exists
    (monotone paths, or a one-sided reflection of a time-changed Brownian
    motion) it is used; two-sided reflections fall back to passage-grid paths
    at the given resolution.
    """

    kind: str
    t: float
    theta_a: float
    coef_a: float
    theta_b: float = 1.0
    coef_b: float = 0.0
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown limit-law kind {self.kind!r}")
        _require_positive(t=self.t, resolution=self.resolution)
        for th in (self.theta_a, self.theta_b):
            if not (0.0 < th <= 1.0):
                raise ParameterError(f"clock index must be in (0, 1], got {th}")
        if not (0.0 <= self.coef_a < math.inf and 0.0 <= self.coef_b < math.inf):
            raise ParameterError("coefficients must be nonnegative and finite")

    @classmethod
    def inverse_clock(cls, theta: float, scale: float, t: float) -> "LimitLawSampler":
        return cls(kind="inverse_clock", t=t, theta_a=theta, coef_a=scale)

    @classmethod
    def reflected_difference(
        cls,
        theta_a: float,
        scale_a: float,
        theta_b: float,
        scale_b: float,
        t: float,
        resolution: float = DEFAULT_RESOLUTION,
    ) -> "LimitLawSampler":
        return cls(
            kind="reflected_difference",
            t=t,
            theta_a=theta_a,
            coef_a=scale_a,
            theta_b=theta_b,
            coef_b=scale_b,
            resolution=resolution,
        )

    @classmethod
    def brownian_time_changed(cls, theta: float, variance_scale: float, t: float) -> "LimitLawSampler":
        return cls(kind="brownian_time_changed", t=t, theta_a=theta, coef_a=variance_scale)

    @classmethod
    def reflected_brownian_difference(
        cls,
        theta_a: float,
        variance_a: float,
        theta_b: float = 1.0,
        variance_b: float = 0.0,
        t: float = 1.0,
        resolution: float = DEFAULT_RESOLUTION,
    ) -> "LimitLawSampler":
        return cls(
            kind="reflected_brownian_difference",
            t=t,
            theta_a=theta_a,
            coef_a=variance_a,
            theta_b=theta_b,
            coef_b=variance_b,
            resolution=resolution,
        )

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        if size < 1:
            raise ParameterError("size must be positive")
        kind = self.kind
        if self.coef_b == 0.0:
            # with nothing subtracted, the reflection of a nondecreasing path
            # started at 0 is the path, and continuity of the clock gives
            # Phi(B o Y)(t) =d |B(Y(t))|
            kind = _ONE_SIDED.get(kind, kind)
        if kind == "inverse_clock":
            y = sample_inverse_subordinator_at(self.theta_a, self.t, rng, size=size)
            return self.coef_a * y
        if kind == "brownian_time_changed":
            y = sample_inverse_subordinator_at(self.theta_a, self.t, rng.substream(0), size=size)
            z = rng.substream(1).generator().standard_normal(size)
            x = np.sqrt(self.coef_a * y) * z
            return np.abs(x) if self.kind == "reflected_brownian_difference" else x
        path = _clock_difference_path if kind == "reflected_difference" else _brownian_difference_path
        args = (self.theta_a, self.coef_a, self.theta_b, self.coef_b, self.t, self.resolution)
        return map_replicas(lambda sub: _reflect(path(*args, sub))[-1], rng, size)

    def closed_form_quantile(self, q) -> np.ndarray | float:
        """Quantile function when every active clock index equals 1."""
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr <= 0) | (q_arr >= 1)):
            raise ParameterError("quantile levels must lie in (0, 1)")
        active_b = self.coef_b != 0.0
        if self.theta_a != 1.0 or (active_b and self.theta_b != 1.0):
            raise DomainError("closed form requires all clock indices equal to 1")
        if self.kind == "inverse_clock":
            out = np.full_like(q_arr, self.coef_a * self.t)
        elif self.kind == "reflected_difference":
            out = np.full_like(q_arr, max(self.coef_a - self.coef_b, 0.0) * self.t)
        elif self.kind == "brownian_time_changed":
            out = ndtri(q_arr) * math.sqrt(self.coef_a * self.t)
        else:
            scale = math.sqrt((self.coef_a + self.coef_b) * self.t)
            out = scale * ndtri((1.0 + q_arr) / 2.0)
        return float(out) if np.isscalar(q) else out


# ---------------------------------------------------------------------------
# event-level observables

def _scaled_queue_end(
    alpha: float,
    beta: float,
    lam: float,
    mu: float,
    heads: tuple[float, ...],
    horizon: float,
    rng: RngStream,
) -> list[tuple[int, int, int]]:
    """(Q_{<=i}(T), emptyings, running max) of one replica of the queue fed by
    class-(<=i) arrivals and all services, for each head probability P_i in
    heads, all thinning the same arrivals by uniforms drawn if some P_i < 1."""
    arr = _renewal_times(FppParams(alpha, lam), horizon, rng.substream(0))
    dep = _renewal_times(FppParams(beta, mu), horizon, rng.substream(2))
    thin = min(heads) < 1.0
    unif = rng.substream(1).generator().random(arr.size) if thin else np.zeros(arr.size)
    return [reflected_path_stats(arr[unif < head], dep) for head in heads]


def _compensated_queue_end(
    alpha: float,
    beta: float,
    rate_a: float,
    rate_b: float,
    horizon: float,
    resolution: float,
    rng: RngStream,
) -> float:
    """Reflected end value of the compensated netflow

        [A(s) - rate_a Y_a(s)] - [C(s) - rate_b Y_b(s)],  s <= horizon,

    with A, C Poisson streams run in the clocks' internal times.  Evaluated on
    the union of the two passage grids, where the path is exactly piecewise
    constant in the discretized model.
    """
    (step_a, ka, na), (step_b, kb, nb) = _two_clocks(alpha, beta, horizon, resolution, rng)
    ga = rng.substream(2).generator()
    gb = rng.substream(3).generator()
    y_top_a = step_a * na
    y_top_b = step_b * nb
    # the counts over all drawn levels set the law; only positions up to
    # Y(horizon) are read
    ya = step_a * ka
    yb = step_b * kb
    arr_pos = ga.random(ga.poisson(rate_a * y_top_a)) * y_top_a
    dep_pos = gb.random(gb.poisson(rate_b * y_top_b)) * y_top_b
    arr_pos = np.sort(arr_pos[arr_pos <= ya[-1]])
    dep_pos = np.sort(dep_pos[dep_pos <= yb[-1]])
    a_counts = np.searchsorted(arr_pos, ya, side="right")
    c_counts = np.searchsorted(dep_pos, yb, side="right")
    path = (a_counts - rate_a * ya) - (c_counts - rate_b * yb)
    return float(_reflect(path)[-1])


# ---------------------------------------------------------------------------
# verification experiments

def _require_positive(**values: float) -> None:
    """Reject any value outside (0, inf); NaN fails the comparison too."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {v}")


def _standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of x; DomainError when it is 0 or not finite
    at two or more replicas (one replica gives NaN: a failed z-score)."""
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    if x.size >= 2 and not 0.0 < se < math.inf:
        raise DomainError(f"the sample has no spread (standard error {se}); raise t or u")
    return se


def _require_ks_can_reject(replicas: int, p_min: float) -> None:
    """Reject a p_min outside (0, 1), or a replica count n at which a two-sample
    KS p-value, never below 2 / C(2n, n), cannot fall below p_min."""
    if not 0.0 < p_min < 1.0:
        raise ParameterError(f"p_min must lie in (0, 1), got {p_min}")
    n, bound = 1, 1.0  # 2 / C(2n, n), updated by its ratio from n to n + 1
    while bound >= p_min:
        n, bound = n + 1, bound * (n + 1) / (4 * n + 2)
    if 0 <= replicas < n:  # a negative count is left to the samplers' check
        raise ParameterError(f"{replicas} replicas cannot give a KS p-value below "
                             f"p_min = {p_min}; need at least {n}")


def verify_pmf(
    theta: float,
    lam: float,
    t: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    out_dir: str | None = None,
    verbose: bool = True,
) -> ExperimentReport:
    """Both process constructions against the analytic pmf, and against
    each other."""
    _require_positive(t=t)
    _require_ks_can_reject(replicas, p_min)
    params = FppParams(theta=theta, lam=lam)
    ren = renewal_counts(params, t, replicas, rng.substream(0))
    tch = timechange_counts(params, t, replicas, rng.substream(1))
    pmf = fpp_pmf_table(params, t, cum_tol=1e-10)
    chi_ren = chi_square_counts(ren, pmf)
    chi_tch = chi_square_counts(tch, pmf)
    _, p_cross = ks_two_sample(ren, tch)
    details = {
        "chi2_renewal": {"stat": chi_ren[0], "p": chi_ren[1], "dof": chi_ren[2]},
        "chi2_timechange": {"stat": chi_tch[0], "p": chi_tch[1], "dof": chi_tch[2]},
        "ks_cross_p": p_cross,
        "mean_renewal": float(ren.mean()),
        "mean_timechange": float(tch.mean()),
    }
    artifacts = _ecdf_artifact(out_dir, "pmf_renewal_ecdf", ren)
    artifacts += _ecdf_artifact(out_dir, "pmf_timechange_ecdf", tch)
    report = ExperimentReport(
        name="pmf-agreement",
        parameters={"theta": theta, "lam": lam, "t": t},
        statistic=float(min(chi_ren[1], chi_tch[1], p_cross)),
        threshold=p_min,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details=details,
        artifacts=tuple(artifacts),
    )
    return _finish(report, out_dir, verbose)


def verify_covariance(
    alpha: float,
    lam: float,
    probs: ClassProbabilities,
    t: float,
    replicas: int,
    rng: RngStream,
    z_max: float = DEFAULT_Z_MAX,
    out_dir: str | None = None,
    verbose: bool = True,
) -> ExperimentReport:
    """Empirical second moments of thinned counts against the analytic
    covariance p_i p_j lam^(2 alpha) Var Y_alpha(t) (and the matching
    per-class variances)."""
    _require_positive(t=t, z_max=z_max)
    total = renewal_counts(FppParams(alpha, lam), t, replicas, rng.substream(0))
    split = rng.substream(1).generator().multinomial(total, probs.p).astype(float)
    mean_y, var_y = inverse_subordinator_moments(alpha, t)
    rate = lam**alpha
    centered = split - split.mean(axis=0)
    k = probs.n_classes
    z_scores = {}
    z_abs = []
    for i in range(k):
        for j in range(i, k):
            prod = centered[:, i] * centered[:, j]
            if i == j:
                target = probs.p[i] * rate * mean_y + probs.p[i] ** 2 * rate**2 * var_y
            else:
                target = probs.p[i] * probs.p[j] * rate**2 * var_y
            z = (prod.mean() - target) / _standard_error(prod)
            z_scores[f"z_{i + 1}{j + 1}"] = float(z)
            z_scores[f"target_{i + 1}{j + 1}"] = float(target)
            z_scores[f"empirical_{i + 1}{j + 1}"] = float(prod.mean())
            z_abs.append(abs(z))
    report = ExperimentReport(
        name="thinning-covariance",
        parameters={"alpha": alpha, "lam": lam, "p": list(probs.p), "t": t},
        # np.max, unlike max(), keeps a NaN z-score (replicas < 2): FAIL
        statistic=float(np.max(z_abs)),
        threshold=z_max,
        direction="<",
        replicas=replicas,
        seed=rng.seed,
        details=z_scores,
    )
    return _finish(report, out_dir, verbose)


def verify_lln(
    theta: float,
    lam: float,
    probs: ClassProbabilities,
    t: float,
    u: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    concentration_tol: float = 0.05,
    out_dir: str | None = None,
    verbose: bool = True,
) -> ExperimentReport:
    """Scaled class counts N_i(ut)/u^theta against the law lam^theta p_i Y(t);
    at theta = 1 the limit is deterministic and the check is an RMS window."""
    _require_positive(t=t, u=u, concentration_tol=concentration_tol)
    if theta != 1.0:
        _require_ks_can_reject(replicas, p_min)
    total = renewal_counts(FppParams(theta, lam), u * t, replicas, rng.substream(0))
    split = rng.substream(1).generator().multinomial(total, probs.p).astype(float)
    scaled = split / u**theta
    rate = lam**theta
    artifacts: list[str] = []
    if theta == 1.0:
        rms = np.sqrt(((scaled - rate * probs.p * t) ** 2).mean(axis=0))
        report = ExperimentReport(
            name="lln",
            parameters={"theta": theta, "lam": lam, "p": list(probs.p), "t": t, "u": u},
            statistic=float(rms.max()),
            threshold=concentration_tol,
            direction="<",
            replicas=replicas,
            seed=rng.seed,
            details={"rms_per_class": [float(v) for v in rms]},
        )
        return _finish(report, out_dir, verbose)
    y = sample_inverse_subordinator_at(theta, t, rng.substream(2), size=replicas)
    details: dict = {}
    p_vals = []
    for i in range(probs.n_classes):
        oracle = rate * probs.p[i] * y
        d, p = ks_two_sample(scaled[:, i], oracle)
        p_vals.append(p)
        details[f"ks_class_{i + 1}"] = {"D": d, "p": p}
        artifacts += _ecdf_artifact(out_dir, f"lln_class{i + 1}_observable_ecdf", scaled[:, i])
        artifacts += _ecdf_artifact(out_dir, f"lln_class{i + 1}_oracle_ecdf", oracle)
    if probs.n_classes >= 2:
        details["corr_12"] = float(np.corrcoef(scaled[:, 0], scaled[:, 1])[0, 1])
    report = ExperimentReport(
        name="lln",
        parameters={"theta": theta, "lam": lam, "p": list(probs.p), "t": t, "u": u},
        statistic=float(min(p_vals)),
        threshold=p_min,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details=details,
        artifacts=tuple(artifacts),
    )
    return _finish(report, out_dir, verbose)


def verify_fclt(
    theta: float,
    lam: float,
    probs: ClassProbabilities,
    t: float,
    u: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    z_max: float = DEFAULT_Z_MAX,
    out_dir: str | None = None,
    verbose: bool = True,
) -> ExperimentReport:
    """Compensated class counts (N_i(ut) - p_i lam^theta Y(ut)) / u^(theta/2)
    against independent Brownian motions run on an independent clock.

    The observable uses the exact single-time law of the pair (Y(ut), N(ut)):
    counts are conditionally Poisson given the clock.  At theta = 1 the
    compensator is deterministic, so the observable lives on a lattice of
    width u^(-1/2); the oracle is projected onto that lattice before the KS
    comparison to keep the test well specified.
    """
    _require_positive(t=t, u=u, z_max=z_max)
    _require_ks_can_reject(replicas, p_min)
    rate = lam**theta
    y_big = sample_inverse_subordinator_at(theta, u * t, rng.substream(0), size=replicas)
    g = rng.substream(1).generator()
    counts = g.poisson(probs.p[None, :] * rate * y_big[:, None])
    m = (counts - probs.p[None, :] * rate * y_big[:, None]) / u ** (theta / 2.0)

    y_lim = sample_inverse_subordinator_at(theta, t, rng.substream(2), size=replicas)
    z = rng.substream(3).generator().standard_normal((replicas, probs.n_classes))
    oracle = np.sqrt(probs.p[None, :] * rate * y_lim[:, None]) * z

    mean_y, var_y = inverse_subordinator_moments(theta, t)
    details: dict = {}
    artifacts: list[str] = []
    p_vals = []
    z_ok = True
    for i in range(probs.n_classes):
        obs_i = m[:, i]
        ora_i = oracle[:, i]
        if theta == 1.0:
            # project oracle draws onto the observable's count lattice
            center = probs.p[i] * rate * u * t
            ora_i = (np.round(ora_i * math.sqrt(u) + center) - center) / math.sqrt(u)
        d, p = ks_two_sample(obs_i, ora_i)
        p_vals.append(p)
        target_var = probs.p[i] * rate * mean_y
        sq = obs_i**2
        z_var = (sq.mean() - target_var) / _standard_error(sq)
        z_mean = obs_i.mean() / _standard_error(obs_i)
        z_ok = z_ok and abs(z_var) <= z_max and abs(z_mean) <= z_max
        details[f"class_{i + 1}"] = {
            "ks_D": d,
            "ks_p": p,
            "var_target": float(target_var),
            "var_empirical": float(sq.mean()),
            "z_var": float(z_var),
            "z_mean": float(z_mean),
        }
        artifacts += _ecdf_artifact(out_dir, f"fclt_class{i + 1}_observable_ecdf", obs_i)
        artifacts += _ecdf_artifact(out_dir, f"fclt_class{i + 1}_oracle_ecdf", ora_i)
    if probs.n_classes >= 2:
        prod = m[:, 0] * m[:, 1]
        z_corr = prod.mean() / _standard_error(prod)
        details["z_cross_class"] = float(z_corr)
        z_ok = z_ok and abs(z_corr) <= z_max
    statistic = float(min(p_vals)) if z_ok else -1.0
    if not z_ok:
        details["z_window_violation"] = True
    report = ExperimentReport(
        name="fclt",
        parameters={"theta": theta, "lam": lam, "p": list(probs.p), "t": t, "u": u},
        statistic=statistic,
        threshold=p_min,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details=details,
        artifacts=tuple(artifacts),
    )
    return _finish(report, out_dir, verbose)


def _regime(alpha: float, beta: float) -> str:
    if alpha > beta:
        return "arrivals-dominate"
    if beta > alpha:
        return "services-dominate"
    return "balanced"


def verify_queue_scaling(
    alpha: float,
    beta: float,
    lam: float,
    mu: float,
    probs: ClassProbabilities,
    i: int,
    t: float,
    u: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    degenerate_tol: float = 0.01,
    resolution: float = DEFAULT_RESOLUTION,
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> ExperimentReport:
    """Scaled aggregate queue Q_{<=i}(ut) / u^gamma against its limit law.

    gamma = max(alpha, beta).  Regimes: arrivals dominate (limit
    lam^alpha P_i Y_alpha(t)), services dominate (limit 0, mean window),
    balanced (limit Phi(lam^alpha P_i Y - mu^beta Y~)(t), KS); the balanced
    regime also checks the per-class difference Q_i when i >= 2.
    """
    _require_positive(t=t, u=u, degenerate_tol=degenerate_tol)
    gamma = max(alpha, beta)
    head = probs.head_sum(i)
    horizon = u * t
    regime = _regime(alpha, beta)
    if regime != "services-dominate":
        _require_ks_can_reject(replicas, p_min)
    # balanced, i >= 2: also the same arrivals thinned one class shorter
    heads = (head, probs.head_sum(i - 1)) if regime == "balanced" and i >= 2 else (head,)

    def one(sub: RngStream) -> tuple[int, int]:
        ends = _scaled_queue_end(alpha, beta, lam, mu, heads, horizon, sub)
        return ends[0][0], ends[0][0] - ends[-1][0]

    # the replicas draw from substream(4); keep 0-3 for oracles
    pairs = map_replicas(one, rng.substream(4), replicas, jobs)
    observable = pairs[:, 0] / u**gamma
    details: dict = {"regime": regime}
    artifacts = _ecdf_artifact(out_dir, "queue_scaling_observable_ecdf", observable)

    if regime == "services-dominate":
        statistic = float(observable.mean())
        threshold, direction = degenerate_tol, "<"
        details["mean_scaled"] = statistic
    else:
        # when arrivals dominate the service clock drops out of the limit,
        # and the reflection reduces to the exact inverse clock
        coef_b = mu**beta if regime == "balanced" else 0.0
        oracle_sampler = LimitLawSampler.reflected_difference(
            alpha, lam**alpha * head, beta, coef_b, t, resolution
        )
        oracle = oracle_sampler.sample(rng.substream(1), replicas)
        d, p = ks_two_sample(observable, oracle)
        details["ks"] = {"D": d, "p": p}
        artifacts += _ecdf_artifact(out_dir, "queue_scaling_oracle_ecdf", oracle)
        p_all = [p]
        if len(heads) == 2:
            per_class = pairs[:, 1] / u**gamma

            # per-class oracle: difference of the two reflections driven by
            # one shared pair of clock paths
            def one_per_class(sub: RngStream) -> float:
                (step_a, ka, _), (step_b, kb, _) = _two_clocks(alpha, beta, t, resolution, sub)
                ya = step_a * ka
                yb = step_b * kb
                hi = lam**alpha * head * ya - mu**beta * yb
                lo = lam**alpha * probs.head_sum(i - 1) * ya - mu**beta * yb
                return _reflect(hi)[-1] - _reflect(lo)[-1]

            oracle_pc = map_replicas(one_per_class, rng.substream(2), replicas, jobs)
            d_pc, p_pc = ks_two_sample(per_class, oracle_pc)
            details["ks_per_class"] = {"D": d_pc, "p": p_pc, "class": i}
            artifacts += _ecdf_artifact(out_dir, "queue_scaling_per_class_ecdf", per_class)
            p_all.append(p_pc)
        statistic, threshold, direction = float(min(p_all)), p_min, ">"

    report = ExperimentReport(
        name="queue-scaling",
        parameters={
            "alpha": alpha,
            "beta": beta,
            "lam": lam,
            "mu": mu,
            "p": list(probs.p),
            "i": i,
            "t": t,
            "u": u,
        },
        statistic=statistic,
        threshold=threshold,
        direction=direction,
        replicas=replicas,
        seed=rng.seed,
        details=details,
        artifacts=tuple(artifacts),
    )
    return _finish(report, out_dir, verbose)


def verify_centered_queue_clt(
    alpha: float,
    beta: float,
    lam: float,
    mu: float,
    probs: ClassProbabilities,
    i: int,
    t: float,
    u: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    resolution: float = DEFAULT_RESOLUTION,
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> ExperimentReport:
    """Reflected compensated netflow, scaled by u^(gamma/2), against the
    reflected difference of Brownian motions on independent inverse clocks."""
    _require_positive(t=t, u=u)
    _require_ks_can_reject(replicas, p_min)
    gamma = max(alpha, beta)
    head = probs.head_sum(i)
    horizon = u * t
    rate_a = lam**alpha * head
    rate_b = mu**beta

    def one(sub: RngStream) -> float:
        return _compensated_queue_end(alpha, beta, rate_a, rate_b, horizon, resolution, sub)

    observable = map_replicas(one, rng.substream(2), replicas, jobs) / u ** (gamma / 2.0)

    if alpha > beta:
        oracle_sampler = LimitLawSampler.reflected_brownian_difference(
            alpha, rate_a, t=t, resolution=resolution
        )
    elif beta > alpha:
        oracle_sampler = LimitLawSampler.reflected_brownian_difference(
            beta, rate_b, t=t, resolution=resolution
        )
    else:
        oracle_sampler = LimitLawSampler.reflected_brownian_difference(
            alpha, rate_a, beta, rate_b, t=t, resolution=resolution
        )
    oracle = oracle_sampler.sample(rng.substream(1), replicas)
    d, p = ks_two_sample(observable, oracle)
    artifacts = _ecdf_artifact(out_dir, "centered_clt_observable_ecdf", observable)
    artifacts += _ecdf_artifact(out_dir, "centered_clt_oracle_ecdf", oracle)
    report = ExperimentReport(
        name="centered-queue-clt",
        parameters={
            "alpha": alpha,
            "beta": beta,
            "lam": lam,
            "mu": mu,
            "p": list(probs.p),
            "i": i,
            "t": t,
            "u": u,
        },
        statistic=float(p),
        threshold=p_min,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details={
            "ks": {"D": d, "p": p},
            "mean_observable": float(observable.mean()),
            "mean_oracle": float(oracle.mean()),
        },
        artifacts=tuple(artifacts),
    )
    return _finish(report, out_dir, verbose)


def verify_recurrence(
    alpha: float,
    lam: float,
    mu: float,
    probs: ClassProbabilities,
    horizons,
    replicas: int,
    rng: RngStream,
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> ExperimentReport:
    """Median emptying count and median running maximum of the total queue
    must both grow strictly along increasing horizons.

    Critical regime only: arrivals and services share the index alpha.  The
    thinning probabilities are recorded but the statistics live on the total
    queue, whose law they do not affect.
    """

    def one(horizon: float, sub: RngStream) -> tuple[int, int]:
        ((_, emptyings, running_max),) = _scaled_queue_end(
            alpha, alpha, lam, mu, (1.0,), horizon, sub
        )
        return emptyings, running_max

    horizons, rungs = _ladder(one, horizons, 3, rng, replicas, jobs)
    med_empty = [float(np.median(pairs[:, 0])) for pairs in rungs]
    med_max = [float(np.median(pairs[:, 1])) for pairs in rungs]
    margins = [b - a for a, b in zip(med_empty, med_empty[1:])]
    margins += [b - a for a, b in zip(med_max, med_max[1:])]
    report = ExperimentReport(
        name="recurrence",
        parameters={
            "alpha": alpha,
            "lam": lam,
            "mu": mu,
            "p": list(probs.p),
            "horizons": horizons,
        },
        statistic=float(min(margins)),
        threshold=0.0,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details={"median_emptyings": med_empty, "median_running_max": med_max},
    )
    return _finish(report, out_dir, verbose)


def verify_oscillation(
    theta: float,
    c: float,
    horizons,
    replicas: int,
    rng: RngStream,
    resolution: float = DEFAULT_RESOLUTION,
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> ExperimentReport:
    """The difference Y(s) - c Y~(s) of independent inverse clocks must
    oscillate without bound: median running min strictly decreases and median
    running max strictly increases along growing horizons."""
    if not (0.0 < theta < 1.0):
        raise ParameterError("oscillation requires theta in (0, 1); at 1 the difference is degenerate")
    _require_positive(c=c)

    def one(horizon: float, sub: RngStream) -> tuple[float, float]:
        path = _clock_difference_path(theta, 1.0, theta, c, horizon, resolution, sub)
        return float(path.min()), float(path.max())

    horizons, rungs = _ladder(one, horizons, 2, rng, replicas, jobs)
    med_min = [float(np.median(pairs[:, 0])) for pairs in rungs]
    med_max = [float(np.median(pairs[:, 1])) for pairs in rungs]
    margins = [a - b for a, b in zip(med_min, med_min[1:])]
    margins += [b - a for a, b in zip(med_max, med_max[1:])]
    report = ExperimentReport(
        name="oscillation",
        parameters={"theta": theta, "c": c, "horizons": horizons},
        statistic=float(min(margins)),
        threshold=0.0,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details={"median_running_min": med_min, "median_running_max": med_max},
    )
    return _finish(report, out_dir, verbose)


def verify_best_ask(
    alpha: float,
    beta: float,
    lam: float,
    mu: float,
    locations: LocationSampler,
    t_values,
    replicas: int,
    rng: RngStream,
    eps_values=(0.1, 0.05),
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> ExperimentReport:
    """Best ask converging to the support infimum: exceedance probabilities
    P(best ask > a + eps) must be nonincreasing in t and small at the largest
    horizon, while the queue near the infimum outgrows t^(beta/2)."""
    if alpha <= beta:
        raise ParameterError("best-ask convergence needs arrivals to dominate: alpha > beta")
    if not (len(eps_values) and all(0.0 < eps < math.inf for eps in eps_values)):
        raise ParameterError(f"need one or more eps in (0, inf), got {list(eps_values)}")
    a = locations.support_infimum()
    eps_main = max(eps_values)

    def one(horizon: float, sub: RngStream) -> list[int]:
        # serving the lowest location is static priority by location: the
        # customers at locations <= x form their own queue, Phi(A_{<=x} - S)
        arr = _renewal_times(FppParams(alpha, lam), horizon, sub.substream(0))
        dep = _renewal_times(FppParams(beta, mu), horizon, sub.substream(1))
        marks = locations.sample(sub.substream(2), arr.size)
        return [reflected_path_stats(arr[marks <= a + eps], dep)[0] for eps in eps_values]

    # column j counts the queue within a + eps_j; the best ask exceeds
    # a + eps_j exactly when that count is 0
    t_values, rungs = _ladder(one, t_values, 2, rng, replicas, jobs)
    exceed, mass_freq = {}, {}
    for j, eps in enumerate(eps_values):
        exceed[eps] = [float((res[:, j] == 0).mean()) for res in rungs]
        mass_freq[eps] = [float((res[:, j] > tv ** (beta / 2.0)).mean())
                          for tv, res in zip(t_values, rungs)]

    def _noise_slack(p_prev: float, p_next: float) -> float:
        # two-sided binomial noise on the difference of consecutive estimates
        var = (p_prev * (1.0 - p_prev) + p_next * (1.0 - p_next)) / replicas
        return 2.0 * math.sqrt(var) + 1e-12

    monotone_ok = all(
        all(b <= a_prev + _noise_slack(a_prev, b) for a_prev, b in zip(seq, seq[1:]))
        for seq in exceed.values()
    )
    # the pass/fail margins bind at the widest window; narrower windows converge
    # later and are reported for trend inspection only
    final_margins = [0.1 - exceed[eps_main][-1], mass_freq[eps_main][-1] - 0.9]
    statistic = float(min(final_margins)) if monotone_ok else -1.0
    details = {
        "support_infimum": a,
        "exceedance": {str(eps): seq for eps, seq in exceed.items()},
        "near_mass_freq": {str(eps): seq for eps, seq in mass_freq.items()},
        "monotone_ok": monotone_ok,
    }
    report = ExperimentReport(
        name="best-ask",
        parameters={
            "alpha": alpha,
            "beta": beta,
            "lam": lam,
            "mu": mu,
            "t_values": t_values,
            "eps_values": list(eps_values),
            "location_kind": locations.kind,
        },
        statistic=statistic,
        threshold=0.0,
        direction=">",
        replicas=replicas,
        seed=rng.seed,
        details=details,
    )
    return _finish(report, out_dir, verbose)


# ---------------------------------------------------------------------------
# the verification battery: name -> (seed offset, experiment, parameters at
# the base replica count), in run order

_P2 = ClassProbabilities(np.array([0.3, 0.7]))
_P2_EVEN = ClassProbabilities(np.array([0.5, 0.5]))
_P3 = ClassProbabilities(np.array([0.2, 0.3, 0.5]))
_P1 = ClassProbabilities(np.array([1.0]))

BATTERY = {
    # pmf agreement of both process constructions, one subdiffusive and one
    # near-classical parameter point
    "pmf_theta_0.7": (0, verify_pmf, dict(theta=0.7, lam=1.0, t=2.0, replicas=100_000)),
    "pmf_theta_0.95": (1, verify_pmf, dict(theta=0.95, lam=1.5, t=1.0, replicas=100_000)),
    "covariance": (2, verify_covariance,
                   dict(alpha=0.7, lam=1.2, probs=_P3, t=2.0, replicas=1_000_000)),
    # at u=1e3 the conditional-Poisson noise (relative scale u^(-theta/2))
    # sits at the KS detection edge for 1e4 replicas and seed luck decides
    # the verdict; one decade higher every seed passes
    "lln_theta_0.7": (3, verify_lln,
                      dict(theta=0.7, lam=1.0, probs=_P2, t=1.0, u=1e4, replicas=10_000)),
    "lln_theta_1.0": (4, verify_lln,
                      dict(theta=1.0, lam=1.0, probs=_P2, t=1.0, u=1e3, replicas=10_000)),
    "fclt_theta_0.7": (5, verify_fclt,
                       dict(theta=0.7, lam=1.0, probs=_P2, t=1.0, u=1e3, replicas=10_000)),
    "fclt_theta_1.0": (6, verify_fclt,
                       dict(theta=1.0, lam=1.0, probs=_P2, t=1.0, u=1e3, replicas=10_000)),
    # queue scaling: the arrivals-dominate observable carries a u^(beta-alpha)
    # bias, so that regime runs two decades higher in u
    "queue_scaling_arrivals": (8, verify_queue_scaling, dict(
        alpha=0.9, beta=0.3, lam=1.0, mu=1.0, probs=_P2, i=1, t=1.0, u=1e5, replicas=1000)),
    "queue_scaling_services": (7, verify_queue_scaling, dict(
        alpha=0.3, beta=0.9, lam=1.0, mu=1.0, probs=_P2, i=1, t=1.0, u=1e3, replicas=1000)),
    "queue_scaling_balanced": (7, verify_queue_scaling, dict(
        alpha=0.6, beta=0.6, lam=1.1, mu=1.0, probs=_P2_EVEN, i=2, t=1.0, u=1e3,
        replicas=2000)),
    "centered_clt_arrivals": (9, verify_centered_queue_clt, dict(
        alpha=0.9, beta=0.3, lam=1.0, mu=1.0, probs=_P2, i=2, t=1.0, u=1e3, replicas=2000)),
    "centered_clt_services": (9, verify_centered_queue_clt, dict(
        alpha=0.3, beta=0.9, lam=1.0, mu=1.0, probs=_P2, i=2, t=1.0, u=1e3, replicas=2000)),
    "centered_clt_balanced": (9, verify_centered_queue_clt, dict(
        alpha=0.6, beta=0.6, lam=1.0, mu=1.0, probs=_P2, i=2, t=1.0, u=1e3, replicas=2000)),
    # null recurrence: medians of integer counts move by less than one unit
    # per decade, so the horizon ladder uses two-decade spacing
    "recurrence": (10, verify_recurrence, dict(
        alpha=0.6, lam=2.0, mu=1.0, probs=_P1, horizons=(1e2, 1e4, 1e6), replicas=200)),
    "oscillation_c_1": (11, verify_oscillation,
                        dict(theta=0.5, c=1.0, horizons=(1e2, 1e3, 1e4), replicas=200)),
    "oscillation_c_4": (12, verify_oscillation,
                        dict(theta=0.7, c=4.0, horizons=(1e2, 1e3, 1e4), replicas=200)),
    # the near-infimum mass clause needs one more decade than the exceedance
    # clause, hence the fourth rung
    "best_ask": (13, verify_best_ask, dict(
        alpha=0.9, beta=0.5, lam=1.0, mu=1.0, locations=LocationSampler.uniform(1.0, 2.0),
        t_values=(10.0, 1e2, 1e3, 1e4), replicas=200)),
}

# the experiments that simulate paths replica by replica, and so take `jobs`
_PATH_LEVEL = (verify_queue_scaling, verify_centered_queue_clt, verify_recurrence,
               verify_oscillation, verify_best_ask)


def battery(seed: int, scale: float = 1.0, jobs: int = 1):
    """The battery as (name, runner) pairs in table order; runner(out_dir)
    runs one experiment on RngStream(seed + offset) with every replica count
    scaled by `scale` (at least 20) and returns its report."""

    def runner(offset, verify, kw):
        kw = dict(kw, replicas=max(20, int(round(kw["replicas"] * scale))))
        if verify in _PATH_LEVEL:
            kw["jobs"] = jobs
        return lambda out_dir: verify(rng=RngStream(seed=seed + offset), out_dir=out_dir, **kw)

    return [(name, runner(*point)) for name, point in BATTERY.items()]
