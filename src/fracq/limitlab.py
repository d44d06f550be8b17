"""Monte Carlo verification of scaling limits.

Each experiment simulates an observable from the event-level construction,
samples the claimed limit law by an independent route, and reduces the
comparison to one binding statistic with a pass direction.  Limit laws
built from inverse stable clocks are drawn exactly at a single time (via the
stable subordinator identity), except the reflected difference of two monotone
paths, which _reflected_ends alone draws, read on first-passage grids whose
resolution bounds the reflection bias.

Every path-level observable and oracle is drawn for a chunk of replicas at
once and read only where its path can turn.  A functional of two independent
inverse clocks takes the rows of one level walk per clock (_clock_pair, which
finds each clock's count at the other's passages by a search of its row) and
is read at the clocks' level passages (_path_extremes); an event-level queue
takes the rows of one renewal walk of services (_queue_ends) and is read at
its services, its kept arrivals there counted from the rows of one renewal
walk of arrivals or, when arrivals dominate, drawn through their exact clock.
map_replicas runs every replica loop as chunks, chunk c from substream c, of
a size set by the parameters alone (_chunk_rows), so no result depends on
jobs.

Each verify_* experiment only computes: it returns what it found, a
_Verdict (statistic, threshold, direction, details, samples).  The decorator
_experiment is the rest of it.  It binds the call to the signature and
rejects a setting outside (0, inf) (_POSITIVE) before anything is drawn;
it makes the ExperimentReport, whose parameters are the call's arguments
less the run settings (replicas, rng, tolerances, resolution, out_dir, jobs,
verbose); and it writes each named sample as an ECDF CSV and the report's
JSON to out_dir, and prints the summary line.  The two ladder experiments
end in one verdict, _median_trends: each column's median must move strictly
one way along the rungs.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial, wraps
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError
from .gof import chi_square_counts, ecdf, ks_two_sample
from .processes import (
    DEFAULT_RESOLUTION,
    ClassProbabilities,
    _level_walks,
    _mean_count,
    _renewal_rows,
    _write_csv,
    renewal_counts,
    timechange_counts,
)
from .queueing import LocationSampler
from .samplers import RngStream, _inverse_clock_at, sample_inverse_subordinator_at
from .special import FppParams, _check_theta, _require_positive, fpp_pmf_table
from .special import inverse_subordinator_moments

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
        return _jsonify({**asdict(self), "verdict": self.verdict})

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Verdict(NamedTuple):
    """What one experiment found: the fields of its report that its
    arguments do not give, and the samples to write as ECDF CSVs, by
    artifact name in writing order."""

    statistic: float
    threshold: float
    direction: str
    details: dict
    samples: dict[str, np.ndarray] = {}


# arguments that set how an experiment runs, not the point it checks; a
# report's parameters are the other arguments
_RUN_SETTINGS = frozenset({"replicas", "rng", "p_min", "z_max", "concentration_tol",
                           "degenerate_tol", "resolution", "out_dir", "jobs", "verbose"})
# arguments that every experiment taking them needs in (0, inf)
_POSITIVE = frozenset({"t", "u", "c", "z_max", "resolution", "concentration_tol",
                       "degenerate_tol", "jobs", "replicas"})


def _parameters(arguments: dict) -> dict:
    params = {}
    for arg, value in arguments.items():
        if arg == "probs":
            params["p"] = list(value.p)
        elif arg == "locations":
            params["location_kind"] = value.kind
        elif arg in ("horizons", "t_values"):
            params[arg] = [float(h) for h in value]
        elif arg not in _RUN_SETTINGS:
            params[arg] = value
    return params


def _experiment(name: str):
    """Decorate an experiment that returns its _Verdict: the call returns
    the report `name` instead, whose parameters are the call's arguments
    bound to the signature, less the run settings.  Each argument named in
    _POSITIVE is checked before the experiment runs.  When out_dir is set,
    each sample is written to out_dir/<its name>.csv, then the report to
    out_dir/name.json; the summary line is printed when verbose is."""

    def decorate(verify):
        signature = inspect.signature(verify)

        @wraps(verify)
        def run(*args, **kwargs) -> ExperimentReport:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            given = call.arguments
            _require_positive(**{arg: v for arg, v in given.items() if arg in _POSITIVE})
            found = verify(*args, **kwargs)
            out_dir = given["out_dir"]
            files = {} if out_dir is None else {
                os.path.join(out_dir, f"{key}.csv"): x for key, x in found.samples.items()}
            report = ExperimentReport(name, _parameters(given), found.statistic, found.threshold,
                                      found.direction, given["replicas"], given["rng"].seed,
                                      found.details, tuple(files))
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                for path, sample in files.items():
                    _write_ecdf(path, sample)
                report.write_json(os.path.join(out_dir, f"{name}.json"))
            if given["verbose"]:
                print(report.summary_line())
            return report

        # callers read the experiment's signature (cli, battery): verify's
        # parameters, returning the report
        run.__signature__ = signature.replace(return_annotation="ExperimentReport")
        return run

    return decorate


def _write_ecdf(path: str, sample) -> None:
    xs, ps = ecdf(sample)
    _write_csv(path, ["x", "F"], [(xs, "%.17g"), (ps, "%.17g")])


def map_replicas(fn, rng: RngStream, n: int, chunk: int, jobs: int = 1) -> np.ndarray:
    """fn(rng.substream(c), m) for the chunks c of m = chunk replicas (the
    last may hold fewer), each returning m results, joined into one array.
    On a thread pool of `jobs` workers when jobs > 1.

    A chunk draws only from its own substream, so the result does not depend
    on jobs.
    """
    _require_positive(jobs=jobs)
    if n < 1:
        raise ParameterError("need at least one replica")
    sizes = [min(chunk, n - lo) for lo in range(0, n, chunk)]
    streams = map(rng.substream, range(len(sizes)))
    if jobs <= 1:
        return np.concatenate(list(map(fn, streams, sizes)))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return np.concatenate(list(pool.map(fn, streams, sizes)))


def _ladder(fn, chunk, horizons, min_rungs: int, rng: RngStream, replicas: int, jobs: int):
    """(horizons, results): results[hi] stacks fn(horizon, stream, m) over the
    chunks of chunk(horizon) replicas of rung hi, which draw from
    rng.substream(hi); the horizons must be at least min_rungs positive,
    strictly increasing floats."""
    horizons = [float(h) for h in horizons]
    # one chained comparison: positive, strictly increasing, and no NaN
    if len(horizons) < min_rungs or not all(a < b for a, b in zip([0.0, *horizons], horizons)):
        raise ParameterError(f"need at least {min_rungs} positive, strictly increasing horizons")
    return horizons, [
        map_replicas(partial(fn, h), rng.substream(hi), replicas, chunk(h), jobs)
        for hi, h in enumerate(horizons)
    ]


# ---------------------------------------------------------------------------
# two inverse clocks, many pairs at once


class _Clock(NamedTuple):
    """Rows of one inverse clock, Y = step k on levels spaced step.  Row r owns
    the slots off[r] .. off[r + 1] - 1, one per count k = 0 .. floor(Y(t) /
    step); a slot below the row's last is also the passage of level k + 1,
    where other[slot] is the other clock's slot (its row offset plus its
    count there).  The last slot, the first level past t, stands for s = 0."""

    step: float
    off: np.ndarray
    k: np.ndarray
    other: np.ndarray


# first-read steps of the walk with more steps in one chunk of replicas: an
# eighth of a _passage chunk, so a chunk's arrays stay in cache and add little
# to peak memory
_PAIR_STEPS = 2**14


def _chunk_rows(*means: float) -> int:
    """Replicas per chunk of walks whose counts have these means: at most
    _PAIR_STEPS first-read steps, int(mean) + 1 a row, for any of them."""
    return max(1, _PAIR_STEPS // (int(max(means)) + 1))


def _pair_rows(theta_a: float, theta_b: float, t: float, resolution: float) -> int:
    """Replicas per chunk of a two-clock functional, from its level counts."""
    return _chunk_rows(*(inverse_subordinator_moments(th, t)[0] / (resolution * t**th)
                         for th in (theta_a, theta_b)))


def _clock_pair(theta_a: float, theta_b: float, t: float, resolution: float,
                rng: RngStream, rows: int) -> tuple[_Clock, _Clock]:
    """`rows` pairs of independent inverse clocks Y_a, Y_b on levels spaced
    resolution * t^theta, each clock the rows of one level walk (substreams 0
    and 1).  At each passage of one clock, a search of the other clock's row
    finds its count there, counting a tied level as passed."""
    walks = []
    for j, theta in enumerate((theta_a, theta_b)):
        step = resolution * t**theta
        count, levels = _level_walks(theta, step, t, rng.substream(j), rows)
        walks.append((step, levels, np.concatenate([[0], np.cumsum(count + 1)])))
    clocks = []
    for (step, levels, off), (_, levels_y, off_y) in zip(walks, walks[::-1]):
        s = levels.copy()
        s[off[1:] - 1] = -t  # a row's last slot asks at s < 0
        other = np.concatenate([lo + np.searchsorted(levels_y[lo:hi], s[a:b], side="right")
                                for a, b, lo, hi in zip(off, off[1:], off_y, off_y[1:])])
        k = np.arange(levels.size) - np.repeat(off[:-1], np.diff(off))
        clocks.append(_Clock(step, off, k, other))
    return clocks[0], clocks[1]


def _path_extremes(a: _Clock, wa: np.ndarray, b: _Clock, wb: np.ndarray):
    """(end, low, high) per row of the path wa(Y_a) - wb(Y_b), w(k) given at
    slot k: its value at t, and its minimum and maximum over its values just
    after each passage of either clock and at s = 0.  A row's last slot gives
    the path at s = 0, which is 0: it reads the next row's w(0) = 0 (or the 0
    appended) and the other clock's w(0)."""
    after = ((np.append(wa[1:], 0.0) - wb[a.other], a.off[:-1]),
             (wa[b.other] - np.append(wb[1:], 0.0), b.off[:-1]))
    low = np.minimum(*(np.minimum.reduceat(x, first) for x, first in after))
    high = np.maximum(*(np.maximum.reduceat(x, first) for x, first in after))
    return wa[a.off[1:] - 1] - wb[b.off[1:] - 1], low, high


def _reflected_ends(theta_a: float, coefs_a, theta_b: float, coef_b: float, t: float,
                    resolution: float, rng: RngStream, rows: int) -> np.ndarray:
    """Phi(c Y_a - coef_b Y_b)(t) in column j for c = coefs_a[j], over the
    same `rows` clock pairs."""
    a, b = _clock_pair(theta_a, theta_b, t, resolution, rng, rows)
    ends = []
    for c in coefs_a:
        end, low, _ = _path_extremes(a, c * (a.step * a.k), b, coef_b * (b.step * b.k))
        ends.append(end - low)
    return np.column_stack(ends)


def _clock_extremes(theta: float, c: float, resolution: float, horizon: float,
                    rng: RngStream, rows: int) -> np.ndarray:
    """(min, max) over s <= horizon of Y(s) - c Y~(s), one row per clock pair."""
    a, b = _clock_pair(theta, theta, horizon, resolution, rng, rows)
    return np.column_stack(_path_extremes(a, a.step * a.k, b, c * (b.step * b.k))[1:])


def _walk_ends(theta_a: float, rate_a: float, theta_b: float, rate_b: float, t: float,
               resolution: float, rng: RngStream, rows: int) -> np.ndarray:
    """Phi(M_a(Y_a) - M_b(Y_b))(t) over `rows` clock pairs, M = N - rate Y the
    compensated Poisson process N of rate `rate`, its counts drawn level by
    level from substreams 2 and 3, row after row."""
    a, b = _clock_pair(theta_a, theta_b, t, resolution, rng, rows)
    w = []
    for j, clock, rate in ((2, a, rate_a), (3, b, rate_b)):
        n = np.zeros(clock.k.size, np.int64)  # the counts, 0 at each row's k = 0
        n[clock.k > 0] = rng.substream(j).generator().poisson(rate * clock.step, n.size - rows)
        n = np.cumsum(n)  # in integers, so each row's own sums are exact differences
        n -= np.repeat(n[clock.off[:-1]], np.diff(clock.off))
        w.append(n - rate * (clock.step * clock.k))
    end, low, _ = _path_extremes(a, w[0], b, w[1])
    return end - low


@dataclass(frozen=True)
class LimitLawSampler:
    """Single-time sampler of Phi(X_a - X_b)(t), the reflection of a
    difference of paths X = sqrt(coef) B(Y), B a Brownian motion run on an
    inverse clock Y, the clocks of indices theta_a, theta_b independent.

    The law is exact: given the clocks, X_a - X_b is B o Z in law, Z = coef_a
    Y_a + coef_b Y_b continuous and nondecreasing from 0 (Dambis-Dubins-
    Schwarz), so its reflection at t is |B(Z(t))| in law (Levy's M - B),
    drawn as sqrt(Z(t)) |z| with Y_a from substream 0, z from 1, Y_b from 2.
    """

    t: float
    theta_a: float
    coef_a: float
    theta_b: float = 1.0
    coef_b: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(t=self.t)
        _check_theta(self.theta_a)
        _check_theta(self.theta_b)
        if not (0.0 <= self.coef_a < math.inf and 0.0 <= self.coef_b < math.inf):
            raise ParameterError("coefficients must be nonnegative and finite")

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        if size < 1:
            raise ParameterError("size must be positive")
        t = self.t
        var = self.coef_a * sample_inverse_subordinator_at(self.theta_a, t, rng.substream(0),
                                                           size=size)
        if self.coef_b != 0.0:
            var += self.coef_b * sample_inverse_subordinator_at(self.theta_b, t, rng.substream(2),
                                                                size=size)
        return np.abs(np.sqrt(var) * rng.substream(1).generator().standard_normal(size))


# ---------------------------------------------------------------------------
# event-level observables

def _row_cummin(x: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Running minimum along axis 0 of integer x, restarted at each row: row
    r, its entries numbered r in the nondecreasing `row`, is shifted below
    every earlier row's entries, so they never reach its minimum."""
    shift = (row * (int(x.max(initial=0)) - int(x.min(initial=0)) + 1))[:, None]
    return np.minimum.accumulate(x - shift) + shift


def _row_sums(x: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums along axis 0 of x over rows of `counts` entries each, row after
    row, and the running sums before each entry: (sums, before)."""
    before = np.concatenate([np.zeros((1, x.shape[1]), np.int64), np.cumsum(x, axis=0)])
    ends = np.cumsum(counts)
    return before[ends] - before[ends - counts], before


def _kept_by_renewals(arrivals: FppParams, horizon: float, shares: np.ndarray, rng: RngStream,
                      n_dep: np.ndarray, dep: np.ndarray, row_d: np.ndarray, j: np.ndarray):
    """_queue_ends' reader of renewal arrival rows (substream 0), each marked
    uniform on [0, 1) from substream 1 and kept in column c below shares[c]
    (no mark drawn when every share is 1).  One searchsorted over complex
    (row, time) keys, exact and arrivals first at ties, counts the arrivals
    of earlier rows and of the service's own.  j goes unused: both readers
    take the services as _queue_ends lays them out."""
    n_arr, arr = _renewal_rows(arrivals, horizon, rng.substream(0), n_dep.size)
    if np.all(shares == 1.0):
        keep = np.ones((arr.size, shares.size), bool)
    else:
        keep = rng.substream(1).generator().random(arr.size)[:, None] < shares
    total, kept_before = _row_sums(keep, n_arr)
    row_a = np.repeat(np.arange(n_dep.size), n_arr)
    q = np.searchsorted(row_a + 1j * arr, row_d + 1j * dep, side="right")
    return kept_before[q] - kept_before[(np.cumsum(n_arr) - n_arr)[row_d]], total


def _kept_by_clock(arrivals: FppParams, horizon: float, shares: np.ndarray, rng: RngStream,
                   n_dep: np.ndarray, dep: np.ndarray, row_d: np.ndarray, j: np.ndarray):
    """_queue_ends' reader through the arrivals' exact clock: they are a unit
    Poisson process run on lam^theta Y (Meerschaert, Nane & Vellaisamy, EJP
    16, 2011).  Given Y at each row's services and at T (substream 0), the
    kept arrivals between two reads are independent Poisson(lam^theta (s_k -
    s_{k-1}) dY) counts over the cells of the sorted shares (substream 1);
    column c sums the cells below shares[c].  Rows are padded with T."""
    times = np.full((n_dep.size, n_dep.max(initial=0) + 1), horizon)
    times[row_d, j] = dep
    grow = np.diff(_inverse_clock_at(arrivals.theta, times, rng.substream(0)), axis=1, prepend=0.0)
    cuts = np.sort(shares)
    rate = arrivals.lam**arrivals.theta * np.diff(cuts, prepend=0.0)
    cells = rng.substream(1).generator().poisson(grow[..., None] * rate)
    kept = np.cumsum(np.cumsum(cells, axis=1), axis=2)[..., np.searchsorted(cuts, shares)]
    return kept[row_d, j], kept[np.arange(n_dep.size), n_dep]


def _queue_ends(arrivals: FppParams, services: FppParams, horizon: float, shares,
                rng: RngStream, rows: int) -> np.ndarray:
    """(Q(T), emptyings, running max) at T = horizon of `rows` reflected
    queues for each column of shares, shape (rows, columns, 3); column c's
    queue keeps each arrival independently with probability shares[c].  The
    services are the rows of one renewal walk (substream 2).  A reader picked
    by the parameters alone (_reads_clock) gives the kept arrivals a_j at or
    before each service j, and A at T: through the arrivals' exact clock
    (_kept_by_clock), or from renewal arrival rows (_kept_by_renewals).

    The netflow only rises between services, so the queue is read there:
    f_j = a_j - j for service j of a row (from 1), and m_j = min(0, f_1 ..
    f_j).  Then Q(T) = A - D - m_D, service j empties the queue when f_j =
    m_{j-1}, and the running max is the largest of Q(T) and the queue f_j + 1
    - m_{j-1} that each service finds.  All of it is integer arithmetic."""
    n_dep, dep = _renewal_rows(services, horizon, rng.substream(2), rows)
    row_d = np.repeat(np.arange(rows), n_dep)
    first_d = np.cumsum(n_dep) - n_dep
    j = np.arange(dep.size) - first_d[row_d]  # from 0
    read = _kept_by_clock if _reads_clock(arrivals, services, horizon) else _kept_by_renewals
    a, total = read(arrivals, horizon, np.asarray(shares, float), rng, n_dep, dep, row_d, j)
    f = a - (j + 1)[:, None]
    m = np.minimum(_row_cummin(f, row_d), 0)
    served = n_dep > 0
    m_prev = np.roll(m, 1, axis=0)
    m_prev[first_d[served]] = 0
    emptyings = _row_sums(f == m_prev, n_dep)[0]
    # per row with services: the minimum after its last, and the largest
    # queue a service finds
    m_end, found = np.zeros((2, rows, f.shape[1]), np.int64)
    if served.any():
        m_end[served] = m[first_d[served] + n_dep[served] - 1]
        found[served] = np.maximum.reduceat(f + 1 - m_prev, first_d[served])
    end = total - n_dep[:, None] - m_end
    return np.stack([end, emptyings, np.maximum(end, found)], axis=-1)


def _reads_clock(arrivals: FppParams, services: FppParams, horizon: float) -> bool:
    """Whether _queue_ends reads the arrivals through their exact clock: when
    they dominate (alpha > beta) and the clock's loop, about m steps for each
    chunk of 2^14 / m queues, costs less than the walk over the arrivals: m^2
    < 16 A, with m and A the mean service and arrival counts."""
    m = _mean_count(services, horizon)
    return arrivals.theta > services.theta and m * m < 16.0 * _mean_count(arrivals, horizon)


def _queue_rows(arrivals: FppParams, services: FppParams, horizon: float) -> int:
    """Replicas per chunk of _queue_ends, from the renewal counts its reader
    walks: the services alone when it reads the arrivals' clock."""
    walked = (services,) if _reads_clock(arrivals, services, horizon) else (arrivals, services)
    return _chunk_rows(*(_mean_count(p, horizon) for p in walked))


# ---------------------------------------------------------------------------
# verification experiments

def _standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of x; DomainError when it is 0 or not finite
    at two or more replicas (one replica gives NaN: a failed z-score)."""
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    if x.size >= 2 and not 0.0 < se < math.inf:
        raise DomainError(f"the sample has no spread (standard error {se}); raise t or u")
    return se


def _on_lattice(x: np.ndarray, scale: float, center: float = 0.0) -> np.ndarray:
    """x rounded onto the lattice (k - center) / scale, k an integer, of an
    observable of counts k, so that an oracle for it ties where that does."""
    return (np.round(x * scale + center) - center) / scale


def _require_ks_can_reject(replicas: int, p_min: float) -> None:
    """Reject a p_min outside (0, 1), or a replica count n at which a two-sample
    KS p-value, never below 2 / C(2n, n), cannot fall below p_min."""
    if not 0.0 < p_min < 1.0:
        raise ParameterError(f"p_min must lie in (0, 1), got {p_min}")
    n, bound = 1, 1.0  # 2 / C(2n, n), updated by its ratio from n to n + 1
    while bound >= p_min:
        n, bound = n + 1, bound * (n + 1) / (4 * n + 2)
    if replicas < n:
        raise ParameterError(f"{replicas} replicas cannot give a KS p-value below "
                             f"p_min = {p_min}; need at least {n}")


@_experiment("pmf-agreement")
def verify_pmf(
    theta: float,
    lam: float,
    t: float,
    replicas: int,
    rng: RngStream,
    p_min: float = DEFAULT_P_MIN,
    out_dir: str | None = None,
    verbose: bool = True,
) -> _Verdict:
    """Both process constructions against the analytic pmf: the verdict is
    the lesser of the two chi-square p-values."""
    # no KS runs here, but the p-value experiments share one replica floor
    _require_ks_can_reject(replicas, p_min)
    params = FppParams(theta=theta, lam=lam)
    ren = renewal_counts(params, t, replicas, rng.substream(0))
    tch = timechange_counts(params, t, replicas, rng.substream(1))
    pmf = fpp_pmf_table(params, t)
    chi_ren = chi_square_counts(ren, pmf)
    chi_tch = chi_square_counts(tch, pmf)
    details = {
        "chi2_renewal": {"stat": chi_ren[0], "p": chi_ren[1], "dof": chi_ren[2]},
        "chi2_timechange": {"stat": chi_tch[0], "p": chi_tch[1], "dof": chi_tch[2]},
        "mean_renewal": float(ren.mean()),
        "mean_timechange": float(tch.mean()),
    }
    return _Verdict(min(chi_ren[1], chi_tch[1]), p_min, ">", details,
                    {"pmf_renewal_ecdf": ren, "pmf_timechange_ecdf": tch})


@_experiment("thinning-covariance")
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
) -> _Verdict:
    """Empirical second moments of thinned counts against the analytic
    covariance p_i p_j lam^(2 alpha) Var Y_alpha(t) (and the matching
    per-class variances)."""
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
    # np.max, unlike max(), keeps a NaN z-score (replicas < 2): FAIL
    return _Verdict(float(np.max(z_abs)), z_max, "<", z_scores)


@_experiment("lln")
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
) -> _Verdict:
    """Scaled class counts N_i(ut)/u^theta against the law lam^theta p_i Y(t);
    at theta = 1 the limit is deterministic and the check is an RMS window."""
    if theta != 1.0:
        _require_ks_can_reject(replicas, p_min)
    total = renewal_counts(FppParams(theta, lam), u * t, replicas, rng.substream(0))
    split = rng.substream(1).generator().multinomial(total, probs.p).astype(float)
    scaled = split / u**theta
    rate = lam**theta
    if theta == 1.0:
        rms = np.sqrt(((scaled - rate * probs.p * t) ** 2).mean(axis=0))
        return _Verdict(float(rms.max()), concentration_tol, "<",
                        {"rms_per_class": [float(v) for v in rms]})
    y = sample_inverse_subordinator_at(theta, t, rng.substream(2), size=replicas)
    details: dict = {}
    samples = {}
    p_vals = []
    for i in range(probs.n_classes):
        oracle = rate * probs.p[i] * y
        d, p = ks_two_sample(scaled[:, i], oracle)
        p_vals.append(p)
        details[f"ks_class_{i + 1}"] = {"D": d, "p": p}
        samples[f"lln_class{i + 1}_observable_ecdf"] = scaled[:, i]
        samples[f"lln_class{i + 1}_oracle_ecdf"] = oracle
    if probs.n_classes >= 2:
        details["corr_12"] = float(np.corrcoef(scaled[:, 0], scaled[:, 1])[0, 1])
    return _Verdict(float(min(p_vals)), p_min, ">", details, samples)


@_experiment("fclt")
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
) -> _Verdict:
    """Compensated class counts (N_i(ut) - p_i lam^theta Y(ut)) / u^(theta/2)
    against independent Brownian motions run on an independent clock.

    The observable uses the exact single-time law of the pair (Y(ut), N(ut)):
    counts are conditionally Poisson given the clock.  At theta = 1 the
    compensator is deterministic, so the observable lives on a lattice of
    width u^(-1/2); the oracle is projected onto that lattice before the KS
    comparison to keep the test well specified.
    """
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
    samples = {}
    p_vals = []
    z_ok = True
    for i in range(probs.n_classes):
        obs_i = m[:, i]
        ora_i = oracle[:, i]
        if theta == 1.0:
            ora_i = _on_lattice(ora_i, math.sqrt(u), probs.p[i] * rate * u * t)
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
        samples[f"fclt_class{i + 1}_observable_ecdf"] = obs_i
        samples[f"fclt_class{i + 1}_oracle_ecdf"] = ora_i
    if probs.n_classes >= 2:
        prod = m[:, 0] * m[:, 1]
        z_corr = prod.mean() / _standard_error(prod)
        details["z_cross_class"] = float(z_corr)
        z_ok = z_ok and abs(z_corr) <= z_max
    statistic = float(min(p_vals)) if z_ok else -1.0
    if not z_ok:
        details["z_window_violation"] = True
    return _Verdict(statistic, p_min, ">", details, samples)


def _regime(alpha: float, beta: float) -> str:
    if alpha > beta:
        return "arrivals-dominate"
    if beta > alpha:
        return "services-dominate"
    return "balanced"


@_experiment("queue-scaling")
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
) -> _Verdict:
    """Scaled aggregate queue Q_{<=i}(ut) / u^gamma against its limit law.

    gamma = max(alpha, beta).  Regimes: arrivals dominate (limit
    lam^alpha P_i Y_alpha(t)), services dominate (limit 0, mean window),
    balanced (limit Phi(lam^alpha P_i Y - mu^beta Y~)(t), KS); the balanced
    regime also checks the per-class difference Q_i when i >= 2.
    """
    gamma = max(alpha, beta)
    head = probs.head_sum(i)
    horizon = u * t
    regime = _regime(alpha, beta)
    if regime != "services-dominate":
        _require_ks_can_reject(replicas, p_min)
    # balanced, i >= 2: also the same arrivals thinned one class shorter
    heads = (head, probs.head_sum(i - 1)) if regime == "balanced" and i >= 2 else (head,)

    walks = (FppParams(alpha, lam), FppParams(beta, mu), horizon)
    # the replicas draw from substream(4), the oracles from substream(1)
    ends = map_replicas(partial(_queue_ends, *walks, heads), rng.substream(4),
                        replicas, _queue_rows(*walks), jobs)[:, :, 0]
    observable = ends[:, 0] / u**gamma
    details: dict = {"regime": regime}
    samples = {"queue_scaling_observable_ecdf": observable}

    if regime == "services-dominate":
        statistic = float(observable.mean())
        threshold, direction = degenerate_tol, "<"
        details["mean_scaled"] = statistic
    else:
        coefs = tuple(lam**alpha * h for h in heads)
        if regime == "balanced":  # Phi(c Y - mu^beta Y~)(t) for every c, on shared clocks
            ends_of = partial(_reflected_ends, alpha, coefs, beta, mu**beta, t, resolution)
            oracles = map_replicas(ends_of, rng.substream(1), replicas,
                                   _pair_rows(alpha, beta, t, resolution), jobs)
        else:  # the service clock drops out of the limit: the exact inverse clock
            oracles = coefs[0] * sample_inverse_subordinator_at(alpha, t, rng.substream(1),
                                                                size=replicas)[:, None]
        # the observable is a count over u^gamma: the oracle on that lattice
        oracles = _on_lattice(oracles, u**gamma)
        oracle = oracles[:, 0]
        d, p = ks_two_sample(observable, oracle)
        details["ks"] = {"D": d, "p": p}
        samples["queue_scaling_oracle_ecdf"] = oracle
        p_all = [p]
        if len(heads) == 2:
            # the per-class difference of the two reflections on each pair
            per_class = (ends[:, 0] - ends[:, 1]) / u**gamma
            # a difference of counts, exactly (k_0 - k_1) / u^gamma
            oracle_pc = _on_lattice(oracles[:, 0] - oracles[:, 1], u**gamma)
            d_pc, p_pc = ks_two_sample(per_class, oracle_pc)
            details["ks_per_class"] = {"D": d_pc, "p": p_pc, "class": i}
            samples["queue_scaling_per_class_ecdf"] = per_class
            p_all.append(p_pc)
        statistic, threshold, direction = float(min(p_all)), p_min, ">"
    return _Verdict(statistic, threshold, direction, details, samples)


@_experiment("centered-queue-clt")
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
) -> _Verdict:
    """Reflected compensated netflow, scaled by u^(gamma/2), against the
    reflected difference of Brownian motions on independent inverse clocks."""
    _require_ks_can_reject(replicas, p_min)
    gamma = max(alpha, beta)
    head = probs.head_sum(i)
    horizon = u * t
    rate_a = lam**alpha * head
    rate_b = mu**beta

    # the reflected compensated netflow [A - rate_a Y_a] - [C - rate_b Y_b],
    # A and C Poisson streams run in the clocks' internal times
    ends = partial(_walk_ends, alpha, rate_a, beta, rate_b, horizon, resolution)
    chunk = _pair_rows(alpha, beta, horizon, resolution)
    observable = map_replicas(ends, rng.substream(2), replicas, chunk, jobs) / u ** (gamma / 2.0)

    if alpha != beta:  # the dominated side drops out of the limit
        sides = (alpha, rate_a) if alpha > beta else (beta, rate_b)
    else:
        sides = (alpha, rate_a, beta, rate_b)
    oracle = LimitLawSampler(t, *sides).sample(rng.substream(1), replicas)
    d, p = ks_two_sample(observable, oracle)
    details = {"ks": {"D": d, "p": p}, "mean_observable": float(observable.mean()),
               "mean_oracle": float(oracle.mean())}
    return _Verdict(float(p), p_min, ">", details, {"centered_clt_observable_ecdf": observable,
                                                     "centered_clt_oracle_ecdf": oracle})


def _median_trends(rungs, **rising: bool) -> _Verdict:
    """Column c's median per rung, named by the c-th key, must rise strictly
    along the rungs when its value is True and fall strictly when False; the
    statistic is the least step in the required direction (a - b for a
    falling column, so that equal medians give 0.0, not -0.0)."""
    details, margins = {}, []
    for c, (key, up) in enumerate(rising.items()):
        med = details[key] = [float(np.median(x[:, c])) for x in rungs]
        margins += [b - a if up else a - b for a, b in zip(med, med[1:])]
    return _Verdict(float(min(margins)), 0.0, ">", details)


@_experiment("recurrence")
def verify_recurrence(
    alpha: float,
    lam: float,
    mu: float,
    horizons,
    replicas: int,
    rng: RngStream,
    out_dir: str | None = None,
    jobs: int = 1,
    verbose: bool = True,
) -> _Verdict:
    """Median emptying count and median running maximum of the total queue
    must both grow strictly along increasing horizons.

    Critical regime only: arrivals and services share the index alpha.
    """
    walks = (FppParams(alpha, lam), FppParams(alpha, mu))
    # every arrival feeds the total queue: (emptyings, running max)
    ends = lambda h, sub, m: _queue_ends(*walks, h, (1.0,), sub, m)[:, 0, 1:]
    horizons, rungs = _ladder(ends, partial(_queue_rows, *walks), horizons, 3, rng, replicas, jobs)
    return _median_trends(rungs, median_emptyings=True, median_running_max=True)


@_experiment("oscillation")
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
) -> _Verdict:
    """The difference Y(s) - c Y~(s) of independent inverse clocks must
    oscillate without bound: median running min strictly decreases and median
    running max strictly increases along growing horizons."""
    if not (0.0 < theta < 1.0):
        raise ParameterError("oscillation requires theta in (0, 1); at 1 the difference is degenerate")
    horizons, rungs = _ladder(partial(_clock_extremes, theta, c, resolution),
                              partial(_pair_rows, theta, theta, resolution=resolution),
                              horizons, 2, rng, replicas, jobs)
    return _median_trends(rungs, median_running_min=False, median_running_max=True)


@_experiment("best-ask")
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
) -> _Verdict:
    """Best ask converging to the support infimum: exceedance probabilities
    P(best ask > a + eps) must be nonincreasing in t and small at the largest
    horizon, while the queue near the infimum outgrows t^(beta/2)."""
    if alpha <= beta:
        raise ParameterError("best-ask convergence needs arrivals to dominate: alpha > beta")
    if not (len(eps_values) and all(0.0 < eps < math.inf for eps in eps_values)):
        raise ParameterError(f"need one or more eps in (0, inf), got {list(eps_values)}")
    a = locations.infimum
    eps_main = max(eps_values)

    # serving the lowest location is static priority by location: the
    # customers at locations <= x form their own queue, Phi(A_{<=x} - S).
    # Column j counts the queue within a + eps_j, which keeps an arrival with
    # probability F(a + eps_j); the best ask exceeds a + eps_j exactly when
    # that count is 0
    walks = (FppParams(alpha, lam), FppParams(beta, mu))
    within = tuple(locations.cdf(a + eps) for eps in eps_values)
    ends = lambda h, sub, m: _queue_ends(*walks, h, within, sub, m)[:, :, 0]
    t_values, rungs = _ladder(ends, partial(_queue_rows, *walks), t_values, 2, rng, replicas, jobs)
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
    return _Verdict(statistic, 0.0, ">", details)


# ---------------------------------------------------------------------------
# the verification battery: name -> (seed offset, experiment, parameters at
# the base replica count), in run order

_P2 = ClassProbabilities(np.array([0.3, 0.7]))
_P2_EVEN = ClassProbabilities(np.array([0.5, 0.5]))
_P3 = ClassProbabilities(np.array([0.2, 0.3, 0.5]))

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
        alpha=0.6, lam=2.0, mu=1.0, horizons=(1e2, 1e4, 1e6), replicas=200)),
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


def battery(seed: int, scale: float = 1.0, jobs: int = 1):
    """The battery as (name, runner) pairs in table order; runner(out_dir)
    runs one experiment on RngStream(seed + offset) with every replica count
    scaled by `scale` (at least 20) and returns its report; an experiment
    that takes `jobs` runs on that many workers."""

    def runner(offset, verify, kw):
        kw = dict(kw, replicas=max(20, int(round(kw["replicas"] * scale))))
        if "jobs" in inspect.signature(verify).parameters:
            kw["jobs"] = jobs
        return lambda out_dir: verify(rng=RngStream(seed=seed + offset), out_dir=out_dir, **kw)

    return [(name, runner(*point)) for name, point in BATTERY.items()]
