"""Event-time simulation: fractional Poisson processes, covering clock grids
of the stable subordinator, and multinomial thinning into classes.

Two constructions of the fractional Poisson process are provided and must
agree in law: a renewal construction (partial sums of Mittag-Leffler waiting
times) and a time-change construction (homogeneous Poisson events placed in
inverse-subordinator time and mapped back through the clock's generalized
inverse).

Renewal paths, renewal counts and covering clock grids are partial sums up
to the first one above a level, all built by one read loop, _passage.  Each
step is the transform of a pair of uniforms: a trigonometric Mittag-Leffler
gap, or Kanter's stable level.  A walk draws exactly the pairs it reads, in
reads of its mean count plus one steps, then a quarter of the steps read so
far, for the rows still at or below the level.  So a one-row walk's sums are
the cumsum of its own stream's pairs in order, whatever its reads; many walks
at once draw their pairs read by read, row by row.  Walks that are read, not
only counted, hand back every row's sums flat, row after row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EventCapError, ParameterError
from .samplers import RngStream, _mittag_leffler_steps, _stable_steps
from .samplers import sample_inverse_subordinator_at, sample_positive_stable
from .special import FppParams, _check_theta, _require_positive, inverse_subordinator_moments

DEFAULT_EVENT_CAP = 10_000_000
# clock levels at time t are spaced DEFAULT_RESOLUTION * t^theta, a fixed
# fraction of the clock Y(t)'s natural scale
DEFAULT_RESOLUTION = 1e-3
_CSV_BLOCK = 1024
_CRLF = "\r\n"


def _write_csv(path: str, header: list[str], columns, eol: str = "\n") -> None:
    """Write (values, field) array columns of equal length as CSV rows ended by
    eol (CRLF rows as csv.writer writes them).  A field is "%.17g" (round-trip
    text of a float64, inf as "inf"), "%d", "%s", or "class" for class labels,
    empty for class 0 (none); fields must need no quoting.  Each block of rows
    becomes Python objects and then text through one %-template, so memory
    does not grow with the file."""
    row = ",".join("%s" if field == "class" else field for _, field in columns) + eol
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + eol)
        for lo in range(0, len(columns[0][0]), _CSV_BLOCK):
            block = []
            for values, field in columns:
                objects = values[lo : lo + _CSV_BLOCK].tolist()
                block.append([c or "" for c in objects] if field == "class" else objects)
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


@dataclass(frozen=True)
class EventTimeline:
    """Strictly increasing event times in (0, horizon], optionally labeled."""

    horizon: float
    times: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if not self.horizon > 0:  # also true for nan
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if times.size:
            if not np.all(np.diff(times) > 0):
                raise ParameterError("event times must be strictly increasing")
            if times[0] <= 0 or times[-1] > self.horizon:
                raise ParameterError("event times must lie in (0, horizon]")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            object.__setattr__(self, "labels", labels)
            if labels.shape != times.shape:
                raise ParameterError("labels must match times in length")
            if labels.size and labels.min() < 1:
                raise ParameterError("class labels start at 1")

    def __len__(self) -> int:
        return int(self.times.size)

    def count_at(self, t: float) -> int:
        """Number of events with time <= t."""
        return int(np.searchsorted(self.times, t, side="right"))

    def to_csv(self, path: str) -> None:
        # unlabelled: a zero-strided column of class 0, so every class field is empty
        labels = np.broadcast_to(0, self.times.shape) if self.labels is None else self.labels
        _write_csv(path, ["time", "class"], [(self.times, "%.17g"), (labels, "class")], _CRLF)


@dataclass(frozen=True)
class ClassProbabilities:
    """Thinning probabilities p_1..p_K, all positive, summing to one."""

    p: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ParameterError("p must be a nonempty vector")
        if not np.all(p > 0):  # also false for nan; an inf fails the sum test
            raise ParameterError("all class probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError(f"class probabilities sum to {p.sum()}, not 1")
        cum = np.cumsum(p)
        cum[-1] = 1.0
        object.__setattr__(self, "cumulative", cum)

    @property
    def n_classes(self) -> int:
        return int(self.p.size)

    def head_sum(self, i: int) -> float:
        """P_i = p_1 + ... + p_i."""
        if not 1 <= i <= self.n_classes:
            raise ParameterError(f"class index {i} out of range")
        return float(self.cumulative[i - 1])


def _strictly_increasing(times: np.ndarray) -> np.ndarray:
    """Resolve float-collision ties by nudging later events up to one ulp
    above their predecessor, preserving insertion order.

    Times must be nonnegative: their float64 bit patterns b then order like
    the values and one ulp up is one step up, so the nudged bit patterns
    out[k] = max(b[k], out[k-1] + 1) are the running maximum of b[k] - k
    plus k.
    """
    shift = np.arange(times.size, dtype=np.int64)
    bits = np.ascontiguousarray(times, dtype=np.float64).view(np.int64)
    return (np.maximum.accumulate(bits - shift) + shift).view(np.float64)


_MIN_READ = 64  # steps a read takes at least, to spread its fixed cost
_ROW_CHUNK = 2**17  # first-read steps a chunk of rows takes at most


def _passage(transform, rng: RngStream, rows: int, level: float, mean: float,
             cap: float = math.inf, keep: bool = False):
    """First passage above level of `rows` walks from 0 whose steps are
    transform(pairs) of pairs of uniforms from rng, pairs[..., 0] and
    pairs[..., 1], and whose count of sums at or below the level has mean
    `mean`.  Rows go in chunks of at most _ROW_CHUNK first-read steps.  The
    one read rule: each read draws g.random((live, k, 2)) for the rows still
    at or below the level, first int(min(mean, cap)) + 1 columns, then a
    quarter of the columns read so far, at least _MIN_READ steps over its
    rows; each row's last sum is folded into its next read's first step, so
    the sums continue its cumsum to the last bit.  A walk thus draws exactly
    the pairs its reads take, and a one-row walk's sums are the cumsum of its
    stream's pairs in order, whatever the reads.  Raises EventCapError for a
    row still at or below the level past cap steps.
    Returns (count, sums): each row's number of sums at or below the level
    and, if keep, every row's sums up to its first above, row after row (row r
    holds sums[off[r]:off[r + 1]], off the cumsum of count + 1 from 0)."""
    g = rng.generator()
    first = int(min(mean, cap)) + 1
    count = np.empty(rows, dtype=np.int64)
    kept = [[] for _ in range(rows)] if keep else None
    chunk = max(1, min(rows, _ROW_CHUNK // first))
    for lo in range(0, rows, chunk):
        live = np.arange(lo, min(lo + chunk, rows))
        done, k, tail = 0, max(first, math.ceil(_MIN_READ / live.size)), 0.0
        while True:
            x = transform(g.random((live.size, k, 2)))
            x[:, 0] += tail
            sums = np.cumsum(x, axis=1)
            above = sums > level
            # sums are nondecreasing: a row's count is the index of its first above
            c = np.where(above[:, -1], above.argmax(axis=1), k)
            count[live] = done + c
            if keep:
                for r, row, n in zip(live.tolist(), sums, c.tolist()):
                    kept[r].append(row[: n + 1])
            more = c == k
            if not more.any():
                break
            done += k
            if done > cap:
                raise EventCapError(f"simulation exceeded {cap} events before reaching the horizon")
            live, tail = live[more], sums[more, -1]
            k = max(done // 4, math.ceil(_MIN_READ / live.size))
    return count, np.concatenate(list(chain.from_iterable(kept))) if keep else None


def _mean_count(p: FppParams, horizon: float) -> float:
    """E N(horizon) of the fractional Poisson process p."""
    return p.lam**p.theta * inverse_subordinator_moments(p.theta, horizon)[0]


def _renewal_walks(p: FppParams, horizon: float, rng: RngStream, rows: int,
                   event_cap: float = math.inf, keep: bool = False):
    """_passage over horizon of `rows` walks of Mittag-Leffler gaps, first
    reading the mean count N(horizon) plus one; EventCapError past event_cap
    gaps."""
    transform = lambda pairs: _mittag_leffler_steps(p, pairs)
    return _passage(transform, rng, rows, horizon, _mean_count(p, horizon), event_cap, keep)


def _renewal_rows(p: FppParams, horizon: float, rng: RngStream, rows: int,
                  event_cap: float = math.inf):
    """Event times on (0, horizon] of `rows` renewal paths, the rows of one
    _renewal_walks walk from rng: (count, times), row r's strictly increasing
    times at times[off[r]:off[r + 1]], off the cumsum of count from 0.
    Partial sums can collide in float64 after a long wait; only a row with
    such a tie is nudged, by _strictly_increasing, and a nudge past the
    horizon drops the event."""
    count, sums = _renewal_walks(p, horizon, rng, rows, event_cap, keep=True)
    times = sums[sums <= horizon]  # each row's first n, without its first above
    row = np.repeat(np.arange(rows), count)
    tie = (times[1:] <= times[:-1]) & (row[1:] == row[:-1])
    if tie.any():
        off = np.concatenate([[0], np.cumsum(count)])
        for r in np.unique(row[1:][tie]).tolist():
            times[off[r] : off[r + 1]] = _strictly_increasing(times[off[r] : off[r + 1]])
        inside = times <= horizon
        times, count = times[inside], np.bincount(row[inside], minlength=rows)
    if count.max(initial=0) > event_cap:
        raise EventCapError(f"simulation produced more than {event_cap} events")
    return count, times


def simulate_fpp_renewal(
    p: FppParams,
    horizon: float,
    rng: RngStream,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> EventTimeline:
    """Fractional Poisson events on (0, horizon] as Mittag-Leffler partial sums."""
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    return EventTimeline(horizon=horizon, times=_renewal_rows(p, horizon, rng, 1, event_cap)[1])


def simulate_subordinator(theta: float, step: float, s_max: float, rng: RngStream) -> np.ndarray:
    """Stable subordinator on a fixed regular grid: values[k] = L(k step) for
    k = 0..ceil(s_max / step), built from iid scaled stable draws
    step^(1/theta) S_j."""
    _check_theta(theta)
    if not 0.0 < step <= s_max < math.inf:
        raise ParameterError(f"need 0 < step <= s_max < inf, got step={step}, s_max={s_max}")
    m = int(math.ceil(s_max / step - 1e-12))
    incs = step ** (1.0 / theta) * sample_positive_stable(theta, rng, size=m)
    return np.concatenate([[0.0], np.cumsum(incs)])


def _level_walks(theta: float, step: float, horizon: float, rng: RngStream, rows: int):
    """_passage over horizon of `rows` walks of L's increments over levels
    spaced step, first reading the level count Y(horizon) / step plus one:
    (count, levels), each row's L(step), L(2 step), ... up to its first value
    above the horizon, row after row."""
    mean_y = inverse_subordinator_moments(theta, horizon)[0]
    _require_positive(step=step)
    scale = step ** (1.0 / theta)
    transform = lambda pairs: scale * _stable_steps(theta, pairs)
    return _passage(transform, rng, rows, horizon, mean_y / step, keep=True)


def simulate_fpp_timechange(
    p: FppParams,
    horizon: float,
    rng: RngStream,
    step: float | None = None,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> EventTimeline:
    """Fractional Poisson events via the inverse-clock construction.

    Homogeneous Poisson events of rate lam^theta are placed in clock time on
    (0, Y(horizon)] and mapped back through the right-continuous generalized
    inverse of the simulated clock path.  The clock is discretized on levels
    spaced by ``step`` (default DEFAULT_RESOLUTION * horizon^theta), so event times
    carry a bias of at most one level passage.
    """
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    if step is None:
        step = DEFAULT_RESOLUTION * horizon**p.theta
    # L on the levels k step, from L(0) = 0 to its first value above the
    # horizon: one walk, which reads its own stream as far as it needs
    values = np.append(0.0, _level_walks(p.theta, step, horizon, rng.substream(0), 1)[1])
    g = rng.substream(1).generator()
    # Y(horizon) in the over-approximating grid sense
    k_top = values.size - 1
    y_top = k_top * step
    n_events = int(g.poisson(p.lam**p.theta * y_top))
    if n_events > event_cap:
        raise EventCapError(f"time-change simulation produced more than {event_cap} events")
    y_pos = np.sort(g.random(n_events)) * y_top
    # event at clock position y becomes visible when Y first reaches level
    # ceil(y/step); that happens at the passage time of the previous level
    k_ev = np.clip(np.ceil(y_pos / step).astype(int), 1, k_top)
    times = values[k_ev - 1]
    times = np.where(times <= 0.0, np.nextafter(0.0, 1.0), times)
    times = _strictly_increasing(times)
    keep = times <= horizon
    return EventTimeline(horizon=horizon, times=times[keep])


def thin_events(
    events: EventTimeline, classes: ClassProbabilities, rng: RngStream
) -> EventTimeline:
    """Label each event independently with class i with probability p_i."""
    g = rng.generator()
    u = g.random(len(events))
    labels = np.searchsorted(classes.cumulative, u, side="right") + 1
    return EventTimeline(horizon=events.horizon, times=events.times, labels=labels)


# ---------------------------------------------------------------------------
# vectorized single-time count helpers used by the verification experiments

def renewal_counts(p: FppParams, t: float, n: int, rng: RngStream) -> np.ndarray:
    """n independent copies of the renewal-construction count N(t)."""
    if t < 0 or n < 0:
        raise ParameterError("t and n must be nonnegative")
    return _renewal_walks(p, t, rng, n)[0]


def timechange_counts(p: FppParams, t: float, n: int, rng: RngStream) -> np.ndarray:
    """n independent copies of the time-change-construction count N(t) =
    Pi(lam^theta Y(t)), Pi a unit-rate Poisson process, with the clock value
    Y(t) drawn exactly via (t/S)^theta."""
    if t < 0 or n < 0:
        raise ParameterError("t and n must be nonnegative")
    y_t = sample_inverse_subordinator_at(p.theta, t, rng.substream(0), size=n)
    return rng.substream(1).generator().poisson(p.lam**p.theta * y_t).astype(np.int64)
