"""Event-time simulation: fractional Poisson processes, covering clock grids
of the stable subordinator, and multinomial thinning into classes.

Two constructions of the fractional Poisson process are provided and must
agree in law: a renewal construction (partial sums of Mittag-Leffler waiting
times) and a time-change construction (homogeneous Poisson events placed in
inverse-subordinator time and mapped back through the clock's generalized
inverse).

Renewal paths, renewal counts and covering clock grids are partial sums up
to the first one above a level, all built by one loop, _passage, over (rows,
columns) blocks and sized by one rule: mean + 2 sd, then half the steps
drawn, in chunks of at most 1M first-block steps.  A walk reads its block a
chunk of columns at a time and stops at its first sum above the level;
transforms and sums run on what it reads.  Each step is the transform of a
pair of uniforms: a trigonometric Mittag-Leffler gap, or Kanter's stable
level.  A one-row walk draws its pairs from its own stream in the order it
reads them and only as far as it reads, so its sums do not depend on the
sizing rule or the reads, which set its speed only; a block of more rows
draws all its pairs first, so its numbers follow the sizing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EventCapError, ParameterError
from .samplers import RngStream, _mittag_leffler_steps, _stable_steps
from .samplers import sample_inverse_subordinator_at, sample_positive_stable
from .special import FppParams, inverse_subordinator_moments

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
        if self.horizon <= 0:
            raise ParameterError("horizon must be positive")
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
_MIN_BLOCK = 16  # columns a block draws at least


def _first_passage(steps, shape: tuple[int, int], start, level: float, k: int):
    """Sums cumsum(x[r]) of a (rows, n) block x = steps(key) up to each row's
    first above the level, read a chunk of columns at a time on the rows
    still at or below it: k columns, then a quarter more of the columns read
    so far each time, a read taking at least _MIN_READ steps over its rows.
    Each row's start (start None: zeros) is folded into its first step, and
    its running sum into its next chunk's first step, so the sums continue
    the whole walk's cumsum to the last bit, whatever the chunks.
    Returns (count, ends, path): each row's number of sums at or below the
    level, the last sums of the rows that end the block at or below it (in
    row order), and for a one-row block its sums per read, up to its first
    above the level."""
    rows, n = shape
    k = min(max(k, math.ceil(_MIN_READ / rows)), n)
    live, done, path, x = slice(None), 0, [], steps(np.s_[:, :k])
    if start is not None:
        x[:, 0] += start
    count = np.empty(rows, dtype=np.int64)
    while True:
        sums = np.cumsum(x, axis=1)
        above = sums > level
        # sums are nondecreasing: a row's count is the index of its first above
        c = np.where(above[:, -1], above.argmax(axis=1), k - done)
        count[live] = done + c
        if rows == 1:
            path.append(sums[0, : c[0] + 1])
        more = c == k - done
        if k == n or not more.any():
            return count, sums[more, -1], path
        if not more.all():
            live, sums = np.arange(rows)[live][more], sums[more]
        done, k = k, min(n, k + max(k // 4, math.ceil(_MIN_READ / sums.shape[0])))
        x = steps(np.s_[live, done:k])
        x[:, 0] += sums[:, -1]


def _pair_block(transform, rng: RngStream, shape: tuple[int, int]):
    """A (rows, n) block of steps transform(pairs), pairs[..., 0] and
    pairs[..., 1] uniforms, returned by numpy index.  A one-row block draws
    g.random((1, m, 2)) for the m columns each read takes, so its reads must
    take its columns in order, each once, and give the steps of one stream of
    pairs however they are chunked.  A block of more rows draws all its pairs
    first, g.random((rows, n, 2)), and transforms the ones each read takes."""
    g = rng.generator()
    if shape[0] == 1:
        def read(key):
            start, stop, _ = key[1].indices(shape[1])
            return transform(g.random((1, stop - start, 2)))
        return read
    pairs = g.random((*shape, 2))
    return lambda key: transform(pairs[key])


def _passage(draw, rows: int, level: float, mean: float, sd: float, cap: float = math.inf):
    """First passage above level of `rows` walks from 0 with positive steps,
    whose count of sums at or below it has mean `mean` and sd `sd`, in chunks
    of rows of at most 1M first-block steps.  draw(shape) draws a block and
    returns its steps by numpy index.  The one sizing rule: a first block of
    int(mean + 2 sd) + 1 steps (at most cap + 1), read from int(mean) + 1
    columns, then blocks of half the steps drawn, read from a quarter, for
    the rows still short; at least _MIN_BLOCK steps each.  Raises
    EventCapError past cap steps.
    Returns (count, drawn, path): each row's number of sums at or below the
    level and, for one walk, the steps its blocks span (it draws only the
    ones it reads) and its sums per read to the first above."""
    first = max(_MIN_BLOCK, int(min(mean + 2.0 * sd, cap)) + 1)
    count, drawn, path = np.empty(rows, dtype=np.int64), 0, []
    chunk = max(1, min(rows, 1_000_000 // first))
    for lo in range(0, rows, chunk):
        live, size, start, drawn = slice(lo, lo + chunk), min(chunk, rows - lo), None, 0
        n, k = first, int(mean) + 1
        while True:
            c, ends, reads = _first_passage(draw((size, n)), (size, n), start, level, k)
            count[live] = c if start is None else count[live] + c
            drawn += n
            if rows == 1:
                path += reads
            if ends.size == 0:
                break
            if drawn > cap:
                raise EventCapError(f"simulation exceeded {cap} events before reaching the horizon")
            start = ends
            if start.size < size:
                live, size = np.arange(rows)[live][c == n], start.size
            n, k = max(_MIN_BLOCK, drawn // 2), drawn // 4
    return count, drawn, path


def _renewal_walks(p: FppParams, horizon: float, rng: RngStream, rows: int,
                   event_cap: float = math.inf):
    """_passage over horizon of `rows` walks of Mittag-Leffler gaps: blocks of
    mean + 2 sd of the count N(horizon), then of half the gaps drawn, rows in
    chunks of at most 1M first-block gaps; EventCapError past event_cap gaps."""
    mean_y, var_y = inverse_subordinator_moments(p.theta, horizon)
    rate = p.lam**p.theta
    sd = math.sqrt(rate**2 * var_y + rate * mean_y)
    draw = lambda shape: _pair_block(lambda pairs: _mittag_leffler_steps(p, pairs), rng, shape)
    return _passage(draw, rows, horizon, rate * mean_y, sd, event_cap)


def _renewal_times(
    p: FppParams, horizon: float, rng: RngStream, event_cap: float = math.inf
) -> np.ndarray:
    """Event times on (0, horizon] of one renewal path: Mittag-Leffler partial
    sums, read by _passage's one sizing rule (mean + 2 sd, then half) from
    rng, which serves this walk alone."""
    path = _renewal_walks(p, horizon, rng, 1, event_cap)[2]
    times = path[0] if len(path) == 1 else np.concatenate(path)
    # partial sums can collide in float64 after a long wait
    times = _strictly_increasing(times[times <= horizon])
    times = times[times <= horizon]
    if times.size > event_cap:
        raise EventCapError(f"simulation produced more than {event_cap} events")
    return times


def simulate_fpp_renewal(
    p: FppParams,
    horizon: float,
    rng: RngStream,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> EventTimeline:
    """Fractional Poisson events on (0, horizon] as Mittag-Leffler partial sums."""
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    return EventTimeline(horizon=horizon, times=_renewal_times(p, horizon, rng, event_cap))


def simulate_subordinator(theta: float, step: float, s_max: float, rng: RngStream) -> np.ndarray:
    """Stable subordinator on a fixed regular grid: values[k] = L(k step) for
    k = 0..ceil(s_max / step), built from iid scaled stable draws
    step^(1/theta) S_j."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must be in (0, 1], got {theta}")
    if not 0.0 < step <= s_max < math.inf:
        raise ParameterError(f"need 0 < step <= s_max < inf, got step={step}, s_max={s_max}")
    m = int(math.ceil(s_max / step - 1e-12))
    incs = step ** (1.0 / theta) * sample_positive_stable(theta, rng, size=m)
    return np.concatenate([[0.0], np.cumsum(incs)])


def _covering_levels(
    theta: float, step: float, horizon: float, rng: RngStream
) -> tuple[np.ndarray, int]:
    """L on the levels k step, from L(0) = 0 up to its first value above the
    horizon, and the number of levels its blocks span, in _passage's blocks
    for the level count Y(horizon) / step: mean + 2 sd, then half the levels
    spanned.  The walk reads rng in order, so rng serves it alone."""
    mean_y, var_y = inverse_subordinator_moments(theta, horizon)
    if not 0.0 < step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {step}")
    scale = step ** (1.0 / theta)
    draw = lambda shape: _pair_block(lambda pairs: scale * _stable_steps(theta, pairs), rng, shape)
    _, n_levels, path = _passage(draw, 1, horizon, mean_y / step, math.sqrt(var_y) / step)
    return np.concatenate([np.zeros(1), *path]), n_levels


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
    # the clock's walk reads its own stream as far as it needs
    values, n_levels = _covering_levels(p.theta, step, horizon, rng.substream(0))
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
    k_ev = np.clip(np.ceil(y_pos / step).astype(int), 1, n_levels)
    # levels above k_top are passed after the horizon
    times = values[k_ev[k_ev <= k_top] - 1]
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
