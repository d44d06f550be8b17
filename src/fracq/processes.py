"""Event-time simulation: fractional Poisson processes, stable subordinator
paths, inverse-clock grids, and multinomial thinning into classes.

Two constructions of the fractional Poisson process are provided and must
agree in law: a renewal construction (partial sums of Mittag-Leffler waiting
times) and a time-change construction (homogeneous Poisson events placed in
inverse-subordinator time and mapped back through the clock's generalized
inverse).

Renewal paths, renewal counts and covering clock grids are partial sums up
to the first one above a level, all built by one loop, _passage, over (rows,
columns) blocks.  Blocks are drawn in full, so the draws do not depend on how
far a walk reads; transforms and sums run on prefixes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, EventCapError, ParameterError
from .samplers import RngStream, _mittag_leffler_draws, _stable_draws
from .samplers import sample_inverse_subordinator_at, sample_positive_stable
from .special import FppParams, inverse_subordinator_moments

DEFAULT_EVENT_CAP = 10_000_000
_CSV_BLOCK = 64


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write (values, format) columns, format turning a slice of values into
    fields that need no quoting, as csv.writer would (CRLF rows).  Rows are
    formatted a block at a time, so memory does not grow with the file."""
    n = len(columns[0][0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            fields = [fmt(values[lo : lo + _CSV_BLOCK]) for values, fmt in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*fields))


def _fmt(x: float) -> str:
    """Round-trip text of a float64; "%.17g" already spells +inf as "inf"."""
    return "%.17g" % x


def _fmt_all(values) -> list[str]:
    return [_fmt(x) for x in np.asarray(values, dtype=float).tolist()]


def _int_column(values) -> list[str]:
    return list(map(str, np.asarray(values, dtype=int).tolist()))


def _class_column(labels) -> list[str]:
    """Class labels as CSV fields; class 0 (none) is an empty field."""
    return ["" if c == "0" else c for c in _int_column(labels)]


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
        labels = np.zeros(self.times.size) if self.labels is None else self.labels
        _write_csv(path, ["time", "class"], [(self.times, _fmt_all), (labels, _class_column)])


@dataclass(frozen=True)
class SubordinatorGrid:
    """Stable subordinator sampled on the regular grid {0, step, 2 step, ...}."""

    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.step <= 0:
            raise ParameterError("step must be positive")
        if values.size == 0 or values[0] != 0.0:
            raise ParameterError("grid must start at L(0) = 0")
        if np.any(np.diff(values) < 0):
            raise ParameterError("subordinator values must be nondecreasing")

    def to_csv(self, path: str) -> None:
        t = np.arange(self.values.size) * self.step
        _write_csv(path, ["t", "y"], [(t, _fmt_all), (self.values, _fmt_all)])


@dataclass(frozen=True)
class InverseClockGrid:
    """Inverse-subordinator values on query times, an over-approximation
    with bias at most one grid step."""

    t_grid: np.ndarray
    y_values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "y_values", np.asarray(self.y_values, dtype=float))
        if self.t_grid.shape != self.y_values.shape:
            raise ParameterError("t_grid and y_values must have equal length")

    def to_csv(self, path: str) -> None:
        _write_csv(path, ["t", "y"], [(self.t_grid, _fmt_all), (self.y_values, _fmt_all)])


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


def _first_passage(steps, n: int, start, level: float, k0: int):
    """Sums start[r] + cumsum(x[r]) of a (rows, n) block x = steps(key) on a
    prefix of k0 columns, doubling on the rows not yet above the level (start
    None: zeros).  Each pass sums a row's whole prefix: offsetting a later
    chunk's cumsum would round differently.  Returns (count, sums, short):
    each row's number of sums at or below the level, the last pass's sums
    (for one row, up to its first above the level), and which of those rows
    end the block at or below it, None if none does."""
    k = min(max(k0, 1), n)
    live, x = slice(None), steps(np.s_[:, :k])
    count = np.empty(x.shape[0], dtype=np.int64)
    while True:
        sums = np.cumsum(x, axis=1)
        if start is not None:
            sums += start[live, None]
        above = sums > level
        # sums are nondecreasing: a row's count is the index of its first above
        count[live] = c = np.where(above[:, -1], above.argmax(axis=1), k)
        more = c == k
        n_more = np.count_nonzero(more)
        if n_more == 0:
            return count, sums, None
        if k == n:
            return count, sums, more
        if n_more < c.size:
            live, x = np.arange(count.size)[live][more], x[more]
        done, k = k, min(2 * k, n)
        x = np.concatenate([x, steps(np.s_[live, done:k])], axis=1)


def _passage(draw, rows: int, level: float, k0: int, width):
    """First passage above level of `rows` walks from 0 with positive steps, in
    chunks of rows of at most 4M first-block steps.  draw(shape) draws a block
    in full and returns its steps by numpy index; width(drawn) is the width of
    the next block for the rows still short after `drawn` steps.  Returns
    (count, drawn, path): each row's number of sums at or below the level and,
    for one walk, its steps drawn and its sums per block to the first above."""
    count, drawn, path = np.empty(rows, dtype=np.int64), 0, []
    chunk = max(1, min(rows, 4_000_000 // width(0)))
    for lo in range(0, rows, chunk):
        live, size, start, drawn = slice(lo, lo + chunk), min(chunk, rows - lo), None, 0
        while True:
            n = width(drawn)
            c, sums, short = _first_passage(draw((size, n)), n, start, level, k0)
            count[live] = c if start is None else count[live] + c
            drawn += n
            if rows == 1:
                path.append(sums[0, : c[0] + 1])
            if short is None:
                break
            start = sums[short, -1]
            if start.size < size:
                live, size = np.arange(rows)[live][c == n], start.size
    return count, drawn, path


def _renewal_walks(p: FppParams, horizon: float, rng: RngStream, rows: int,
                   min_block: int = 16, event_cap: float = math.inf):
    """_passage over horizon of `rows` walks of Mittag-Leffler gaps in blocks of
    mean + 8 sd of N(horizon), at least min_block, read from a prefix of mean
    + 2 sd; raises EventCapError past event_cap gaps short of the horizon."""
    mean_y, var_y = inverse_subordinator_moments(p.theta, horizon)
    rate = p.lam**p.theta
    sd = math.sqrt(rate**2 * var_y + rate * mean_y + 1.0)
    block = max(min_block, int(rate * mean_y + 8.0 * sd))

    def width(drawn: int) -> int:
        if drawn > event_cap:
            raise EventCapError(
                f"renewal simulation exceeded {event_cap} events before reaching the horizon"
            )
        return block

    draw = lambda shape: _mittag_leffler_draws(p, rng, shape)
    return _passage(draw, rows, horizon, int(rate * mean_y + 2.0 * sd), width)


def _renewal_times(
    p: FppParams, horizon: float, rng: RngStream, min_block: int = 16, event_cap: float = math.inf
) -> np.ndarray:
    """Event times on (0, horizon] of one renewal path: Mittag-Leffler partial
    sums, drawn in blocks of at least min_block and mean + 8 sd of the count."""
    path = _renewal_walks(p, horizon, rng, 1, min_block, event_cap)[2]
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
    return EventTimeline(horizon=horizon, times=_renewal_times(p, horizon, rng, 64, event_cap))


def simulate_subordinator(
    theta: float, step: float, s_max: float, rng: RngStream
) -> SubordinatorGrid:
    """Stable subordinator increments on a regular grid: values[k] = L(k step),
    built from iid scaled stable draws step^(1/theta) S_j."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must be in (0, 1], got {theta}")
    if step <= 0 or s_max < step:
        raise ParameterError("require 0 < step <= s_max")
    m = int(math.ceil(s_max / step - 1e-12))
    incs = step ** (1.0 / theta) * sample_positive_stable(theta, rng, size=m)
    values = np.concatenate([[0.0], np.cumsum(incs)])
    return SubordinatorGrid(step=step, values=values)


def invert_subordinator(grid: SubordinatorGrid, t_grid) -> InverseClockGrid:
    """First-passage inversion: y(t) = min{k step : L(k step) > t}.

    Over-approximates the true inverse clock with bias at most one step.
    Raises CoverageError when the path does not exceed some query time.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.size and t_arr.min() < 0:
        raise ParameterError("query times must be nonnegative")
    if t_arr.size and grid.values[-1] <= t_arr.max():
        raise CoverageError(
            "subordinator path does not exceed the largest query time; extend s_max"
        )
    idx = np.searchsorted(grid.values, t_arr, side="right")
    return InverseClockGrid(t_grid=t_arr, y_values=idx * grid.step)


def default_inverse_clock_step(theta: float, horizon: float) -> float:
    """Default clock-level resolution: 1e-3 of the clock's natural scale."""
    return 1e-3 * max(horizon, 1e-12) ** theta


def _covering_levels(
    theta: float, step: float, horizon: float, rng: RngStream
) -> tuple[np.ndarray, int]:
    """L on the levels k step, from L(0) = 0 up to its first value above the
    horizon, and the number of levels drawn: a first block reaching 1.25 mean
    + 8 sd of Y(horizon), read from a prefix reaching mean + 2 sd, then blocks
    of half the levels drawn (at least 64) until one is above."""
    mean_y, var_y = inverse_subordinator_moments(theta, horizon)
    if not 0.0 < step < math.inf:
        raise ParameterError("require 0 < step <= s_max")
    sd_y = math.sqrt(var_y)
    scale = step ** (1.0 / theta)

    def draw(shape):
        kanter = _stable_draws(theta, rng, shape)
        return lambda key: scale * kanter(key)

    k0 = int((mean_y + 2.0 * sd_y) / step) + 1
    m = int(math.ceil(max(step, 1.25 * mean_y + 8.0 * sd_y + 2.0 * step) / step - 1e-12))
    _, n_levels, path = _passage(
        draw, 1, horizon, k0, lambda drawn: max(64, (drawn + 1) // 2) if drawn else m
    )
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
    spaced by ``step`` (default 1e-3 of its natural scale), so event times
    carry a bias of at most one level passage.
    """
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    if step is None:
        step = default_inverse_clock_step(p.theta, horizon)
    g = rng.generator()
    values, n_levels = _covering_levels(p.theta, step, horizon, rng)
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


def class_count_at(events: EventTimeline, class_id: int, t: float) -> int:
    """Number of class-`class_id` events with time <= t."""
    if events.labels is None:
        raise ParameterError("timeline carries no class labels")
    if class_id < 1:
        raise ParameterError("class labels start at 1")
    upto = int(np.searchsorted(events.times, t, side="right"))
    return int(np.count_nonzero(events.labels[:upto] == class_id))


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
