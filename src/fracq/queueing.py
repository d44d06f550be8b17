"""Reflected queues driven by event timelines.

The total queue length is the Skorokhod reflection of the netflow (arrivals
minus attempted services): Q(t) = f(t) - min(0, inf_{s<=t} f(s)).  Class
resolution follows a static priority rule: each service removes a customer
from the lowest-indexed nonempty class, and a service finding an empty system
is wasted.  A continuum variant marks arrivals with locations and serves the
current minimum (best ask), their law a LocationSampler: a kind, an
infimum, a cdf and a draw, each bound by the constructor of its kind.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .processes import _CRLF, EventTimeline, _write_csv
from .samplers import RngStream
from .special import _require_positive


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function with jumps at
    strictly increasing positive times."""

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float = 0.0

    def __post_init__(self) -> None:
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        if jt.shape != vals.shape or jt.ndim != 1:
            raise ParameterError("jump_times and values must be equal-length vectors")
        if jt.size:
            if jt[0] <= 0:
                raise ParameterError("jumps must occur at positive times")
            if not np.all(np.diff(jt) > 0):
                raise ParameterError("jump times must be strictly increasing")

    def __call__(self, t):
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate([[self.initial_value], self.values])
        out = padded[idx]
        return float(out) if np.isscalar(t) else out

    @property
    def end_value(self) -> float:
        return float(self.values[-1]) if self.values.size else float(self.initial_value)


def _reflect(netflow: np.ndarray) -> np.ndarray:
    """Skorokhod reflection at zero of a path started at 0:
    netflow - min(0, running minimum of netflow)."""
    return netflow - np.minimum(np.minimum.accumulate(netflow), 0)


def _merge_order(arrival_times: np.ndarray, departure_times: np.ndarray) -> np.ndarray:
    """Time order of the concatenated (arrivals, departures) events, with
    arrivals before departures at ties; indices below the arrival count are
    arrivals."""
    times = np.concatenate([arrival_times, departure_times])
    is_departure = np.arange(times.size) >= arrival_times.size
    return np.lexsort((is_departure, times))


@dataclass(frozen=True)
class QueueTrajectory:
    """Event-by-event state of the multiclass priority queue."""

    horizon: float
    n_classes: int
    event_times: np.ndarray
    event_types: np.ndarray  # 'A' arrival, 'D' departure, 'W' wasted service
    event_classes: np.ndarray  # class served or arriving; 0 for wasted services
    lengths: np.ndarray  # shape (n_events, n_classes), state after the event
    netflow_infimum: np.ndarray  # running min(0, inf netflow) after the event
    emptying_times: np.ndarray
    wasted_services: int

    @property
    def total_lengths(self) -> np.ndarray:
        return self.lengths.sum(axis=1)

    def final_lengths(self) -> np.ndarray:
        if self.lengths.shape[0] == 0:
            return np.zeros(self.n_classes, dtype=np.int64)
        return self.lengths[-1]

    def to_csv(self, path: str) -> None:
        header = (
            ["time", "event_type", "class"]
            + [f"q_{i}" for i in range(1, self.n_classes + 1)]
            + ["q_total", "infimum"]
        )
        columns = [
            (self.event_times, "%.17g"),
            (self.event_types, "%s"),
            (self.event_classes, "class"),
            *((q, "%d") for q in self.lengths.T),
            (self.total_lengths, "%d"),
            (self.netflow_infimum, "%d"),
        ]
        _write_csv(path, header, columns, _CRLF)


def simulate_multiclass_queue(
    arrivals: EventTimeline,
    departures: EventTimeline,
    n_classes: int | None = None,
) -> QueueTrajectory:
    """Run the priority queue over merged arrival and service events.

    Arrivals must be labeled with classes 1..K.  Ties between an arrival and a
    service at the same instant are resolved arrival first.  Each service
    removes a customer from the lowest-indexed nonempty class; a service that
    finds the system empty is counted as wasted.
    """
    if arrivals.labels is None:
        raise ParameterError("arrivals must carry class labels")
    if arrivals.horizon != departures.horizon:
        raise ParameterError("arrival and departure timelines must share one horizon")
    k_seen = int(arrivals.labels.max(initial=0))
    n_k = k_seen if n_classes is None else int(n_classes)
    if n_k < max(1, k_seen):
        raise ParameterError(f"n_classes={n_k} below largest arrival label {k_seen}")

    order = _merge_order(arrivals.times, departures.times)
    times = np.concatenate([arrivals.times, departures.times])[order]
    is_arrival = order < len(arrivals)
    labels = np.concatenate([arrivals.labels, np.zeros(len(departures), dtype=int)])[order]

    # Q_1 + ... + Q_i is the reflection of the netflow of classes <= i
    # against every service (static priority), exactly and event by event
    services = (~is_arrival).astype(np.int64)
    heads = np.empty((times.size, n_k), dtype=np.int64)
    for i in range(n_k):
        heads[:, i] = _reflect(np.cumsum((is_arrival & (labels <= i + 1)) - services))
    prev = np.concatenate([np.zeros((1, n_k), dtype=np.int64), heads])[:-1]
    # a service serves the lowest class whose aggregate drops; when even the
    # total does not drop the system was empty and the service is wasted
    drops = prev > heads
    served = drops[:, -1]
    event_types = np.where(is_arrival, "A", np.where(served, "D", "W"))
    event_classes = np.where(
        is_arrival, labels, np.where(served, drops.argmax(axis=1) + 1, 0)
    ).astype(np.int64)
    total = heads[:, -1]
    netflow = np.cumsum(np.where(is_arrival, 1, -1))
    return QueueTrajectory(
        horizon=arrivals.horizon,
        n_classes=n_k,
        event_times=times,
        event_types=event_types,
        event_classes=event_classes,
        lengths=np.diff(heads, axis=1, prepend=0),
        netflow_infimum=netflow - total,
        emptying_times=times[served & (total == 0)],
        wasted_services=int(np.count_nonzero(~is_arrival & ~served)),
    )


def aggregate_lengths(traj: QueueTrajectory, upto_class: int) -> StepFunction:
    """Step path of Q_1 + ... + Q_i between consecutive distinct event times."""
    if not 1 <= upto_class <= traj.n_classes:
        raise ParameterError(f"class index {upto_class} out of range")
    agg = traj.lengths[:, :upto_class].sum(axis=1).astype(float)
    t = traj.event_times
    if t.size == 0:
        return StepFunction(t, agg, 0.0)
    # several events can share one float timestamp; keep the last state
    last_of_time = np.flatnonzero(np.concatenate([np.diff(t) > 0, [True]]))
    return StepFunction(t[last_of_time], agg[last_of_time], 0.0)


@dataclass(frozen=True)
class LocationSampler:
    """Distribution of arrival locations on the positive half-line, fixed by
    its constructor: its kind, support infimum, cdf(x) = P(location <= x),
    and draw(g, n), n locations from the numpy Generator g."""

    kind: str
    infimum: float
    cdf: Callable[[float], float]
    draw: Callable[[np.random.Generator, int], np.ndarray]

    @classmethod
    def uniform(cls, a: float, b: float) -> "LocationSampler":
        if not (0 <= a < b < np.inf):
            raise ParameterError("require 0 <= a < b < inf")
        return cls("uniform", a, lambda x: float(np.clip((x - a) / (b - a), 0.0, 1.0)),
                   lambda g, n: a + (b - a) * g.random(n))

    @classmethod
    def exponential(cls, rate: float) -> "LocationSampler":
        _require_positive(rate=rate)
        return cls("exponential", 0.0, lambda x: float(-np.expm1(-rate * max(x, 0.0))),
                   lambda g, n: g.exponential(1.0 / rate, size=n))

    @classmethod
    def point_masses(cls, locations, weights) -> "LocationSampler":
        locs = np.asarray(locations, dtype=float)
        w = np.asarray(weights, dtype=float)
        if locs.size == 0 or locs.shape != w.shape:
            raise ParameterError("locations and weights must be equal-length nonempty vectors")
        if (not np.all((locs >= 0) & (locs < np.inf)) or not np.all(w > 0)
                or abs(w.sum() - 1.0) > 1e-12):
            raise ParameterError("need finite nonnegative locations and positive weights summing to 1")
        cum = np.cumsum(w)
        cum[-1] = 1.0
        mass = np.diff(cum, prepend=0.0)
        return cls("points", float(locs.min()), lambda x: float(mass[locs <= x].sum()),
                   lambda g, n: locs[np.searchsorted(cum, g.random(n), side="right")])

    @classmethod
    def empirical(cls, values) -> "LocationSampler":
        vals = np.asarray(values, dtype=float)
        if vals.size == 0 or not np.all((vals >= 0) & (vals < np.inf)):
            raise ParameterError("need a nonempty sample of finite nonnegative locations")
        return cls("empirical", float(vals.min()),
                   lambda x: np.count_nonzero(vals <= x) / vals.size,
                   lambda g, n: vals[g.integers(0, vals.size, size=n)])

    def support_infimum(self) -> float:
        return self.infimum

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        return self.draw(rng.generator(), n)


@dataclass(frozen=True)
class ContinuumQueueState:
    """Final state of the location-marked queue: the multiset of waiting
    locations (sorted) and the wasted-service count."""

    locations: np.ndarray
    wasted_services: int

    @property
    def total(self) -> int:
        return int(self.locations.size)

    @property
    def best_ask(self) -> float:
        return float(self.locations[0]) if self.locations.size else np.inf

    def count_within(self, x: float) -> int:
        """Number of waiting customers at locations <= x."""
        return int(np.searchsorted(self.locations, x, side="right"))


def simulate_continuum_queue(
    arrivals: EventTimeline,
    locations: LocationSampler,
    departures: EventTimeline,
    rng: RngStream,
) -> tuple[StepFunction, ContinuumQueueState]:
    """Serve the minimum-location customer at each departure event.

    Returns the best-ask path (minimum waiting location after each event,
    +inf when empty) and the final state.  Ties at equal times process the
    arrival first; a service on an empty system is wasted.
    """
    if arrivals.horizon != departures.horizon:
        raise ParameterError("arrival and departure timelines must share one horizon")
    marks = locations.sample(rng, len(arrivals))
    order = _merge_order(arrivals.times, departures.times)
    path_t = np.concatenate([arrivals.times, departures.times])[order]

    # every pushed location stays waiting until it is popped
    heap: list[float] = []
    wasted = 0
    path_v = np.empty(order.size, dtype=float)
    for j, idx in enumerate(order):
        if idx < marks.size:
            heapq.heappush(heap, float(marks[idx]))
        elif heap:
            heapq.heappop(heap)
        else:
            wasted += 1
        path_v[j] = heap[0] if heap else np.inf
    if path_t.size:
        last_of_time = np.flatnonzero(np.concatenate([np.diff(path_t) > 0, [True]]))
        path_t, path_v = path_t[last_of_time], path_v[last_of_time]
    final = np.sort(np.asarray(heap, dtype=float))
    return (
        StepFunction(path_t, path_v, np.inf),
        ContinuumQueueState(locations=final, wasted_services=wasted),
    )
