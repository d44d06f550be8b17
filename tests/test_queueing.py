"""Reflected queue mechanics: the Skorokhod identity, priority service order,
and the location-marked (best ask) variant."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracq import (
    ClassProbabilities,
    EventTimeline,
    FppParams,
    LocationSampler,
    ParameterError,
    RngStream,
    StepFunction,
    aggregate_lengths,
    simulate_continuum_queue,
    simulate_fpp_renewal,
    simulate_multiclass_queue,
    thin_events,
)
from fracq.queueing import QueueTrajectory, _reflect


def make_timeline(times, horizon, labels=None):
    t = np.asarray(times, dtype=float)
    lab = None if labels is None else np.asarray(labels, dtype=int)
    return EventTimeline(horizon=horizon, times=t, labels=lab)


def one_class_length(arrival_times, departures):
    """Final length of the one-class queue that simulate_multiclass_queue
    runs over these arrivals and the given services."""
    arrivals = make_timeline(arrival_times, departures.horizon, labels=np.ones(len(arrival_times)))
    return int(simulate_multiclass_queue(arrivals, departures, 1).final_lengths()[0])


# step functions and reflection


def test_step_function_semantics():
    f = StepFunction(np.array([1.0, 2.0]), np.array([3.0, -1.0]), initial_value=0.5)
    assert f(0.0) == 0.5
    assert f(1.0) == 3.0  # right continuous at jumps
    assert f(1.5) == 3.0
    assert f(2.0) == -1.0
    assert f.end_value == -1.0
    np.testing.assert_allclose(f(np.array([0.9, 1.0, 5.0])), [0.5, 3.0, -1.0])


def test_step_function_validation():
    with pytest.raises(ParameterError):
        StepFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        StepFunction(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        StepFunction(np.array([1.0]), np.array([1.0, 2.0]))


def test_reflection_by_hand():
    # netflow 1, 0, -1, -2, -1 reflects to 1, 0, 0, 0, 1
    r = _reflect(np.array([1, 0, -1, -2, -1]))
    np.testing.assert_array_equal(r, [1, 0, 0, 0, 1])


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_reflection_properties(signs):
    f = np.cumsum(signs)
    r = _reflect(f)
    assert np.all(r >= 0)
    assert np.all(r >= f)
    # the regulator min(0, inf f) is nonincreasing, so r has the same up-jumps
    reg = f - r
    assert np.all(np.diff(np.concatenate([[0], reg])) <= 0)


# multiclass priority queue


def event_loop_queue(arrivals, departures, n_k):
    """Reference simulator: the priority queue run one event at a time."""
    times = np.concatenate([arrivals.times, departures.times])
    kinds = np.concatenate(
        [np.zeros(len(arrivals), dtype=np.int8), np.ones(len(departures), dtype=np.int8)]
    )
    labels = np.concatenate([arrivals.labels, np.zeros(len(departures), dtype=int)])
    order = np.lexsort((kinds, times))
    times, kinds, labels = times[order], kinds[order], labels[order]

    n_events = times.size
    q = np.zeros(n_k, dtype=np.int64)
    lengths = np.zeros((n_events, n_k), dtype=np.int64)
    event_types = np.empty(n_events, dtype="U1")
    event_classes = np.zeros(n_events, dtype=np.int64)
    inf_track = np.zeros(n_events, dtype=np.int64)
    emptyings: list[float] = []
    netflow = 0
    running_inf = 0
    wasted = 0
    total = 0
    for k in range(n_events):
        if kinds[k] == 0:
            c = labels[k]
            q[c - 1] += 1
            total += 1
            netflow += 1
            event_types[k] = "A"
            event_classes[k] = c
        else:
            netflow -= 1
            running_inf = min(running_inf, netflow)
            if total > 0:
                c = int(np.flatnonzero(q)[0]) + 1
                q[c - 1] -= 1
                total -= 1
                event_types[k] = "D"
                event_classes[k] = c
                if total == 0:
                    emptyings.append(times[k])
            else:
                wasted += 1
                event_types[k] = "W"
        lengths[k] = q
        inf_track[k] = running_inf
    return QueueTrajectory(
        horizon=arrivals.horizon,
        n_classes=n_k,
        event_times=times,
        event_types=event_types,
        event_classes=event_classes,
        lengths=lengths,
        netflow_infimum=inf_track,
        emptying_times=np.asarray(emptyings, dtype=float),
        wasted_services=wasted,
    )


def assert_same_trajectory(got, want):
    assert got.horizon == want.horizon
    assert got.n_classes == want.n_classes
    assert got.wasted_services == want.wasted_services
    for name in (
        "event_times", "event_types", "event_classes", "lengths",
        "netflow_infimum", "emptying_times",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_priority_service_order():
    arrivals = make_timeline([1.0, 2.0, 3.0], 10.0, labels=[2, 1, 2])
    departures = make_timeline([2.5, 3.5], 10.0)
    traj = simulate_multiclass_queue(arrivals, departures)
    assert traj.n_classes == 2
    # t=2.5 serves class 1 (lowest nonempty), t=3.5 serves class 2
    np.testing.assert_array_equal(traj.event_types, ["A", "A", "D", "A", "D"])
    np.testing.assert_array_equal(traj.event_classes, [2, 1, 1, 2, 2])
    np.testing.assert_array_equal(traj.final_lengths(), [0, 1])
    assert traj.wasted_services == 0
    assert traj.emptying_times.size == 0


def test_wasted_service_and_emptying():
    arrivals = make_timeline([2.0], 5.0, labels=[1])
    departures = make_timeline([1.0, 3.0], 5.0)
    traj = simulate_multiclass_queue(arrivals, departures)
    assert traj.wasted_services == 1
    np.testing.assert_array_equal(traj.event_types, ["W", "A", "D"])
    np.testing.assert_allclose(traj.emptying_times, [3.0])
    assert traj.netflow_infimum[-1] == -1


def test_tie_processes_arrival_first():
    arrivals = make_timeline([1.0], 2.0, labels=[1])
    departures = make_timeline([1.0], 2.0)
    traj = simulate_multiclass_queue(arrivals, departures)
    np.testing.assert_array_equal(traj.event_types, ["A", "D"])
    assert traj.wasted_services == 0


def test_queue_validation():
    unlabeled = make_timeline([1.0], 2.0)
    labeled = make_timeline([1.0], 2.0, labels=[2])
    deps = make_timeline([1.5], 2.0)
    with pytest.raises(ParameterError):
        simulate_multiclass_queue(unlabeled, deps)
    with pytest.raises(ParameterError):
        simulate_multiclass_queue(labeled, make_timeline([1.5], 3.0))
    with pytest.raises(ParameterError):
        simulate_multiclass_queue(labeled, deps, n_classes=1)
    wide = simulate_multiclass_queue(labeled, deps, n_classes=5)
    assert wide.lengths.shape == (2, 5)


def test_total_equals_reflected_netflow():
    # dual route: the event loop must reproduce the reflection formula exactly
    rng = RngStream(seed=31)
    arrivals = thin_events(
        simulate_fpp_renewal(FppParams(0.8, 4.0), 40.0, rng),
        ClassProbabilities(np.array([0.3, 0.3, 0.4])),
        rng.substream(1),
    )
    departures = simulate_fpp_renewal(FppParams(0.8, 4.0), 40.0, rng.substream(2))
    traj = simulate_multiclass_queue(arrivals, departures)
    assert len(traj.event_times) == len(arrivals) + len(departures)
    assert_same_trajectory(traj, event_loop_queue(arrivals, departures, 3))

    signs = np.where(traj.event_types == "A", 1, -1)
    np.testing.assert_array_equal(traj.total_lengths, _reflect(np.cumsum(signs)))


def test_conservation():
    rng = RngStream(seed=32)
    arrivals = thin_events(
        simulate_fpp_renewal(FppParams(0.7, 3.0), 25.0, rng),
        ClassProbabilities(np.array([0.5, 0.5])),
        rng.substream(1),
    )
    departures = simulate_fpp_renewal(FppParams(0.7, 3.5), 25.0, rng.substream(2))
    traj = simulate_multiclass_queue(arrivals, departures)
    served = len(departures) - traj.wasted_services
    assert int(traj.final_lengths().sum()) == len(arrivals) - served
    assert traj.wasted_services == -int(traj.netflow_infimum[-1])


@given(
    st.lists(st.sampled_from(["A1", "A2", "A3", "D", "A1+D", "A3+D"]), max_size=120),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_queue_invariants_random_scripts(script, extra_classes):
    # one step per script entry; "Ai+D" is a class-i arrival and a service at
    # one timestamp
    arr_t, labels, dep_t = [], [], []
    for step, s in enumerate(script, start=1):
        if s[0] == "A":
            arr_t.append(step)
            labels.append(int(s[1]))
        if s[-1] == "D":
            dep_t.append(step)
    horizon = float(len(script) + 1)
    arrivals = make_timeline(arr_t, horizon, labels=labels)
    departures = make_timeline(dep_t, horizon)
    n_classes = max(labels, default=1) + extra_classes
    traj = simulate_multiclass_queue(arrivals, departures, n_classes=n_classes)
    assert_same_trajectory(traj, event_loop_queue(arrivals, departures, n_classes))
    assert np.all(traj.lengths >= 0)
    # Skorokhod identity, event by event
    signs = np.where(traj.event_types == "A", 1, -1)
    netflow = np.cumsum(signs)
    q = netflow - np.minimum(np.minimum.accumulate(netflow), 0)
    np.testing.assert_array_equal(traj.total_lengths, q)


def csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path, "rb") as fh:
        return fh.read()


def test_trajectory_csv_matches_csv_writer(tmp_path):
    # wasted services (class 0), three classes, an empty run, and more rows
    # than one formatting block
    arr = make_timeline([0.5, 1.0, 1.0 + 1e-9, 2.0, 3.25], 5.0, labels=[2, 1, 3, 3, 1])
    dep = make_timeline([0.25, 1.0, 2.5, 3.0, 4.0, 4.5, 4.75], 5.0)
    empty = make_timeline([], 5.0, labels=[])
    g = np.random.default_rng(4)
    long_arr = make_timeline(np.cumsum(g.exponential(size=1500)), 1e4,
                             labels=g.integers(1, 3, size=1500))
    long_dep = make_timeline(np.cumsum(g.exponential(size=1500)), 1e4)
    for traj in (simulate_multiclass_queue(arr, dep, n_classes=3),
                 simulate_multiclass_queue(empty, make_timeline([], 5.0), n_classes=2),
                 simulate_multiclass_queue(long_arr, long_dep)):
        header = (["time", "event_type", "class"]
                  + [f"q_{i}" for i in range(1, traj.n_classes + 1)] + ["q_total", "infimum"])
        rows = [
            ["%.17g" % traj.event_times[k], str(traj.event_types[k]),
             "" if traj.event_classes[k] == 0 else int(traj.event_classes[k])]
            + [int(v) for v in traj.lengths[k]]
            + [int(traj.total_lengths[k]), int(traj.netflow_infimum[k])]
            for k in range(traj.event_times.size)
        ]
        traj.to_csv(str(tmp_path / "traj.csv"))
        got = (tmp_path / "traj.csv").read_bytes()
        assert got == csv_writer_bytes(tmp_path / "oracle.csv", header, rows)


def test_aggregate_lengths():
    arrivals = make_timeline([1.0, 2.0, 3.0], 10.0, labels=[2, 1, 2])
    departures = make_timeline([2.5, 3.5], 10.0)
    traj = simulate_multiclass_queue(arrivals, departures)
    q1 = aggregate_lengths(traj, 1)
    q2 = aggregate_lengths(traj, 2)
    assert q1(2.0) == 1.0 and q1(2.5) == 0.0
    assert q2(3.0) == 2.0 and q2(9.0) == 1.0
    grid = np.linspace(0.0, 10.0, 41)
    assert np.all(q1(grid) <= q2(grid))
    with pytest.raises(ParameterError):
        aggregate_lengths(traj, 0)
    with pytest.raises(ParameterError):
        aggregate_lengths(traj, 3)


def test_aggregate_lengths_keeps_last_state_at_tied_times():
    arrivals = make_timeline([1.0], 2.0, labels=[1])
    departures = make_timeline([1.0], 2.0)
    traj = simulate_multiclass_queue(arrivals, departures)
    q = aggregate_lengths(traj, 1)
    assert q(1.0) == 0.0  # arrival then immediate service


# location samplers


def test_location_sampler_validation():
    with pytest.raises(ParameterError):
        LocationSampler.uniform(2.0, 1.0)
    with pytest.raises(ParameterError):
        LocationSampler.uniform(-1.0, 1.0)
    with pytest.raises(ParameterError):
        LocationSampler.point_masses([1.0, 2.0], [0.5])
    with pytest.raises(ParameterError):
        LocationSampler.point_masses([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ParameterError):
        LocationSampler.point_masses([-1.0], [1.0])
    with pytest.raises(ParameterError):
        LocationSampler.empirical([])
    non_finite = [
        lambda: LocationSampler.uniform(0.0, np.inf),
        lambda: LocationSampler.uniform(np.nan, 1.0),
        lambda: LocationSampler.uniform(0.0, np.nan),
        lambda: LocationSampler.point_masses([1.0, np.inf], [0.5, 0.5]),
        lambda: LocationSampler.point_masses([np.nan], [1.0]),
        lambda: LocationSampler.point_masses([1.0, 2.0], [np.nan, 1.0]),
        lambda: LocationSampler.point_masses([1.0, 2.0], [np.inf, 0.5]),
        lambda: LocationSampler.empirical([1.0, np.nan]),
        lambda: LocationSampler.empirical([np.inf]),
    ]
    for make in non_finite:
        with pytest.raises(ParameterError):
            make()


@pytest.mark.parametrize("rate", [np.nan, 0.0, -1.0, np.inf])
def test_exponential_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ParameterError, match=f"rate must be positive and finite, got {rate}$"):
        LocationSampler.exponential(rate)


def test_location_sampler_support():
    assert LocationSampler.uniform(1.5, 2.0).support_infimum() == 1.5
    assert LocationSampler.exponential(2.0).support_infimum() == 0.0
    assert LocationSampler.point_masses([3.0, 1.0], [0.5, 0.5]).support_infimum() == 1.0
    assert LocationSampler.empirical([2.0, 7.0]).support_infimum() == 2.0


_POINTS, _WEIGHTS = np.array([2.0, 1.0, 1.05, 1.1]), np.array([0.4, 0.1, 0.2, 0.3])
_CUM = np.cumsum(_WEIGHTS)
_CUM[-1] = 1.0
_VALUES = np.array([0.5, 1.0, 1.0, 3.0, 0.2])
# each kind: the sampler, cdf probes, and its draw and cdf formulas
LOCATION_CASES = {
    "uniform": (LocationSampler.uniform(1.0, 3.0), [0.5, 1.0, 1.1, 2.0, 2.999, 3.0, 4.0],
                lambda g, n: 1.0 + (3.0 - 1.0) * g.random(n),
                lambda x: float(np.clip((x - 1.0) / (3.0 - 1.0), 0.0, 1.0))),
    "exponential": (LocationSampler.exponential(2.0), [-1.0, 0.0, 0.05, 0.5, 1.0, 3.0],
                    lambda g, n: g.exponential(1.0 / 2.0, size=n),
                    lambda x: float(-np.expm1(-2.0 * max(x, 0.0)))),
    # unsorted atoms; the cdf at an atom includes it, as <= does
    "points": (LocationSampler.point_masses(_POINTS, _WEIGHTS),
               [0.5, 1.0, np.nextafter(1.05, 0.0), 1.05, 1.1, 1.5, 2.0, 2.5],
               lambda g, n: _POINTS[np.searchsorted(_CUM, g.random(n), side="right")],
               lambda x: float(np.diff(_CUM, prepend=0.0)[_POINTS <= x].sum())),
    "empirical": (LocationSampler.empirical(_VALUES), [0.1, 0.2, 0.9, 1.0, 2.9, 3.0, 9.0],
                  lambda g, n: _VALUES[g.integers(0, _VALUES.size, size=n)],
                  lambda x: np.count_nonzero(_VALUES <= x) / _VALUES.size),
}


@pytest.mark.parametrize("kind", LOCATION_CASES)
def test_location_cdf_matches_the_empirical_cdf_of_sample(kind):
    locations, probes, _, _ = LOCATION_CASES[kind]
    n = 200_000
    x = locations.sample(RngStream(seed=35), n)
    for q in probes:
        f = locations.cdf(q)
        assert 0.0 <= f <= 1.0
        assert abs(np.mean(x <= q) - f) <= 4.0 * math.sqrt(f * (1.0 - f) / n) + 1e-12
    assert locations.cdf(-1.0) == 0.0 and locations.cdf(math.inf) == 1.0


@pytest.mark.parametrize("kind", LOCATION_CASES)
def test_location_sampler_kinds_keep_their_formulas(kind):
    # draws bit for bit from the same generator, and the cdf at the probes
    locations, probes, draw, cdf = LOCATION_CASES[kind]
    n = 1000
    assert locations.sample(RngStream(seed=38), n).tobytes() == draw(
        RngStream(seed=38).generator(), n).tobytes()
    assert [locations.cdf(x) for x in probes] == [cdf(x) for x in probes]


def test_location_sampler_draws():
    n = 20_000
    u = LocationSampler.uniform(1.0, 3.0).sample(RngStream(seed=33), n)
    assert u.min() >= 1.0 and u.max() <= 3.0
    assert abs(u.mean() - 2.0) < 4.0 * math.sqrt(1.0 / 3.0 / n)

    pts = LocationSampler.point_masses([1.0, 4.0], [0.25, 0.75]).sample(
        RngStream(seed=34), n
    )
    assert set(np.unique(pts)) == {1.0, 4.0}
    freq = float(np.mean(pts == 4.0))
    assert abs(freq - 0.75) < 4.0 * math.sqrt(0.25 * 0.75 / n)

    emp = LocationSampler.empirical([2.0, 5.0, 9.0]).sample(RngStream(seed=35), n)
    assert set(np.unique(emp)) <= {2.0, 5.0, 9.0}

    ex = LocationSampler.exponential(4.0).sample(RngStream(seed=36), n)
    assert abs(ex.mean() - 0.25) < 4.0 * 0.25 / math.sqrt(n)


# continuum queue


def test_continuum_queue_by_hand():
    arrivals = make_timeline([1.0, 2.0], 5.0)
    departures = make_timeline([3.0], 5.0)
    sampler = LocationSampler.empirical([5.0])  # every mark is 5.0
    path, state = simulate_continuum_queue(arrivals, sampler, departures, RngStream(seed=37))
    assert path(0.5) == np.inf
    assert path(1.0) == 5.0
    assert path(4.0) == 5.0
    assert state.total == 1
    assert state.best_ask == 5.0
    assert state.wasted_services == 0
    assert state.count_within(4.9) == 0
    assert state.count_within(5.0) == 1


def test_continuum_queue_empties_to_inf():
    arrivals = make_timeline([1.0], 5.0)
    departures = make_timeline([2.0, 3.0], 5.0)
    path, state = simulate_continuum_queue(
        arrivals, LocationSampler.empirical([1.0]), departures, RngStream(seed=38)
    )
    assert path.end_value == np.inf
    assert state.total == 0
    assert state.best_ask == np.inf
    assert state.wasted_services == 1


def test_continuum_queue_serves_minimum():
    # all departures after all arrivals: exactly the k smallest marks get served
    n, k = 60, 25
    arrivals = make_timeline(np.arange(1.0, n + 1), 200.0)
    departures = make_timeline(100.0 + np.arange(1.0, k + 1), 200.0)
    sampler = LocationSampler.uniform(0.0, 10.0)
    marks = sampler.sample(RngStream(seed=39), n)  # same stream as the queue uses
    _, state = simulate_continuum_queue(arrivals, sampler, departures, RngStream(seed=39))
    np.testing.assert_allclose(state.locations, np.sort(marks)[k:])


def test_continuum_queue_total_matches_reflection():
    rng = RngStream(seed=40)
    arrivals = simulate_fpp_renewal(FppParams(0.8, 5.0), 30.0, rng)
    departures = simulate_fpp_renewal(FppParams(0.8, 5.0), 30.0, rng.substream(1))
    _, state = simulate_continuum_queue(
        arrivals, LocationSampler.exponential(1.0), departures, rng.substream(2)
    )
    assert state.total == one_class_length(arrivals.times, departures)
    assert state.count_within(np.inf) == state.total


def test_continuum_queue_horizon_mismatch():
    with pytest.raises(ParameterError):
        simulate_continuum_queue(
            make_timeline([1.0], 2.0),
            LocationSampler.exponential(1.0),
            make_timeline([1.0], 3.0),
            RngStream(seed=41),
        )


IDENTITY_SAMPLERS = [
    LocationSampler.uniform(1.0, 2.0),
    LocationSampler.point_masses([1.0, 1.05, 2.0], [0.2, 0.3, 0.5]),
    LocationSampler.empirical([1.5, 1.0, 1.05, 1.0, 2.5]),
]


@given(
    st.lists(st.sampled_from(["A", "D", "A+D"]), max_size=80),
    st.sampled_from(IDENTITY_SAMPLERS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_count_within_is_reflection_of_the_arrivals_below(script, sampler, seed):
    # serving the lowest location is static priority by location: the
    # customers at locations <= x are a queue of their own, fed by their own
    # arrivals against every service.  "A+D" is an arrival and a service at
    # one timestamp.
    arr_t = [step for step, s in enumerate(script, start=1) if s[0] == "A"]
    dep_t = [step for step, s in enumerate(script, start=1) if s[-1] == "D"]
    horizon = float(len(script) + 1)
    arrivals, departures = make_timeline(arr_t, horizon), make_timeline(dep_t, horizon)
    _, state = simulate_continuum_queue(arrivals, sampler, departures, RngStream(seed=seed))
    marks = sampler.sample(RngStream(seed=seed), len(arrivals))  # the queue's own marks
    levels = np.unique(marks)
    # finite x only: at x = inf an empty queue's best ask, inf, is not > x
    for x in np.concatenate([levels, (levels[:-1] + levels[1:]) / 2, [0.5, 3.0]]):
        count = one_class_length(arrivals.times[marks <= x], departures)
        assert state.count_within(x) == count
        assert (state.best_ask > x) == (count == 0)
