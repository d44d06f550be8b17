"""Tests of the benchmark itself: every output check passes on fracq's real
outputs and fails on a planted defect, `jobs` does not change a report, and
the tracer records what the per-layer metrics need.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fracq  # noqa: E402  (workloads put src on the path)

SEED = 7
TINY = 1 / 40  # share of the battery's replica counts used here


def _run(ops):
    with contextlib.redirect_stdout(io.StringIO()):
        return {op.name: (op, op.run()) for op in ops}


def _passes(runs):
    return {name: op.check(result) for name, (op, result) in runs.items()}


def _rewrite_ecdf(path: str, fn) -> None:
    """Apply fn to every value of an ecdf artifact, keeping its weights."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w") as fh:
        fh.write("x,F\n")
        for r in rows:
            fh.write(f"{fn(float(r['x'])):.17g},{r['F']}\n")


class _Report:
    """Stands in for an ExperimentReport whose dict a test has altered."""

    def __init__(self, d: dict) -> None:
        self._d = d

    def to_dict(self) -> dict:
        return self._d


def _check_altered(op, result, alter) -> list[str]:
    d = json.loads(json.dumps(result.to_dict()))
    alter(d)
    return op.check(_Report(d))


@pytest.fixture(scope="module")
def queue_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("queue_limits")
    return _run(workloads.queue_limits(SEED, out, jobs=1, scale=TINY))


@pytest.fixture(scope="module")
def count_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("count_laws")
    return _run(workloads.count_laws(SEED, out, scale=TINY))


@pytest.fixture(scope="module")
def paths_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("event_paths")


@pytest.fixture(scope="module")
def path_runs(paths_dir):
    return _run(workloads.event_paths(SEED, paths_dir, scale=1 / 16))


def _trajectory_rows(paths_dir):
    src = paths_dir / "queue" / "0" / "trajectory.csv"
    assert not checks.trajectory(str(src), 3)
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows, next(i for i, r in enumerate(rows) if r[1] == "D")


def _write_rows(path, rows) -> str:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


@pytest.mark.parametrize("runs", ["queue_runs", "count_runs", "path_runs"])
def test_real_outputs_pass(runs, request):
    problems = _passes(request.getfixturevalue(runs))
    assert problems and not any(problems.values()), problems


def test_jobs_does_not_change_a_report(queue_runs, tmp_path):
    threaded = _run(workloads.queue_limits(SEED, tmp_path, jobs=2, scale=TINY))
    assert threaded.keys() == queue_runs.keys()
    for name, (_, report) in queue_runs.items():
        serial, pooled = report.to_dict(), threaded[name][1].to_dict()
        # the artifacts are the same files under another directory
        a, b = serial.pop("artifacts"), pooled.pop("artifacts")
        assert pooled == serial, name
        assert [Path(p).read_bytes() for p in b] == [Path(p).read_bytes() for p in a], name


# ---------------------------------------------------------------------------
# queue_limits

def test_arrivals_oracle_shift_fails(queue_runs):
    op, report = queue_runs["queue_scaling_arrivals"]
    d = report.artifacts[0].rsplit("/", 1)[0]
    assert not op.check(report)
    _rewrite_ecdf(f"{d}/queue_scaling_oracle_ecdf.csv", lambda x: 2.0 * x)
    assert any("oracle mean" in p for p in op.check(report))
    _rewrite_ecdf(f"{d}/queue_scaling_oracle_ecdf.csv", lambda x: x / 2.0)
    assert not op.check(report)


def test_off_lattice_or_negative_queue_fails(queue_runs):
    op, report = queue_runs["queue_scaling_balanced"]
    d = report.artifacts[0].rsplit("/", 1)[0]
    path = f"{d}/queue_scaling_per_class_ecdf.csv"
    original = Path(path).read_text()
    _rewrite_ecdf(path, lambda x: x + 0.3 / 1e3**0.6)
    assert any("lattice" in p for p in op.check(report))
    _rewrite_ecdf(path, lambda x: -x - 0.3)
    assert any("negative" in p for p in op.check(report))
    Path(path).write_text(original)
    assert not op.check(report)


@pytest.mark.parametrize("name, artifact", [
    ("queue_scaling_balanced", "queue_scaling_oracle_ecdf.csv"),
    ("centered_clt_balanced", "centered_clt_oracle_ecdf.csv"),
])
def test_balanced_oracle_shift_fails(queue_runs, name, artifact):
    op, report = queue_runs[name]
    path = f"{report.artifacts[0].rsplit('/', 1)[0]}/{artifact}"
    original = Path(path).read_text()
    _rewrite_ecdf(path, lambda x: x + 10.0)
    assert any("observable vs oracle" in p for p in op.check(report))
    Path(path).write_text(original)


def test_oscillation_medians_must_bracket_zero(queue_runs):
    op, report = queue_runs["oscillation_c_1"]
    bad = _check_altered(op, report, lambda d: d["details"]["median_running_min"].__setitem__(0, 0.5))
    assert any("bracket" in p for p in bad)


# ---------------------------------------------------------------------------
# count_laws

def test_count_shift_and_fraction_fail(count_runs):
    op, report = count_runs["pmf_theta_0.7"]
    path = [a for a in report.artifacts if a.endswith("pmf_renewal_ecdf.csv")][0]
    original = Path(path).read_text()
    _rewrite_ecdf(path, lambda x: x + 1.0)
    assert any("renewal count mean" in p for p in op.check(report))
    _rewrite_ecdf(path, lambda x: x + 0.5)
    assert any("non-count" in p for p in op.check(report))
    Path(path).write_text(original)
    _rewrite_ecdf(path, lambda x: 2.0 * x)
    assert any("renewal count variance" in p for p in op.check(report))
    Path(path).write_text(original)


def test_covariance_target_and_z_fail(count_runs):
    op, report = count_runs["covariance"]
    bad = _check_altered(op, report, lambda d: d["details"].__setitem__("target_12", d["details"]["target_12"] * 1.01))
    assert any("closed form" in p for p in bad)
    bad = _check_altered(op, report, lambda d: d["details"].__setitem__("z_33", 6.5))
    assert any("z_33" in p for p in bad)


def test_lln_oracle_shift_fails(count_runs):
    op, report = count_runs["lln_theta_0.7"]
    path = [a for a in report.artifacts if a.endswith("lln_class2_oracle_ecdf.csv")][0]
    original = Path(path).read_text()
    _rewrite_ecdf(path, lambda x: 2.0 * x)
    assert any("class 2 oracle mean" in p for p in op.check(report))
    Path(path).write_text(original)


def test_fclt_mean_and_second_moment_fail(count_runs):
    op, report = count_runs["fclt_theta_0.7"]
    path = [a for a in report.artifacts if a.endswith("fclt_class1_observable_ecdf.csv")][0]
    original = Path(path).read_text()
    _rewrite_ecdf(path, lambda x: x + 1.0)
    assert any("class 1 observable mean" in p for p in op.check(report))
    _rewrite_ecdf(path, lambda x: 4.0 * (x - 1.0))
    assert any("class 1 observable second moment" in p for p in op.check(report))
    Path(path).write_text(original)


def test_pmf_table_truncation_and_mean_fail(count_runs):
    op, table = count_runs["pmf_table_theta_0.7"]
    assert any("sums to" in p for p in op.check(table[:3]))
    bumped = table.copy()
    bumped[1] += 1e-7
    bumped[2] -= 1e-7
    assert any("mean" in p for p in op.check(bumped))


# ---------------------------------------------------------------------------
# event_paths

def test_swapped_served_class_fails(path_runs, paths_dir, tmp_path):
    rows, k = _trajectory_rows(paths_dir)
    rows[k][2] = str(int(rows[k][2]) % 3 + 1)
    bad = _write_rows(tmp_path / "trajectory.csv", rows)
    assert any("served" in p for p in checks.trajectory(bad, 3))


def test_wasted_service_on_nonempty_queue_fails(path_runs, paths_dir, tmp_path):
    rows, k = _trajectory_rows(paths_dir)
    rows[k][1], rows[k][2] = "W", ""
    bad = _write_rows(tmp_path / "trajectory.csv", rows)
    assert any("waiting" in p for p in checks.trajectory(bad, 3))


def test_changed_queue_length_breaks_the_identity(path_runs, paths_dir, tmp_path):
    rows, k = _trajectory_rows(paths_dir)
    rows[k][4] = str(int(rows[k][4]) + 1)
    bad = _write_rows(tmp_path / "trajectory.csv", rows)
    assert any("reflection" in p for p in checks.trajectory(bad, 3))


def test_continuum_identities_fail_on_changed_state(path_runs):
    _, (arr, dep, path, state) = path_runs["continuum_200"]
    args = [arr.times.tolist(), dep.times.tolist(), path.jump_times.tolist(), path.values.tolist()]
    assert not checks.continuum_queue(*args, state.total, state.wasted_services, (1.0, 2.0))
    assert checks.continuum_queue(*args, state.total + 1, state.wasted_services, (1.0, 2.0))
    assert checks.continuum_queue(*args, state.total, state.wasted_services + 1, (1.0, 2.0))
    values = list(args[3])
    k = next(i for i, v in enumerate(values) if not math.isinf(v))
    values[k] = math.inf
    assert checks.continuum_queue(*args[:3], values, state.total, state.wasted_services, (1.0, 2.0))
    values[k] = 2.5
    assert checks.continuum_queue(*args[:3], values, state.total, state.wasted_services, (1.0, 2.0))


def test_timeline_tie_or_overrun_fails(tmp_path):
    good = tmp_path / "timeline.csv"
    good.write_text("time,class\n0.5,\n1.0,\n2.0,\n")
    assert not checks.timeline(str(good), 2.0)
    assert checks.timeline(str(good), 1.5)
    good.write_text("time,class\n0.5,\n1.0,\n1.0,\n")
    assert checks.timeline(str(good), 2.0)


# ---------------------------------------------------------------------------
# tracer and metric names

def test_tracer_wraps_every_binding_and_counts_variates():
    tracer = tracing.Tracer()
    original = fracq.sample_positive_stable
    tracer.install()
    try:
        assert fracq.processes.sample_positive_stable is fracq.samplers.sample_positive_stable
        assert fracq.sample_positive_stable is not original
        fracq.simulate_subordinator(0.7, 0.01, 1.0, fracq.RngStream(3))
    finally:
        tracer.uninstall()
    assert fracq.sample_positive_stable is original
    spans = tracer.take()
    names = {s[1] for s in spans}
    assert {"processes.simulate_subordinator", "samplers.sample_positive_stable",
            "samplers.RngStream.generator"} <= names
    m = tracing.layer_metrics(spans)
    assert m["samplers.stable_variates"] == 100
    assert m["samplers.generators_built"] == 1
    parent = {s[0]: s[4] for s in spans}
    top = next(s[0] for s in spans if s[1] == "processes.simulate_subordinator")
    assert all(parent[s[0]] == top for s in spans if s[1] == "samplers.sample_positive_stable")


def test_self_time_subtracts_the_union_of_children():
    spans = [(0, "limitlab.map_replicas", 0.0, 10.0, None, 0),
             (1, "processes.x", 1.0, 5.0, 0, 0),
             (2, "processes.y", 3.0, 6.0, 0, 0)]
    m = tracing.layer_metrics(spans)
    assert m["limitlab.self_s"] == pytest.approx(5.0)
    assert m["processes.self_s"] == pytest.approx(7.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
