"""The benchmark's workloads and the process that runs one of them.

A workload is a list of operations, each one call into fracq's public API
(``fracq.*`` or ``fracq.cli.main``) with inputs made from the workload seed,
and a check of its output (see checks.py).  One round runs every operation
once; a run repeats identical rounds until its time is up, so every run
attempts whole rounds of the same operations.

Run by run.py as

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

it prints ``ready`` once fracq is imported and the inputs are built, then,
as its last line, one JSON object with the per-round times and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fracq  # noqa: E402
import fracq.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("queue_limits", "queue_limits_jobs2", "count_laws", "event_paths")

# share of the battery's replica counts (scripts/run_verification_suite.py)
# that one round runs, so that a round takes a few seconds
QUEUE_LIMITS_SCALE = 1 / 8
COUNT_LAWS_SCALE = 1 / 2

# event_paths: each simulator runs on several short paths instead of one long
# one, because the event count of one path varies by 30-70% from seed to seed
# and a sum over many paths does not.  verify_best_ask is left out: at its
# battery point its renewal paths hit colliding event times on a few seeds
# (40 and 86 of 0-102), so it would fail on some seeds and not on others;
# the continuum ops check the best-ask path instead.
QUEUE_PATHS = 128  # `fracq queue`, about 850 events each
QUEUE_FLAGS = ["--alpha", "0.9", "--beta", "0.9", "--lambda", "1.1", "--mu", "1.0",
               "--p", "0.2,0.3,0.5", "--horizon", "875"]
CONTINUUM_PATHS = 32  # simulate_continuum_queue on the same paths' law
CONTINUUM = dict(alpha=0.9, beta=0.9, lam=1.1, mu=1.0, horizon=3500.0, support=(1.0, 2.0))
TIMECHANGE_PATHS = 64  # `fracq fpp timechange`, about 1.1e3 events each
TIMECHANGE_HORIZON = 0.3
TIMECHANGE_FLAGS = ["--theta", "0.6", "--lambda", "1e5", "--horizon", "0.3", "--step", "1"]

SETUP_SLICES = 7  # yardstick slices timed right after set-up


class Yardstick:
    """Fixed NumPy work, independent of fracq, timed between operations.

    On a shared host the same round runs up to 1.5x slower for tens of
    seconds at a time, and fracq's run time follows the time of this kernel
    (Kanter's stable formula, a cumulative sum and a sorted search on 2^16
    values).  run.py rescales each round's times by it; see README.md.
    """

    EVERY_S = 0.1  # a slice before the next operation once this much has run

    def __init__(self) -> None:
        g = np.random.default_rng(12345)
        self._u = g.random(1 << 16) * np.pi
        self._e = g.standard_exponential(1 << 16)

    def slice(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        u = self._u
        s = (np.sin(0.7 * u) / np.sin(u) ** (1 / 0.7)) * (np.sin(0.3 * u) / self._e) ** (0.3 / 0.7)
        c = np.cumsum(s)
        np.searchsorted(c, c[::5])
        return time.perf_counter() - t0

    def median(self, n: int) -> float:
        return statistics.median(self.slice() for _ in range(n))


@dataclass(frozen=True)
class Op:
    """One timed call and the untimed check of what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _stream(seed: int, k: int) -> "fracq.RngStream":
    """Stream of operation k of a workload; no two (seed, k) pairs with
    k < 1000 share a stream."""
    return fracq.RngStream(seed=seed * 1000 + k)


def _cli(argv: list[str]) -> int:
    code = fracq.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fracq {' '.join(argv)} exited with {code}")
    return code


def _experiment(name: str, out: Path, call, check) -> Op:
    """Op running a verify_* experiment that writes its artifacts to out/name."""
    d = str(out / name)
    return Op(name, lambda: call(d), lambda report: check(report.to_dict(), d))


def queue_limits(seed: int, out: Path, jobs: int, scale: float = QUEUE_LIMITS_SCALE) -> list[Op]:
    def n(base: int) -> int:
        return max(20, round(base * scale))

    p2 = fracq.ClassProbabilities(np.array([0.3, 0.7]))
    p2_even = fracq.ClassProbabilities(np.array([0.5, 0.5]))
    return [
        _experiment("queue_scaling_arrivals", out, lambda d: fracq.verify_queue_scaling(
            0.9, 0.3, 1.0, 1.0, p2, i=1, t=1.0, u=1e5, replicas=n(1000),
            rng=_stream(seed, 0), jobs=jobs, out_dir=d), checks.queue_scaling_arrivals),
        _experiment("queue_scaling_balanced", out, lambda d: fracq.verify_queue_scaling(
            0.6, 0.6, 1.1, 1.0, p2_even, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=_stream(seed, 1), jobs=jobs, out_dir=d), checks.queue_scaling_balanced),
        _experiment("centered_clt_balanced", out, lambda d: fracq.verify_centered_queue_clt(
            0.6, 0.6, 1.0, 1.0, p2, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=_stream(seed, 2), jobs=jobs, out_dir=d), checks.centered_clt),
        _experiment("oscillation_c_1", out, lambda d: fracq.verify_oscillation(
            0.5, 1.0, horizons=(1e2, 1e3, 1e4), replicas=n(200),
            rng=_stream(seed, 3), jobs=jobs, out_dir=d), lambda rep, _: checks.oscillation(rep)),
    ]


def _pmf_table_op(theta: float, lam: float, t: float) -> Op:
    return Op(
        f"pmf_table_theta_{theta}",
        lambda: fracq.fpp_pmf_table(fracq.FppParams(theta, lam), t),
        lambda table: checks.pmf_table(table.tolist(), theta, lam, t),
    )


def count_laws(seed: int, out: Path, scale: float = COUNT_LAWS_SCALE) -> list[Op]:
    def n(base: int) -> int:
        return max(20, round(base * scale))

    p2 = fracq.ClassProbabilities(np.array([0.3, 0.7]))
    p3 = fracq.ClassProbabilities(np.array([0.2, 0.3, 0.5]))
    return [
        _experiment("pmf_theta_0.7", out, lambda d: fracq.verify_pmf(
            0.7, 1.0, t=2.0, replicas=n(100_000), rng=_stream(seed, 0), out_dir=d),
            checks.pmf_counts),
        _experiment("pmf_theta_0.95", out, lambda d: fracq.verify_pmf(
            0.95, 1.5, t=1.0, replicas=n(100_000), rng=_stream(seed, 1), out_dir=d),
            checks.pmf_counts),
        _experiment("covariance", out, lambda d: fracq.verify_covariance(
            0.7, 1.2, p3, t=2.0, replicas=n(1_000_000), rng=_stream(seed, 2), out_dir=d),
            lambda rep, _: checks.covariance(rep)),
        _experiment("lln_theta_0.7", out, lambda d: fracq.verify_lln(
            0.7, 1.0, p2, t=1.0, u=1e4, replicas=n(10_000), rng=_stream(seed, 3), out_dir=d),
            checks.lln),
        _experiment("fclt_theta_0.7", out, lambda d: fracq.verify_fclt(
            0.7, 1.0, p2, t=1.0, u=1e3, replicas=n(10_000), rng=_stream(seed, 4), out_dir=d),
            checks.fclt),
        _pmf_table_op(0.7, 1.0, 2.0),
        _pmf_table_op(0.95, 1.5, 1.0),
    ]


def _queue_cli_op(seed: int, k: int, out: Path) -> Op:
    d = out / "queue" / str(k)
    argv = ["queue", *QUEUE_FLAGS, "--seed", str(seed * 1000 + k), "--out", str(d)]
    return Op(f"queue_{k}", lambda: _cli(argv), lambda _: checks.trajectory(str(d / "trajectory.csv"), 3))


def _continuum_op(seed: int, k: int) -> Op:
    c = CONTINUUM

    def run():
        rng = _stream(seed, k)
        arr = fracq.simulate_fpp_renewal(fracq.FppParams(c["alpha"], c["lam"]), c["horizon"], rng.substream(0))
        dep = fracq.simulate_fpp_renewal(fracq.FppParams(c["beta"], c["mu"]), c["horizon"], rng.substream(1))
        marks = fracq.LocationSampler.uniform(*c["support"])
        path, state = fracq.simulate_continuum_queue(arr, marks, dep, rng.substream(2))
        return arr, dep, path, state

    def check(result) -> list[str]:
        arr, dep, path, state = result
        return checks.continuum_queue(
            arr.times.tolist(), dep.times.tolist(), path.jump_times.tolist(),
            path.values.tolist(), state.total, state.wasted_services, c["support"],
        )

    return Op(f"continuum_{k}", run, check)


def _timechange_op(seed: int, k: int, out: Path) -> Op:
    d = out / "timechange" / str(k)
    argv = ["fpp", "timechange", *TIMECHANGE_FLAGS, "--seed", str(seed * 1000 + k), "--out", str(d)]
    return Op(f"timechange_{k}", lambda: _cli(argv),
              lambda _: checks.timeline(str(d / "timeline.csv"), TIMECHANGE_HORIZON))


def event_paths(seed: int, out: Path, scale: float = 1.0) -> list[Op]:
    def n(base: int) -> int:
        return max(1, round(base * scale))

    ops = [_queue_cli_op(seed, k, out) for k in range(n(QUEUE_PATHS))]
    ops += [_continuum_op(seed, 200 + k) for k in range(n(CONTINUUM_PATHS))]
    ops += [_timechange_op(seed, 300 + k, out) for k in range(n(TIMECHANGE_PATHS))]
    return ops


def build(workload: str, seed: int, out: Path) -> list[Op]:
    if workload == "queue_limits":
        return queue_limits(seed, out, jobs=1)
    if workload == "queue_limits_jobs2":
        return queue_limits(seed, out, jobs=2)
    if workload == "count_laws":
        return count_laws(seed, out)
    if workload == "event_paths":
        return event_paths(seed, out)
    raise ValueError(f"unknown workload {workload!r}")


def run_rounds(ops: list[Op], seconds: float, yardstick: Yardstick,
               tracer: tracing.Tracer | None) -> dict:
    """Run whole rounds while one more round is projected to end within
    `seconds`, and at least one; check each round's outputs outside the
    timed region."""
    rounds: list[dict] = []
    layer_rounds: list[dict] = []
    span_rounds: list[list] = []
    attempted = failed = 0
    problems: list[str] = []
    verdicts: list[str] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        wall = cpu = 0.0
        results = []
        slices: list[float] = []
        last_slice = -math.inf
        printed = io.StringIO()
        for op in ops:
            if time.perf_counter() - last_slice >= yardstick.EVERY_S:
                slices.append(yardstick.slice())
                last_slice = time.perf_counter()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(printed):
                    results.append(op.run())
            except Exception:  # a failed operation is counted, not fatal
                results.append(None)
                failed += 1
                print(f"{op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
        slices.append(yardstick.slice())
        attempted += len(ops)
        rounds.append({"wall_s": wall, "cpu_s": cpu, "yardstick_s": statistics.median(slices)})
        if len(rounds) == 1:
            # the checks below run in this process too; read the high-water
            # mark before they do
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            verdicts = [ln for ln in printed.getvalue().splitlines() if ln.startswith("[")]
        if tracer is not None:
            spans = tracer.take()
            span_rounds.append(spans)
            layer_rounds.append(tracing.layer_metrics(spans))
        for op, result in zip(ops, results):
            if result is not None:
                problems += [f"{op.name}: {p}" for p in op.check(result)]
        if tracer is not None:
            tracer.take()  # calls made by the checks are not the workload's
    out = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "n_problems": len(problems),
        "verdicts": verdicts,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layer_rounds"] = layer_rounds
        out["span_rounds"] = span_rounds
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after printing ready (a set-up time sample)")
    args = ap.parse_args(argv)

    out_root = Path.cwd() / "perfbench_out"
    out = out_root / f"{args.workload}-seed{args.seed}-{int(time.time() * 1e6)}"
    ops = build(args.workload, args.seed, out)
    print("ready", flush=True)
    yardstick = Yardstick()
    # the host's speed just after set-up, to rescale the set-up time by
    setup_yardstick_s = yardstick.median(SETUP_SLICES)
    if args.setup_only:
        print(json.dumps({"setup_yardstick_s": setup_yardstick_s}), flush=True)
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run_rounds(ops, args.seconds, yardstick, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracing.write_spans(str(out_root / f"trace-{args.workload}-seed{args.seed}.csv"),
                          result.pop("span_rounds"))
    result["setup_yardstick_s"] = setup_yardstick_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
