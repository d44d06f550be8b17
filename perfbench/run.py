#!/usr/bin/env python3
"""Benchmark of fracq's limit-law experiments and path simulators.

    python3 perfbench/run.py --workload queue_limits --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                       # every workload, one after another

Each workload runs in processes of its own (workloads.py); this file uses the
standard library only and never imports fracq.  With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("queue_limits", "queue_limits_jobs2", "count_laws", "event_paths")

# set-ups timed per run: SETUP_SAMPLES - 1 set-up-only processes plus the
# measured process; setup_s is their median
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

# Times are reported at a fixed host speed: a measured time t, taken while
# the yardstick kernel of workloads.py ran in y seconds, is reported as
# t * YARDSTICK_REF_S / y.  YARDSTICK_REF_S is the kernel's usual time on the
# 2-core box the reference figures in README.md come from.
YARDSTICK_REF_S = 0.004

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "samplers.self_s": "s",
    "samplers.stable_variates": "count",
    "samplers.ns_per_stable_variate": "ns",
    "samplers.generators_built": "count",
    "samplers.generator_build_s": "s",
    "samplers.variates_per_queue_event": "ratio",
    "processes.self_s": "s",
    "queueing.events": "count",
    "queueing.self_s": "s",
    "queueing.events_per_s": "1/s",
    "special.self_s": "s",
    "special.calls": "count",
    "gof.self_s": "s",
    "limitlab.self_s": "s",
    "limitlab.oracle_s": "s",
    "limitlab.oracle_us_per_draw": "us",
    "limitlab.replica_pool_s": "s",
    "cli.self_s": "s",
    "cli.artifact_write_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not run a workload to its end."""


def _run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """(seconds from start to `ready`, last output line) of one worker process."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def at_ref(value: float, unit: str, yardstick_s: float) -> float:
    """A value measured while the yardstick took yardstick_s, at the
    reference host speed: times shrink and rates grow on a faster host,
    counts stay."""
    factor = YARDSTICK_REF_S / yardstick_s
    if unit in ("s", "ns", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """The result object of one workload and the lines that describe it."""
    setups = []
    if not trace:
        setups = [_run_worker(workload, seed, seconds, trace, True)
                  for _ in range(SETUP_SAMPLES - 1)]
    setup, last = _run_worker(workload, seed, seconds, trace, False)
    run = json.loads(last)
    setups.append((setup, last))
    setup_pairs = [(t, json.loads(line)["setup_yardstick_s"]) for t, line in setups]
    rounds = run["rounds"]
    if trace:
        units = PER_LAYER_UNITS
        per_round = [
            {k: at_ref(v, units[k], r["yardstick_s"]) for k, v in (m | {"trace.wall_s": r["wall_s"]}).items()}
            for m, r in zip(run["layer_rounds"], rounds)
        ]
        values = {k: statistics.median(m[k] for m in per_round) for k in units}
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(at_ref(t, "s", y) for t, y in setup_pairs),
            "wall_s": statistics.median(at_ref(r["wall_s"], "s", r["yardstick_s"]) for r in rounds),
            "cpu_s": statistics.median(at_ref(r["cpu_s"], "s", r["yardstick_s"]) for r in rounds),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    result = {
        "correct": run["n_problems"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    lines = [f"== {workload} (seed {seed}, {len(rounds)} rounds, trace {trace})"]
    lines += [f"   {k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    lines.append("   as measured: setup {:.4g} s, wall {:.4g} s, cpu {:.4g} s; yardstick {:.3g} ms".format(
        statistics.median(t for t, _ in setup_pairs),
        statistics.median(r["wall_s"] for r in rounds),
        statistics.median(r["cpu_s"] for r in rounds),
        1e3 * statistics.median(r["yardstick_s"] for r in rounds)))
    lines.append(f"   attempted = {run['attempted']}, failed = {run['failed']}, "
                 f"correct = {result['correct']}")
    lines += [f"   check failed: {p}" for p in run["problems"]]
    lines += [f"   verdict (reference only): {v}" for v in run["verdicts"]]
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (HERE.parent / "src" / "fracq" / "__init__.py").is_file():
        print(f"perfbench: no fracq sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name], lines = measure(name, args.seed, args.seconds, args.trace)
        except (BenchError, ValueError, KeyError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
