#!/usr/bin/env python3
"""Run the full battery of limit-theorem verification experiments.

Each experiment draws fresh Monte Carlo data, tests it against the analytic
law it should satisfy, prints one summary line, and writes a JSON report plus
ecdf artifacts under its own subdirectory of --out.  Exit status is 0 when
every experiment passes, 1 otherwise.

The experiments and their parameter points are the table
`fracq.limitlab.BATTERY`: replica counts sized so the statistical tests have
real power, and scaling horizons u chosen large enough that finite-size bias
sits below the tests' detection threshold.  --scale trims or grows every
replica count proportionally for quick smoke runs or higher-power overnight
runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from fracq.limitlab import battery


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="verification_out",
                    help="directory for JSON reports and ecdf artifacts")
    ap.add_argument("--seed", type=int, default=0,
                    help="base seed; each experiment adds its offset in the table")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every replica count by this factor")
    ap.add_argument("--jobs", type=int, default=1,
                    help="thread pool size for path-level experiments")
    ap.add_argument("--only", default=None,
                    help="comma-separated experiment names (substring match)")
    ap.add_argument("--list", action="store_true", help="list experiment names and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:  # experiments use seed + offset, so one negative seed would fail mid-battery
        ap.error(f"--seed must be a nonnegative integer, got {args.seed}")
    if not 0.0 < args.scale < math.inf:  # NaN fails the comparison too
        ap.error(f"--scale must be positive and finite, got {args.scale}")
    if args.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {args.jobs}")

    experiments = battery(args.seed, args.scale, args.jobs)
    if args.list:
        for name, _ in experiments:
            print(name)
        return 0
    if args.only is not None:
        wanted = [w.strip() for w in args.only.split(",") if w.strip()]
        experiments = [(nm, fn) for nm, fn in experiments
                       if any(w in nm for w in wanted)]
        if not experiments:
            print(f"no experiment matches --only {args.only!r}", file=sys.stderr)
            return 2

    out_root = Path(args.out)
    results = []
    t0 = time.perf_counter()
    for name, fn in experiments:
        start = time.perf_counter()
        report = fn(str(out_root / name))
        results.append((name, report, time.perf_counter() - start))

    failures = [name for name, rep, _ in results if not rep.verdict]
    index = {
        "seed": args.seed,
        "scale": args.scale,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "experiments": {
            name: {"verdict": rep.verdict, "statistic": rep.statistic,
                   "seconds": round(dt, 3)}
            for name, rep, dt in results
        },
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "index.json").write_text(json.dumps(index, indent=2) + "\n")

    print(f"\n{len(results) - len(failures)}/{len(results)} experiments passed "
          f"in {index['elapsed_seconds']}s")
    if failures:
        print("failed: " + ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
