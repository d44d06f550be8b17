#!/usr/bin/env python3
"""Run the full battery of limit-theorem verification experiments.

Each experiment draws fresh Monte Carlo data, tests it against the analytic
law it should satisfy, prints one summary line, and writes a JSON report plus
ecdf artifacts under its own subdirectory of --out.  Exit status is 0 when
every experiment passes, 1 otherwise.

The default parameters are the ones the acceptance tests pin down: replica
counts sized so the statistical tests have real power, and scaling horizons u
chosen large enough that finite-size bias sits below the tests' detection
threshold.  --scale trims or grows every replica count proportionally for
quick smoke runs or higher-power overnight runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from fracq import (
    ClassProbabilities,
    LocationSampler,
    RngStream,
    verify_best_ask,
    verify_centered_queue_clt,
    verify_covariance,
    verify_fclt,
    verify_lln,
    verify_oscillation,
    verify_pmf,
    verify_queue_scaling,
    verify_recurrence,
)

P2 = ClassProbabilities(np.array([0.3, 0.7]))
P2_EVEN = ClassProbabilities(np.array([0.5, 0.5]))
P3 = ClassProbabilities(np.array([0.2, 0.3, 0.5]))
P1 = ClassProbabilities(np.array([1.0]))


def build_experiments(seed: int, scale: float, jobs: int):
    """Return a list of (name, runner) pairs; runner(out_dir) -> report."""

    def n(base: int) -> int:
        return max(20, int(round(base * scale)))

    def rng(offset: int) -> RngStream:
        return RngStream(seed=seed + offset)

    return [
        # pmf agreement of both process constructions, one subdiffusive and
        # one near-classical parameter point
        ("pmf_theta_0.7", lambda d: verify_pmf(
            0.7, 1.0, t=2.0, replicas=n(100_000), rng=rng(0), out_dir=d)),
        ("pmf_theta_0.95", lambda d: verify_pmf(
            0.95, 1.5, t=1.0, replicas=n(100_000), rng=rng(1), out_dir=d)),
        ("covariance", lambda d: verify_covariance(
            0.7, 1.2, P3, t=2.0, replicas=n(1_000_000), rng=rng(2), out_dir=d)),
        # at u=1e3 the conditional-Poisson noise (relative scale u^(-theta/2))
        # sits at the KS detection edge for 1e4 replicas and seed luck decides
        # the verdict; one decade higher every seed passes
        ("lln_theta_0.7", lambda d: verify_lln(
            0.7, 1.0, P2, t=1.0, u=1e4, replicas=n(10_000), rng=rng(3), out_dir=d)),
        ("lln_theta_1.0", lambda d: verify_lln(
            1.0, 1.0, P2, t=1.0, u=1e3, replicas=n(10_000), rng=rng(4), out_dir=d)),
        ("fclt_theta_0.7", lambda d: verify_fclt(
            0.7, 1.0, P2, t=1.0, u=1e3, replicas=n(10_000), rng=rng(5), out_dir=d)),
        ("fclt_theta_1.0", lambda d: verify_fclt(
            1.0, 1.0, P2, t=1.0, u=1e3, replicas=n(10_000), rng=rng(6), out_dir=d)),
        # queue scaling: the arrivals-dominate observable carries a
        # u^(beta-alpha) bias, so that regime runs two decades higher in u
        ("queue_scaling_arrivals", lambda d: verify_queue_scaling(
            0.9, 0.3, 1.0, 1.0, P2, i=1, t=1.0, u=1e5, replicas=n(1000),
            rng=rng(8), jobs=jobs, out_dir=d)),
        ("queue_scaling_services", lambda d: verify_queue_scaling(
            0.3, 0.9, 1.0, 1.0, P2, i=1, t=1.0, u=1e3, replicas=n(1000),
            rng=rng(7), jobs=jobs, out_dir=d)),
        ("queue_scaling_balanced", lambda d: verify_queue_scaling(
            0.6, 0.6, 1.1, 1.0, P2_EVEN, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=rng(7), jobs=jobs, out_dir=d)),
        ("centered_clt_arrivals", lambda d: verify_centered_queue_clt(
            0.9, 0.3, 1.0, 1.0, P2, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=rng(9), jobs=jobs, out_dir=d)),
        ("centered_clt_services", lambda d: verify_centered_queue_clt(
            0.3, 0.9, 1.0, 1.0, P2, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=rng(9), jobs=jobs, out_dir=d)),
        ("centered_clt_balanced", lambda d: verify_centered_queue_clt(
            0.6, 0.6, 1.0, 1.0, P2, i=2, t=1.0, u=1e3, replicas=n(2000),
            rng=rng(9), jobs=jobs, out_dir=d)),
        # null recurrence: medians of integer counts move by less than one
        # unit per decade, so the horizon ladder uses two-decade spacing
        ("recurrence", lambda d: verify_recurrence(
            0.6, 2.0, 1.0, P1, horizons=(1e2, 1e4, 1e6), replicas=n(200),
            rng=rng(10), jobs=jobs, out_dir=d)),
        ("oscillation_c_1", lambda d: verify_oscillation(
            0.5, 1.0, horizons=(1e2, 1e3, 1e4), replicas=n(200),
            rng=rng(11), jobs=jobs, out_dir=d)),
        ("oscillation_c_4", lambda d: verify_oscillation(
            0.7, 4.0, horizons=(1e2, 1e3, 1e4), replicas=n(200),
            rng=rng(12), jobs=jobs, out_dir=d)),
        # the near-infimum mass clause needs one more decade than the
        # exceedance clause, hence the fourth rung
        ("best_ask", lambda d: verify_best_ask(
            0.9, 0.5, 1.0, 1.0, LocationSampler.uniform(1.0, 2.0),
            t_values=(10.0, 1e2, 1e3, 1e4), replicas=n(200),
            rng=rng(13), jobs=jobs, out_dir=d)),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="verification_out",
                    help="directory for JSON reports and ecdf artifacts")
    ap.add_argument("--seed", type=int, default=0, help="base seed; experiment k uses seed+k")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every replica count by this factor")
    ap.add_argument("--jobs", type=int, default=1,
                    help="thread pool size for path-level experiments")
    ap.add_argument("--only", default=None,
                    help="comma-separated experiment names (substring match)")
    ap.add_argument("--list", action="store_true", help="list experiment names and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:  # experiment k uses seed + k, so one negative seed would fail mid-battery
        ap.error(f"--seed must be a nonnegative integer, got {args.seed}")

    experiments = build_experiments(args.seed, args.scale, args.jobs)
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
