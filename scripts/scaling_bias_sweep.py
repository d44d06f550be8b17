#!/usr/bin/env python3
"""Sweep the scaling horizon u across decades for the queue scaling limit.

In the dominated regimes the scaled queue Q(ut)/u^gamma approaches its limit
law at rate u^(-|alpha - beta|), so a KS test against the limit keeps seeing
finite-size bias until u is large enough.  This script measures that decay
directly: for each u = 10^d it runs the scaling experiment and records the KS
distance (arrivals dominate), or the residual mean (services dominate), or
the KS p-value (balanced).  The output explains why narrow index pairs like
(0.8, 0.5) need u well past 1e5 while wide pairs like (0.9, 0.3) settle by
1e5, and why the verification suite uses wide pairs at the default horizons.

Example:
    python3 scripts/scaling_bias_sweep.py --alpha 0.8 --beta 0.5 --decades 2,3,4
"""

from __future__ import annotations

import argparse
import csv
import time

import numpy as np

from fracq import ClassProbabilities, RngStream, verify_queue_scaling


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.8, help="arrival index")
    ap.add_argument("--beta", type=float, default=0.5, help="service index")
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--decades", default="2,3,4",
                    help="comma-separated exponents d; each rung runs at u=10^d")
    ap.add_argument("--replicas", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--csv", default=None, help="optional output path for the table")
    args = ap.parse_args(argv)

    probs = ClassProbabilities(np.array([0.3, 0.7]))
    decades = [int(d) for d in args.decades.split(",")]
    rows = []
    for k, d in enumerate(decades):
        u = 10.0**d
        start = time.perf_counter()
        rep = verify_queue_scaling(
            args.alpha, args.beta, args.lam, args.mu, probs, i=1, t=1.0,
            u=u, replicas=args.replicas, rng=RngStream(seed=args.seed + k),
            jobs=args.jobs, verbose=False,
        )
        ks = rep.details.get("ks", {})
        rows.append({
            "u": u,
            "regime": rep.details["regime"],
            "ks_D": ks.get("D", float("nan")),
            "ks_p": ks.get("p", float("nan")),
            "mean_scaled": rep.details.get("mean_scaled", float("nan")),
            "verdict": rep.verdict,
            "seconds": round(time.perf_counter() - start, 2),
        })

    print(f"alpha={args.alpha} beta={args.beta} lam={args.lam} mu={args.mu} "
          f"replicas={args.replicas} seed={args.seed}")
    print(f"{'u':>10} {'regime':>18} {'ks_D':>8} {'ks_p':>10} "
          f"{'mean':>8} {'verdict':>8} {'sec':>6}")
    for r in rows:
        print(f"{r['u']:>10.0f} {r['regime']:>18} {r['ks_D']:>8.4f} "
              f"{r['ks_p']:>10.3g} {r['mean_scaled']:>8.4f} "
              f"{str(r['verdict']):>8} {r['seconds']:>6.2f}")

    # successive-rung decay of whichever bias proxy the regime exposes
    proxy = "ks_D" if not np.isnan(rows[0]["ks_D"]) else "mean_scaled"
    vals = [r[proxy] for r in rows]
    for a, b, r in zip(vals, vals[1:], rows[1:]):
        if a > 0 and b > 0:
            print(f"  {proxy} ratio into u={r['u']:.0f}: {b / a:.3f} "
                  f"(pure u^({-abs(args.alpha - args.beta):.2f}) decay would be "
                  f"{10 ** -abs(args.alpha - args.beta):.3f})")

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
