#!/usr/bin/env python3
"""Calibrate the verification battery over many seeds.

Runs each experiment of `fracq.limitlab.BATTERY` (--only selects by
substring) at seeds 0 .. K-1 through `fracq.limitlab.battery`, with every
replica count scaled by --scale, and writes one JSON summary per experiment
to --out:

- the pass rate at the experiment's existing threshold, with its statistic at
  every seed;
- every p-value the report records (its details' "p" and "ks_p" entries),
  and for each a one-sample KS test of its K values against the uniform
  law, which a calibrated test follows under its null.

A pass rate below 1 - (a few) / K, or a small KS p-value, points at a bias in
the experiment rather than at chance.  This script is not part of the test
suite; a full-scale pass over the battery takes about K times the battery's
time.

--defect NAME plants one known defect in the running process first, so the
pass rates measure the battery's power against it: an experiment that
rejects at some seeds catches the defect, and a defect that no experiment
rejects slips through.  The defects (DEFECTS):

- kanter_gamma2: Kanter's E drawn as Gamma(2), not Exp(1), wherever a stable
  variate is made, in the observables and the oracles alike;
- ml_swapped: the Mittag-Leffler gap with V and 1 - V swapped, in every
  renewal walk.  V and 1 - V are alike uniform, so the gaps keep their law
  and no experiment can catch it: it measures the false-rejection rate of a
  change that is sound in law (tests/test_samplers.py catches it draw by
  draw);
- ml_power: the Mittag-Leffler gap's sine ratio raised to theta, not
  1 / theta, in every renewal walk;
- head_off: every thinning head P_i (a queue's column share) read 0.02 high
  in the queue observables;
- brownian_yb_dropped: the two-sided Brownian limit law drawn without its
  Y_b term, as sqrt(coef_a Y_a) |z| (the centered CLT's balanced oracle).

    python scripts/calibrate.py --only queue_scaling_balanced --seeds 50
    python scripts/calibrate.py --only queue_scaling_arrivals --seeds 10 --defect head_off
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import gammaincinv

from fracq import limitlab, processes, samplers
from fracq.limitlab import battery

P_KEYS = ("p", "ks_p")


def _kanter_gamma2(kanter):
    # each E goes through its Exp(1) probability to the Gamma(2) quantile
    return lambda theta, u, e: kanter(theta, u, gammaincinv(2.0, -np.expm1(-e)))


def _ml_swapped(steps):
    return lambda p, pairs: steps(p, np.stack([pairs[..., 0], 1.0 - pairs[..., 1]], axis=-1))


def _ml_power(steps):
    def gaps(p, pairs):  # in place of the sound steps
        tp = p.theta * np.pi
        ratio = np.sin(tp * (1.0 - pairs[..., 1])) / np.sin(tp * pairs[..., 1])
        return np.log(1.0 - pairs[..., 0]) / -p.lam * ratio**p.theta
    return gaps


def _head_off(queue_ends):
    def ends(arrivals, services, horizon, shares, rng, rows):
        shares = tuple(min(1.0, s + 0.02) for s in shares)
        return queue_ends(arrivals, services, horizon, shares, rng, rows)
    return ends


def _brownian_yb_dropped(sample):
    def draws(law, rng, size):
        return sample(dataclasses.replace(law, coef_b=0.0), rng, size)
    return draws


# name -> (owner, attribute, the defective attribute made from the sound one)
DEFECTS = {
    "kanter_gamma2": (samplers, "_kanter", _kanter_gamma2),
    "ml_swapped": (processes, "_mittag_leffler_steps", _ml_swapped),
    "ml_power": (processes, "_mittag_leffler_steps", _ml_power),
    "head_off": (limitlab, "_queue_ends", _head_off),
    "brownian_yb_dropped": (limitlab.LimitLawSampler, "sample", _brownian_yb_dropped),
}


@contextlib.contextmanager
def planted(name: str | None):
    """The named defect in place for the body, the sound code after it."""
    if name is None:
        yield
        return
    owner, attr, make = DEFECTS[name]
    sound = getattr(owner, attr)
    setattr(owner, attr, make(sound))
    try:
        yield
    finally:
        setattr(owner, attr, sound)


def p_values(details: dict, prefix: str = "") -> dict[str, float]:
    """The p-values in a report's details, keyed by their dotted path."""
    found = {}
    for key, value in details.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            found.update(p_values(value, path + "."))
        elif key in P_KEYS and isinstance(value, float):
            found[path] = value
    return found


def summarize(reports: list[dict], seconds: float) -> dict:
    first = reports[0]
    passes = sum(r["verdict"] for r in reports)
    statistics = [r["statistic"] for r in reports]
    by_key: dict[str, list[float]] = {}
    for r in reports:
        for key, p in p_values(r["details"]).items():
            by_key.setdefault(key, []).append(p)
    uniform = {}
    for key, ps in by_key.items():
        d, p = stats.kstest(ps, "uniform")
        uniform[key] = {"values": ps, "ks_D": float(d), "ks_p": float(p)}
    return {
        "name": first["name"],
        "threshold": first["threshold"],
        "direction": first["direction"],
        "replicas": first["replicas"],
        "seeds": [r["seed"] for r in reports],
        "runs": len(reports),
        "passes": passes,
        "pass_rate": passes / len(reports),
        "statistics": statistics,
        "p_values": uniform,
        "seconds": round(seconds, 3),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="calibration_out", help="directory for the JSON summaries")
    ap.add_argument("--seeds", type=int, default=20, help="run seeds 0 .. K-1")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every replica count by this factor")
    ap.add_argument("--only", default=None,
                    help="comma-separated experiment names (substring match)")
    ap.add_argument("--defect", default=None, choices=sorted(DEFECTS),
                    help="plant this defect first, to measure each experiment's power")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    if not 0.0 < args.scale < math.inf:  # NaN fails the comparison too
        ap.error(f"--scale must be positive and finite, got {args.scale}")

    names = [name for name, _ in battery(0, args.scale)]
    if args.only is not None:
        wanted = [w.strip() for w in args.only.split(",") if w.strip()]
        names = [name for name in names if any(w in name for w in wanted)]
        if not names:
            print(f"no experiment matches --only {args.only!r}", file=sys.stderr)
            return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        start = time.perf_counter()
        reports = []
        for seed in range(args.seeds):
            run = dict(battery(seed, args.scale))[name]
            # the one-line verdicts are not printed
            with planted(args.defect), contextlib.redirect_stdout(io.StringIO()):
                reports.append(run(None).to_dict())
        summary = summarize(reports, time.perf_counter() - start)
        summary["defect"] = args.defect
        (out / f"{name}.json").write_text(json.dumps(summary, indent=2) + "\n")
        worst = min((v["ks_p"] for v in summary["p_values"].values()), default=None)
        planted_in = "" if args.defect is None else f" [defect {args.defect}]"
        print(f"{name}{planted_in}: pass rate {summary['passes']}/{summary['runs']}, "
              f"min uniform-KS p {'-' if worst is None else f'{worst:.3g}'} "
              f"({summary['seconds']:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
