"""Command-line front end.

Subcommands: sample (ml | stable | inverse-clock), fpp (renewal | timechange),
queue, auction, verify (pmf | covariance | lln | fclt | scaling | centered-clt |
recurrence | oscillation | best-ask), plot-data.  Parameters come from flags or
a JSON config file mirroring the flag names; flags override the config.  Exit
status: 0 success/pass, 1 verification failure, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import limitlab
from .errors import DomainError, FracqError, ParameterError
from .gof import ecdf
from .processes import (
    ClassProbabilities,
    EventTimeline,
    _write_csv,
    simulate_fpp_renewal,
    simulate_fpp_timechange,
    thin_events,
)
from .queueing import LocationSampler, simulate_continuum_queue, simulate_multiclass_queue
from .samplers import (
    RngStream,
    sample_inverse_subordinator_at,
    sample_mittag_leffler,
    sample_positive_stable,
)
from .special import FppParams

# flag name -> (dest, type); config files use the flag names as keys
_FLAG_SPECS = {
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "theta": ("theta", float),
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "p": ("p", str),
    "t": ("t", float),
    "u": ("u", float),
    "horizon": ("horizon", float),
    "step": ("step", float),
    "replicas": ("replicas", int),
    "seed": ("seed", int),
    "jobs": ("jobs", int),
    "c": ("c", float),
    "i": ("i", int),
    "horizons": ("horizons", str),
    "locations": ("locations", str),
    "eps": ("eps", str),
    "p-min": ("p_min", float),
    "z-max": ("z_max", float),
    "tol": ("tol", float),
    "resolution": ("resolution", float),
    "kind": ("kind", str),
    "input": ("input", str),
    "input2": ("input2", str),
    "column": ("column", str),
}


def _add_flags(sub: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        dest, typ = _FLAG_SPECS[name]
        sub.add_argument(f"--{name}", dest=dest, type=typ, default=None)
    sub.add_argument("--out", dest="out", type=str, default=None)
    sub.add_argument("--config", dest="config", type=str, default=None)


def _merge_config(ns: argparse.Namespace) -> None:
    """Fill unset flags from the JSON config file (flags win), then reject nan
    and inf in numeric flags and config entries alike."""
    if ns.config:
        with open(ns.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"config file {ns.config} is not JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ParameterError("config file must hold one JSON object")
        for key, value in cfg.items():
            if key not in _FLAG_SPECS and key != "out":
                raise ParameterError(f"unknown config key {key!r}")
            dest, typ = _FLAG_SPECS.get(key, ("out", str))
            if getattr(ns, dest, None) is None and value is not None:
                setattr(ns, dest, _config_value(key, value, typ))
    for flag, (dest, typ) in _FLAG_SPECS.items():
        if typ is float and not math.isfinite(getattr(ns, dest, None) or 0.0):
            raise ParameterError(f"--{flag} must be a finite number, got {getattr(ns, dest)}")


def _config_value(key: str, value, typ):
    """Convert one config entry as its flag would convert the same text; only
    a string or a number stands for a flag's text, never a bool or a list."""
    if isinstance(value, str | int | float) and not isinstance(value, bool):
        try:
            return typ(str(value))
        except ValueError:
            pass
    raise ParameterError(f"config key {key!r}: invalid {typ.__name__} value {json.dumps(value)}")


def _require(ns: argparse.Namespace, **defaults):
    """Apply per-command defaults; None after this means the flag was
    mandatory and missing."""
    for dest, value in defaults.items():
        if getattr(ns, dest, None) is None:
            if value is ...:
                flag = next(f for f, (d, _) in _FLAG_SPECS.items() if d == dest)
                raise ParameterError(f"missing required flag --{flag}")
            setattr(ns, dest, value)


def _out_dir(ns: argparse.Namespace) -> str:
    out = ns.out or os.environ.get("FRACQ_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_probs(text: str) -> ClassProbabilities:
    return ClassProbabilities(p=np.asarray(_parse_float_list(text, "p")))


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParameterError(f"--{flag} expects a comma list of numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"--{flag} must be finite numbers, got {text!r}")
    return values


def _parse_locations(text: str) -> LocationSampler:
    """Location spec: uniform:a,b | exponential:rate | point:locs[@weights] |
    empirical:file.csv (reads the `value` column)."""
    kind, _, rest = text.partition(":")
    if kind == "uniform":
        a, b = _parse_float_list(rest, "locations")
        return LocationSampler.uniform(a, b)
    if kind == "exponential":
        (rate,) = _parse_float_list(rest, "locations")
        return LocationSampler.exponential(rate)
    if kind == "point":
        locs_text, _, w_text = rest.partition("@")
        locs = _parse_float_list(locs_text, "locations")
        weights = (
            _parse_float_list(w_text, "locations") if w_text else [1.0 / len(locs)] * len(locs)
        )
        return LocationSampler.point_masses(locs, weights)
    if kind == "empirical":
        values = _read_column(rest, "value")
        return LocationSampler.empirical(values)
    raise ParameterError(f"unknown location spec kind {kind!r} in {text!r}")


def _read_column(path: str, column: str) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ParameterError(f"{path} has no column {column!r}")
        return np.array([float(row[column]) for row in reader])


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_sample(ns: argparse.Namespace) -> int:
    _require(ns, replicas=1000, seed=0, theta=..., lam=1.0, t=1.0)
    rng = RngStream(seed=ns.seed)
    if ns.variant == "ml":
        values = sample_mittag_leffler(FppParams(ns.theta, ns.lam), rng, size=ns.replicas)
    elif ns.variant == "stable":
        values = sample_positive_stable(ns.theta, rng, size=ns.replicas)
    else:  # inverse-clock
        values = sample_inverse_subordinator_at(ns.theta, ns.t, rng, size=ns.replicas)
    path = os.path.join(_out_dir(ns), "samples.csv")
    _write_csv(path, ["value"], [(values, "%.17g")])
    print(f"wrote {path} ({values.size} draws)")
    return 0


def _cmd_fpp(ns: argparse.Namespace) -> int:
    _require(ns, theta=..., lam=..., horizon=..., seed=0)
    rng = RngStream(seed=ns.seed)
    params = FppParams(ns.theta, ns.lam)
    if ns.construction == "timechange":
        timeline = simulate_fpp_timechange(params, ns.horizon, rng.substream(0), step=ns.step)
    else:
        timeline = simulate_fpp_renewal(params, ns.horizon, rng.substream(0))
    if ns.p is not None:
        timeline = thin_events(timeline, _parse_probs(ns.p), rng.substream(1))
    path = os.path.join(_out_dir(ns), "timeline.csv")
    timeline.to_csv(path)
    print(f"wrote {path} ({len(timeline)} events)")
    return 0


def _cmd_queue(ns: argparse.Namespace) -> int:
    _require(ns, alpha=..., beta=..., lam=..., mu=..., p=..., horizon=..., seed=0)
    rng = RngStream(seed=ns.seed)
    probs = _parse_probs(ns.p)
    arrivals = thin_events(
        simulate_fpp_renewal(FppParams(ns.alpha, ns.lam), ns.horizon, rng.substream(0)),
        probs,
        rng.substream(1),
    )
    departures = simulate_fpp_renewal(FppParams(ns.beta, ns.mu), ns.horizon, rng.substream(2))
    traj = simulate_multiclass_queue(arrivals, departures, n_classes=probs.n_classes)
    path = os.path.join(_out_dir(ns), "trajectory.csv")
    traj.to_csv(path)
    print(
        f"wrote {path} ({traj.event_times.size} events, "
        f"{traj.emptying_times.size} emptyings, {traj.wasted_services} wasted services)"
    )
    return 0


def _cmd_auction(ns: argparse.Namespace) -> int:
    _require(ns, alpha=..., beta=..., lam=..., mu=..., locations=..., horizon=..., seed=0)
    rng = RngStream(seed=ns.seed)
    sampler = _parse_locations(ns.locations)
    arrivals = simulate_fpp_renewal(FppParams(ns.alpha, ns.lam), ns.horizon, rng.substream(0))
    departures = simulate_fpp_renewal(FppParams(ns.beta, ns.mu), ns.horizon, rng.substream(1))
    ask_path, state = simulate_continuum_queue(arrivals, sampler, departures, rng.substream(2))
    out = _out_dir(ns)
    path = os.path.join(out, "best_ask.csv")
    _write_csv(path, ["time", "best_ask"],
               [(ask_path.jump_times, "%.17g"), (ask_path.values, "%.17g")])
    summary = {
        "best_ask": None if np.isposinf(state.best_ask) else state.best_ask,
        "total_waiting": state.total,
        "wasted_services": state.wasted_services,
    }
    spath = os.path.join(out, "auction_summary.json")
    with open(spath, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} and {spath} (final best ask: {state.best_ask})")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    _require(ns, seed=0, jobs=1)
    rng = RngStream(seed=ns.seed)
    out = _out_dir(ns)
    kind = ns.variant
    if kind == "pmf":
        _require(ns, theta=..., lam=..., t=1.0, replicas=100_000, p_min=limitlab.DEFAULT_P_MIN)
        report = limitlab.verify_pmf(
            ns.theta, ns.lam, ns.t, ns.replicas, rng, p_min=ns.p_min, out_dir=out
        )
    elif kind == "covariance":
        _require(ns, alpha=..., lam=..., p=..., t=1.0, replicas=1_000_000,
                 z_max=limitlab.DEFAULT_Z_MAX)
        report = limitlab.verify_covariance(
            ns.alpha, ns.lam, _parse_probs(ns.p), ns.t, ns.replicas, rng,
            z_max=ns.z_max, out_dir=out,
        )
    elif kind == "lln":
        _require(ns, theta=..., lam=..., p=..., t=1.0, u=1000.0, replicas=10_000,
                 p_min=limitlab.DEFAULT_P_MIN, tol=0.05)
        report = limitlab.verify_lln(
            ns.theta, ns.lam, _parse_probs(ns.p), ns.t, ns.u, ns.replicas, rng,
            p_min=ns.p_min, concentration_tol=ns.tol, out_dir=out,
        )
    elif kind == "fclt":
        _require(ns, theta=..., lam=..., p=..., t=1.0, u=1000.0, replicas=10_000,
                 p_min=limitlab.DEFAULT_P_MIN, z_max=limitlab.DEFAULT_Z_MAX)
        report = limitlab.verify_fclt(
            ns.theta, ns.lam, _parse_probs(ns.p), ns.t, ns.u, ns.replicas, rng,
            p_min=ns.p_min, z_max=ns.z_max, out_dir=out,
        )
    elif kind == "scaling":
        _require(ns, alpha=..., beta=..., lam=..., mu=..., p="1.0", i=1, t=1.0, u=1000.0,
                 replicas=2000, p_min=limitlab.DEFAULT_P_MIN, tol=0.01,
                 resolution=limitlab.DEFAULT_RESOLUTION)
        report = limitlab.verify_queue_scaling(
            ns.alpha, ns.beta, ns.lam, ns.mu, _parse_probs(ns.p), ns.i, ns.t, ns.u,
            ns.replicas, rng, p_min=ns.p_min, degenerate_tol=ns.tol,
            resolution=ns.resolution, out_dir=out, jobs=ns.jobs,
        )
    elif kind == "centered-clt":
        _require(ns, alpha=..., beta=..., lam=..., mu=..., p="1.0", i=1, t=1.0, u=1000.0,
                 replicas=2000, p_min=limitlab.DEFAULT_P_MIN,
                 resolution=limitlab.DEFAULT_RESOLUTION)
        report = limitlab.verify_centered_queue_clt(
            ns.alpha, ns.beta, ns.lam, ns.mu, _parse_probs(ns.p), ns.i, ns.t, ns.u,
            ns.replicas, rng, p_min=ns.p_min, resolution=ns.resolution,
            out_dir=out, jobs=ns.jobs,
        )
    elif kind == "recurrence":
        _require(ns, alpha=..., lam=..., mu=..., p="1.0", horizons="100,10000,1000000",
                 replicas=200)
        report = limitlab.verify_recurrence(
            ns.alpha, ns.lam, ns.mu, _parse_probs(ns.p),
            _parse_float_list(ns.horizons, "horizons"), ns.replicas, rng,
            out_dir=out, jobs=ns.jobs,
        )
    elif kind == "oscillation":
        _require(ns, theta=..., c=1.0, horizons="100,1000,10000", replicas=200,
                 resolution=limitlab.DEFAULT_RESOLUTION)
        report = limitlab.verify_oscillation(
            ns.theta, ns.c, _parse_float_list(ns.horizons, "horizons"), ns.replicas, rng,
            resolution=ns.resolution, out_dir=out, jobs=ns.jobs,
        )
    elif kind == "best-ask":
        _require(ns, alpha=..., beta=..., lam=..., mu=..., locations=...,
                 horizons="10,100,1000,10000", replicas=200, eps="0.1,0.05")
        report = limitlab.verify_best_ask(
            ns.alpha, ns.beta, ns.lam, ns.mu, _parse_locations(ns.locations),
            _parse_float_list(ns.horizons, "horizons"), ns.replicas, rng,
            eps_values=tuple(_parse_float_list(ns.eps, "eps")),
            out_dir=out, jobs=ns.jobs,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown verify kind {kind!r}")
    return 0 if report.verdict else 1


def emit_plot_data(kind: str, input_path: str, out_path: str,
                   input2_path: str | None = None, column: str | None = None) -> None:
    """Write two-column plot data from an existing artifact.

    ecdf: value,cum_prob from a sample column.  path: time,value from a
    trajectory/path CSV.  qq: theoretical_q,empirical_q from two sample files.
    """
    if kind == "ecdf":
        xs, ps = ecdf(_read_column(input_path, column or "value"))
        _write_csv(out_path, ["value", "cum_prob"], [(xs, "%.17g"), (ps, "%.17g")])
        return
    if kind == "path":
        with open(input_path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            value_col = column or next(
                (c for c in ("q_total", "best_ask", "value") if c in fields), None
            )
            if "time" not in fields:
                raise ParameterError(f"{input_path} has no time column")
            if value_col is None:
                raise ParameterError(f"{input_path} has no recognized value column")
            rows = [(row["time"], row[value_col]) for row in reader]
        rows = np.array(rows, dtype=str).reshape(-1, 2)  # (0, 2) for no rows
        _write_csv(out_path, ["time", "value"], [(rows[:, 0], "%s"), (rows[:, 1], "%s")])
        return
    if kind == "qq":
        if input2_path is None:
            raise ParameterError("qq needs --input (theoretical) and --input2 (empirical)")
        theo = np.sort(_read_column(input_path, column or "value"))
        emp = np.sort(_read_column(input2_path, column or "value"))
        if not (theo.size and emp.size):
            raise ParameterError("empty sample")
        m = min(theo.size, emp.size)
        grid = (np.arange(m) + 0.5) / m
        tq = np.quantile(theo, grid)
        eq = np.quantile(emp, grid)
        _write_csv(out_path, ["theoretical_q", "empirical_q"], [(tq, "%.17g"), (eq, "%.17g")])
        return
    raise ParameterError(f"unknown plot-data kind {kind!r}; expected ecdf, path, or qq")


def _cmd_plot_data(ns: argparse.Namespace) -> int:
    _require(ns, kind=..., input=...)
    out = os.path.join(_out_dir(ns), f"plot_{ns.kind}.csv")
    emit_plot_data(ns.kind, ns.input, out, input2_path=ns.input2, column=ns.column)
    print(f"wrote {out}")
    return 0


@functools.cache  # parse_args leaves the parser as it was: one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracq",
        description="Simulation and numerical verification for restless multiclass "
        "Mittag-Leffler queues.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("sample", help="draw iid variates to CSV")
    sp.add_argument("variant", choices=["ml", "stable", "inverse-clock"])
    _add_flags(sp, ["theta", "lambda", "t", "replicas", "seed"])
    sp.set_defaults(handler=_cmd_sample)

    sp = subs.add_parser("fpp", help="simulate a fractional Poisson timeline")
    sp.add_argument(
        "construction", nargs="?", choices=["renewal", "timechange"], default="renewal"
    )
    _add_flags(sp, ["theta", "lambda", "horizon", "step", "p", "seed"])
    sp.set_defaults(handler=_cmd_fpp)

    sp = subs.add_parser("queue", help="simulate the multiclass priority queue")
    _add_flags(sp, ["alpha", "beta", "lambda", "mu", "p", "horizon", "seed"])
    sp.set_defaults(handler=_cmd_queue)

    sp = subs.add_parser("auction", help="simulate the continuum best-ask queue")
    _add_flags(sp, ["alpha", "beta", "lambda", "mu", "locations", "horizon", "seed"])
    sp.set_defaults(handler=_cmd_auction)

    sp = subs.add_parser("verify", help="run a verification experiment")
    sp.add_argument(
        "variant",
        choices=[
            "pmf", "covariance", "lln", "fclt", "scaling",
            "centered-clt", "recurrence", "oscillation", "best-ask",
        ],
    )
    _add_flags(
        sp,
        [
            "alpha", "beta", "theta", "lambda", "mu", "p", "t", "u", "c", "i",
            "horizons", "locations", "eps", "replicas", "seed", "jobs",
            "p-min", "z-max", "tol", "resolution",
        ],
    )
    sp.set_defaults(handler=_cmd_verify)

    sp = subs.add_parser("plot-data", help="emit two-column plot data from an artifact")
    _add_flags(sp, ["kind", "input", "input2", "column"])
    sp.set_defaults(handler=_cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns)
        return ns.handler(ns)
    except (ParameterError, DomainError) as exc:
        print(f"fracq: usage error: {exc}", file=sys.stderr)
        return 2
    except FracqError as exc:
        print(f"fracq: runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fracq: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
