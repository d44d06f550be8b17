"""Spans around the calls into fracq's modules, recorded from outside.

`Tracer.install` wraps every public function and public method that a layer
module defines, and rebinds the wrapper at every ``fracq`` namespace that
binds the original (``sample_positive_stable`` is bound in
``fracq.samplers``, ``fracq.processes``, ``fracq.cli`` and ``fracq``).  A
call records a span (id, name, start, end, parent, amount) in memory; the
amount is the size the per-layer metrics count, such as the variates asked
of ``sample_positive_stable``.  Private helpers are not wrapped, so their time
counts toward the self time of the public caller.

Spans of one thread nest through a thread-local stack.  A span that starts
on an empty stack in a pool thread takes the open ``map_replicas`` span as
its parent, and self time subtracts the union of the children's intervals,
so overlapping replicas on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time

LAYERS = ("samplers", "processes", "queueing", "special", "gof", "limitlab", "cli")

# artifact writers count to the cli layer, whichever module defines them
ARTIFACT_WRITERS = ("to_csv", "write_json")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(args, kwargs, index):
    size = _arg(args, kwargs, index, "size")
    return 1 if size is None else int(size)


def _file_size(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


# amount recorded with a span, taken from the call's arguments before the call
_BEFORE = {
    "samplers.sample_positive_stable": lambda a, k: _size(a, k, 2),
    "samplers.RngStream.generator": lambda a, k: int(a[0]._gen is None),
    "limitlab.LimitLawSampler.sample": lambda a, k: int(_arg(a, k, 2, "size")),
    "queueing.reflected_path_stats": lambda a, k: len(a[0]) + len(a[1]),
    "queueing.simulate_multiclass_queue": lambda a, k: len(a[0]) + len(a[1]),
    "queueing.simulate_continuum_queue": lambda a, k: len(a[0]) + len(a[2]),
}
# ... and after it
_AFTER = {
    "processes.EventTimeline.to_csv": _file_size,
    "queueing.QueueTrajectory.to_csv": _file_size,
    "limitlab.ExperimentReport.write_json": _file_size,
}


def layer_of(name: str) -> str:
    if name.rsplit(".", 1)[-1] in ARTIFACT_WRITERS:
        return "cli"
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of the calls into fracq while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        is_pool = name == "limitlab.map_replicas"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._pool
            sid = next(tracer._ids)
            amount = before(args, kwargs) if before else 0
            stack.append(sid)
            if is_pool:
                outer, tracer._pool = tracer._pool, sid
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_pool:
                    tracer._pool = outer
                if after:
                    amount = after(args, kwargs)
                tracer.spans.append((sid, name, t0, t1, parent, amount))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fracq.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        qual = f"{layer}.{attr}.{mname}"
                        if inspect.isfunction(member):
                            self._set(obj, mname, self._wrap(qual, member))
                        elif isinstance(member, classmethod):
                            self._set(obj, mname, classmethod(self._wrap(qual, member.__func__)))
        for modname, mod in list(sys.modules.items()):
            if modname != "fracq" and not modname.startswith("fracq."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple[int, str, float, float, int | None, int]]:
        """The spans recorded so far, removed from the tracer."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one round's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    name_self: dict[str, float] = {}
    amount: dict[str, int] = {}
    calls: dict[str, int] = {}
    for sid, name, t0, t1, _, n in spans:
        own = (t1 - t0) - _union_length(children.get(sid, []))
        self_s[layer_of(name)] += own
        name_self[name] = name_self.get(name, 0.0) + own
        inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
        amount[name] = amount.get(name, 0) + n
        calls[name] = calls.get(name, 0) + 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    variates = amount.get("samplers.sample_positive_stable", 0)
    events = sum(amount.get(n, 0) for n in _BEFORE if n.startswith("queueing."))
    draws = amount.get("limitlab.LimitLawSampler.sample", 0)
    oracle_s = inclusive.get("limitlab.LimitLawSampler.sample", 0.0)
    generator_s = sum(
        t1 - t0 for _, name, t0, t1, _, n in spans if n and name == "samplers.RngStream.generator"
    )
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({
        "samplers.stable_variates": variates,
        "samplers.ns_per_stable_variate": 1e9 * ratio(name_self.get("samplers.sample_positive_stable", 0.0), variates),
        "samplers.generators_built": amount.get("samplers.RngStream.generator", 0),
        "samplers.generator_build_s": generator_s,
        "samplers.variates_per_queue_event": ratio(variates, events),
        "queueing.events": events,
        "queueing.events_per_s": ratio(events, self_s["queueing"]),
        "limitlab.oracle_s": oracle_s,
        "limitlab.oracle_us_per_draw": 1e6 * ratio(oracle_s, draws),
        "limitlab.replica_pool_s": inclusive.get("limitlab.map_replicas", 0.0),
        "special.calls": sum(c for name, c in calls.items() if layer_of(name) == "special"),
        "cli.artifact_write_s": sum(inclusive.get(name, 0.0) for name in _AFTER),
        "cli.artifact_bytes": sum(amount.get(name, 0) for name in _AFTER),
        "trace.spans": len(spans),
    })
    return metrics


def write_spans(path: str, rounds: list[list[tuple]]) -> None:
    """One line per span: round, id, name, start, end, parent, amount."""
    with open(path, "w") as fh:
        fh.write("round,id,name,start,end,parent,amount\n")
        for r, spans in enumerate(rounds):
            for sid, name, t0, t1, parent, n in spans:
                fh.write(f"{r},{sid},{name},{t0!r},{t1!r},{'' if parent is None else parent},{n}\n")
