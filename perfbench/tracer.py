"""Spans around latflow's public calls, kept in memory, and per-layer self time.

``install`` replaces every public function and method that a latflow module
defines with a wrapper that records a span, in every latflow module namespace
that holds it, so calls from one module into another are traced as well as
the benchmark's own calls.  A span is ``[id, parent, name, layer, start_ns,
end_ns]``; ids are ``"<process tag>:<index>"`` so spans written by several
processes of one pass can be merged.  The layer of a span is the module that
defines the called function.
"""

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("sparse", "topology", "systems", "rules", "engine", "analysis", "cli", "backend")
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self, tag, root_parent=None):
        self.tag = tag
        self.spans = []
        self._stack = [root_parent]
        self.active = True

    def begin(self, name, layer):
        """Start a span under the innermost open one; returns its record."""
        rec = [f"{self.tag}:{len(self.spans)}", self._stack[-1], name, layer,
               time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[5] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, layer):
        """One span around the block; yields its id."""
        rec = self.begin(name, layer)
        try:
            yield rec[0]
        finally:
            self.end(rec)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _wrap(tracer, fn, name, layer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(rec)

    return traced


def install(tracer, package="latflow"):
    """Wrap the public surface of ``package``'s layer modules, in place.

    Every layer module must already be imported: the CLI imports modules
    lazily, so a module imported later would go untraced.
    """
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    }
    missing = [m for m in LAYERS if f"{package}.{m}" not in modules]
    if missing:
        raise RuntimeError(f"layer modules not imported: {missing}")
    wrapped = {}
    for layer in LAYERS:
        modname = f"{package}.{layer}"
        for attr, obj in list(vars(modules[modname]).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}", layer))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, obj, layer)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _wrap_methods(tracer, cls, layer):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, _wrap(tracer, member, name, layer))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, member.__func__, name, layer)))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, member.__func__, name, layer)))


def self_times(spans):
    """Seconds of self time per layer: each span's duration minus the time
    its direct children cover.  Children of one span never overlap, since
    every pass is one thread and its child processes run one at a time."""
    covered = {}
    for sid, parent, _name, _layer, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    out = {}
    for sid, _parent, _name, layer, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start - covered.get(sid, 0)) * 1e-9
    return out

