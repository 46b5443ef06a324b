"""Span tracer that instruments ergosim from outside the package.

Every public function of an ergosim module is replaced, at each module
attribute through which a caller resolves it, by a wrapper recording a
span: the resolution site (``harness.simulate_batch``), the layer that
defines the function (``euler``), start, end and the enclosing span.
Integrands handed to the quadrature layer are wrapped to count their
evaluations, and ``replicate_stream``, called once per replicate from
worker threads, is aggregated into a call count and total seconds rather
than one span per call.  Nothing under ``src/`` is edited: ``install``
patches module attributes and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# called once per replicate; a span each would dominate the trace
AGGREGATED = {"replicate_stream"}

# defining functions whose arguments the metrics need
_EXTRAS = {"simulate_batch", "mf_autocorrelation_form", "invariant_density_1d"}


@dataclass
class Span:
    sid: int
    name: str  # resolution site, e.g. "cli.invariant_density_1d"
    layer: str  # defining module, e.g. "models"
    func: str  # defining function name
    start: float
    end: float = 0.0
    parent: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                **self.extra}


def _extras(func: str, sig: inspect.Signature, args, kwargs, result) -> dict:
    """Work counts of a call, read from its arguments and result."""
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if func == "simulate_batch":
            return {"rsteps": a["n_replicates"] * a["schedule"].n_steps(a["horizon"]),
                    "replicates": a["n_replicates"], "threads": a["threads"],
                    "failed": int(np.sum(result.failed))}
        if func == "mf_autocorrelation_form":
            return {"path_steps": a["n_paths"] * int(round(a["horizon"] / a["dt"]))}
        return {"family": a["model"].name}
    except (KeyError, AttributeError, TypeError):
        return {}


class Tracer:
    """Spans, aggregates and counts of one traced stretch of work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts = {"quadrature.adaptive_evals": 0, "quadrature.panel_points": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, layer: str, func: str, fn, args, kwargs):
        stack = self._stack()
        span = Span(next(self._ids), name, layer, func, 0.0,
                    parent=stack[-1].sid if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if func in _EXTRAS:
            span.extra = _extras(func, inspect.signature(fn), args, kwargs, result)
        return result

    def aggregate(self, name: str, fn, args, kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                calls_secs = self.aggregates.setdefault(name, [0, 0.0])
                calls_secs[0] += 1
                calls_secs[1] += dt

    def _count_calls(self, g):
        def counted(*a, **kw):
            self.counts["quadrature.adaptive_evals"] += 1
            return g(*a, **kw)
        return counted

    def _count_points(self, g):
        def counted(x, *a, **kw):
            self.counts["quadrature.panel_points"] += int(np.size(x))
            return g(x, *a, **kw)
        return counted

    # -- instrumentation ---------------------------------------------------

    def _wrap_function(self, site: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        func = fn.__name__
        name = f"{site}.{func}"
        if func in AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                return self.aggregate(name, fn, args, kwargs)
            return aggregated
        counter = None
        if func == "integrate" and layer == "quadrature":
            counter = self._count_calls
        elif func == "panel_integral" and layer == "quadrature":
            counter = self._count_points

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None and args:
                args = (counter(args[0]),) + tuple(args[1:])
            return self.call(name, layer, func, fn, args, kwargs)
        return traced

    def _wrap_table(self, site: str, cls):
        tracer = self

        class CountedTable(cls):
            def __init__(self, g, *args, **kwargs):
                tracer.call(f"{site}.{cls.__name__}", "quadrature", cls.__name__,
                            super().__init__, (tracer._count_points(g),) + args, kwargs)
        CountedTable.__name__ = cls.__name__
        CountedTable.__qualname__ = cls.__qualname__
        return CountedTable

    def install(self, modules) -> "Tracer":
        """Wrap every public ergosim function at every module that binds it."""
        from ergosim import quadrature
        table = getattr(quadrature, "Antiderivative", None)
        for mod in modules:
            site = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if table is not None and obj is table:
                    new = self._wrap_table(site, obj)
                elif inspect.isfunction(obj) and obj.__module__.startswith("ergosim."):
                    new = self._wrap_function(site, obj)
                else:
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, new)
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Per-layer self time: span durations minus their child spans."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        out: dict = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child.get(s.sid, 0.0)
        return out

    def select(self, func: str | None = None, layer: str | None = None) -> list:
        return [s for s in self.spans
                if (func is None or s.func == func) and (layer is None or s.layer == layer)]

    def aggregate_of(self, func: str) -> tuple:
        calls, secs = 0, 0.0
        for name, (c, t) in self.aggregates.items():
            if name.rsplit(".", 1)[-1] == func:
                calls, secs = calls + c, secs + t
        return calls, secs
