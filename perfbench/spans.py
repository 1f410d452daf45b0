"""Outside-in layer spans for the traced run.

A layer is one module of the `svbayes` package.  The tracer discovers the
modules and their public entry points at run time and wraps each in a span:
module-level functions, and a class's public methods, class and static
methods, properties and constructor.  Nothing under `src/` is edited; the
wrappers are set on the module namespaces and classes for a traced op and
the originals are put back after it, so untraced ops run the plain code.
Because the entry points are discovered, not listed, a function a later
change deletes simply stops appearing.

Not spanned, so their cost stays with the caller:

* exceptions, enums and named tuples;
* plain records -- classes with no public method, property or
  `__post_init__` check (the tape's `Node`, `TraceRecord`);
* the per-scalar primitives of a sized container (a class with `__len__`,
  the autodiff tape): its public methods annotated to return a plain
  number (`NodeId`, `float`).  There are ~1,600 per optimizer step; they
  are counted through the container's length when a spanned method of it
  (`Tape.grad`) is called.

Spans are kept in memory, one `Span` per call, and written out when the
run ends.  Each records the sizes that the per-layer counts need: `n_in` is
the container's length for a method of a sized class, else the broadcast
size of the call's ndarray arguments; `n_out` is the size of the result.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import math
import pkgutil
import time
import tracemalloc
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    op: int
    sid: int
    parent: int | None
    parent_layer: str | None
    layer: str
    name: str
    is_init: bool
    t0: int  # perf_counter_ns
    t1: int
    n_in: int
    n_out: int


def discover_layers(package) -> dict:
    """Every module of `package`, by its short name."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def _returns_number(fn, module) -> bool:
    ann = fn.__annotations__.get("return")
    if isinstance(ann, str):  # postponed annotations: resolve aliases by name
        ann = {"int": int, "float": float}.get(ann, vars(module).get(ann))
    return ann in (int, float)


def _size_in(args, kwargs, sized: bool) -> int:
    if sized:
        return len(args[0])
    shapes = [a.shape for a in args if type(a) is np.ndarray]
    if kwargs:
        shapes += [a.shape for a in kwargs.values() if type(a) is np.ndarray]
    if len(shapes) < 2:
        return math.prod(shapes[0]) if shapes else 0
    try:
        return math.prod(np.broadcast_shapes(*shapes))
    except ValueError:
        return max(math.prod(s) for s in shapes)


def _size_out(result) -> int:
    kind = type(result)
    if kind is np.ndarray:
        return result.size
    return 1 if kind is float or kind is int or isinstance(result, np.number) else 0


class Tracer:
    """Span recorder over every discovered layer of one package.

    `memory_layers` get a tracemalloc window around each call that enters
    them from another layer; its peak is kept per op in `memory_peak`.
    """

    def __init__(self, layers: dict, namespaces=(), memory_layers=()) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.memory_peak: dict[int, int] = {}
        self._memory_layers = set(memory_layers)
        self._stack: list[tuple[int, str]] = []
        self._next_sid = 0
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        wrapped_functions = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped_functions[obj] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj):
                    self._plan_class(obj, layer, module)
        # a function is reachable from every namespace that imported it
        for ns in (*layers.values(), *namespaces):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped_functions:
                    self._patches.append((ns, attr, obj, wrapped_functions[obj]))

    def _plan_class(self, cls, layer: str, module) -> None:
        if issubclass(cls, (BaseException, enum.Enum, tuple)):
            return
        own = vars(cls)
        methods = {
            n: v
            for n, v in own.items()
            if not n.startswith("_")
            and (inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod, property)))
        }
        if not methods and "__post_init__" not in own:
            return  # a plain record
        if inspect.isfunction(own.get("__init__")):
            init = own["__init__"]
            self._patches.append(
                (cls, "__init__", init, self._wrap(init, layer, cls.__name__, is_init=True))
            )
        sized = "__len__" in own
        for n, v in methods.items():
            name = f"{cls.__name__}.{n}"
            if isinstance(v, (classmethod, staticmethod)):
                repl = type(v)(self._wrap(v.__func__, layer, name))
            elif isinstance(v, property):
                if v.fget is None:
                    continue
                repl = property(self._wrap(v.fget, layer, name), v.fset, v.fdel, v.__doc__)
            elif sized and _returns_number(v, module):
                continue  # per-scalar primitive, counted through len()
            else:
                repl = self._wrap(v, layer, name, sized=sized)
            self._patches.append((cls, n, v, repl))

    def _wrap(self, fn, layer: str, name: str, is_init: bool = False, sized: bool = False):
        tracer = self
        clock = time.perf_counter_ns
        watch_memory = layer in self._memory_layers

        def span(*args, **kwargs):
            stack = tracer._stack
            parent, parent_layer = stack[-1] if stack else (None, None)
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            n_in = 0 if is_init else _size_in(args, kwargs, sized)
            window = watch_memory and parent_layer != layer and not tracemalloc.is_tracing()
            if window:
                tracemalloc.start()
            stack.append((sid, layer))
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if window:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.memory_peak[tracer._op] = max(
                        peak, tracer.memory_peak.get(tracer._op, 0)
                    )
                tracer.spans.append(
                    Span(tracer._op, sid, parent, parent_layer, layer, name, is_init,
                         t0, t1, n_in, _size_out(result))
                )
            return result

        span.__wrapped__ = fn
        return span

    def install(self, op: int) -> None:
        """Wrap every entry point; spans recorded until `uninstall` carry `op`."""
        self._op = op
        for owner, attr, _, repl in self._patches:
            setattr(owner, attr, repl)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the durations of its direct children (ns).

    Calls are strictly nested in a single-threaded op, so the children's
    intervals are disjoint and lie inside their parent's.
    """
    covered: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + (s.t1 - s.t0)
    return {s.sid: (s.t1 - s.t0) - covered.get(s.sid, 0) for s in spans}


def op_layer_stats(spans, layers, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (see BENCHMARK.json for units).

    `steps` is the op's optimizer step count, read from its fit JSON (0 for
    a grid op).  Calls count entries into a layer from another layer.
    """
    selfs = self_times(spans)
    by_sid = {s.sid: s for s in spans}
    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.sid] / 1e9
        if s.parent_layer != s.layer:
            out[f"{s.layer}.calls"] += 1

    def entries(layer):
        return [s for s in spans if s.layer == layer and s.parent_layer != layer and not s.is_init]

    optimizer = [s for s in spans if s.layer == "optimizer"]
    last_step = max(optimizer, key=lambda s: s.t1) if optimizer else None
    per_step = 1.0 / steps if steps else 0.0
    out["distributions.points_per_step"] = per_step * sum(
        s.n_in for s in entries("distributions") if last_step and s.t0 < last_step.t1
    )
    out["autodiff.nodes_per_step"] = per_step * sum(
        s.n_in for s in spans if s.layer == "autodiff" and s.name.endswith(".grad")
    )
    out["rng.draws"] = sum(s.n_out for s in entries("rng"))
    out["engine.final_fe_s"] = 0.0
    if last_step is not None:
        outer, node = None, last_step
        while node.parent is not None:
            node = by_sid[node.parent]
            if node.layer == "engine":
                outer = node
        if outer is not None:
            out["engine.final_fe_s"] = (outer.t1 - last_step.t1) / 1e9

    grid_terms = [
        s.n_in for s in spans
        if s.layer == "distributions" and s.parent_layer == "grid_oracle" and not s.is_init
    ]
    out["grid_oracle.terms"] = sum(grid_terms)
    out["grid_oracle.bytes_computed"] = 8 * max(grid_terms, default=0)  # float64

    out["cli.read_s"] = sum(
        (s.t1 - s.t0) / 1e9 for s in spans if s.layer == "cli" and "read" in s.name
    )
    roots = [s for s in spans if s.parent is None and s.layer == "cli"]
    compute = [s for s in spans if s.layer != "cli"]
    out["cli.write_s"] = 0.0
    if roots and compute:
        # everything the command does after its longest computation returns
        out["cli.write_s"] = (roots[-1].t1 - max(compute, key=lambda s: s.t1 - s.t0).t1) / 1e9
    return out
