"""Span tracer for the per-layer run.

A layer is one module of the `cfasym` package.  The tracer wraps the public
functions of each module where another module, the package namespace or the
workload refers to them, so calls inside one module stay unwrapped and a
layer's count is the number of times it was entered from outside.  Every
wrapped call records a span (layer, start, end, parent) in memory; a
generator returned by a wrapped call records one span per resume, so a
lazy scanner is timed where its work happens.  Spans are written out once,
when the traced process ends, and `layer_totals` derives each layer's self
time: its spans' time minus the time covered by their child spans.  The
traced process does not import numpy; only `load` and `layer_totals`,
which run in the analysing process, use it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls = array("q")
        self.yields = array("q")
        self._open: list[int] = []

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
            self.calls.append(0)
            self.yields.append(0)
        return self.layers.index(name)

    def _enter(self, layer_id: int) -> int:
        i = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(clock())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = clock()
        self._open.pop()

    def wrap(self, fn, layer: str):
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer_id] += 1
            i = self._enter(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if isinstance(result, types.GeneratorType):
                return self._resumes(result, layer_id)
            return result

        return traced

    def _resumes(self, gen, layer_id: int):
        while True:
            i = self._enter(layer_id)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(i)
            self.yields[layer_id] += 1
            yield item

    def install(self, package, namespaces=()) -> None:
        """Wrap cross-module references to every public `package` function.

        Patches the globals of each submodule (references to other
        submodules' functions, and imported submodule objects), the package
        namespace and each extra namespace dict (workload code).
        """
        prefix = package.__name__ + "."
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith(prefix) and mod is not None}
        wrappers = {}
        views = {}
        for name, mod in modules.items():
            layer = name[len(prefix):]
            public = {attr: self.wrap(obj, layer) for attr, obj in vars(mod).items()
                      if not attr.startswith("_") and inspect.isfunction(obj)
                      and obj.__module__ == name}
            wrappers.update({id(getattr(mod, attr)): w for attr, w in public.items()})
            views[id(mod)] = _ModuleView(mod, public)

        def patch(ns: dict, own: str | None) -> None:
            for attr, obj in list(ns.items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers and getattr(obj, "__module__", None) != own:
                    ns[attr] = wrappers[id(obj)]
                elif id(obj) in views and obj.__name__ != own:
                    ns[attr] = views[id(obj)]

        for name, mod in modules.items():
            patch(vars(mod), name)
        patch(vars(package), None)
        for ns in namespaces:
            patch(ns, None)

    def dump(self, path: str) -> None:
        """Write the spans to PATH.bin (four arrays) and PATH.json (their names)."""
        header = {"layers": self.layers, "calls": list(self.calls),
                  "yields": list(self.yields), "spans": len(self.start)}
        with open(path + ".bin", "wb") as f:
            for arr in (self.start, self.end, self.parent, self.layer):
                f.write(arr.tobytes())
        with open(path + ".json", "w") as f:
            json.dump(header, f)


class _ModuleView:
    """A submodule as seen from another module: public functions wrapped."""

    def __init__(self, mod, wrapped: dict):
        self.__dict__.update(wrapped)
        self.__name__ = mod.__name__
        self._module = mod

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def load(path: str) -> dict:
    """Read what `Tracer.dump` wrote, as numpy arrays."""
    import numpy as np  # only the analysing process needs numpy

    with open(path + ".json") as f:
        spans = json.load(f)
    raw = np.fromfile(path + ".bin", dtype=np.uint8)
    n = spans["spans"]
    offset = 0
    for name, dtype in (("start", np.float64), ("end", np.float64),
                        ("parent", np.int32), ("layer", np.int8)):
        size = n * np.dtype(dtype).itemsize
        spans[name] = raw[offset:offset + size].view(dtype)
        offset += size
    return spans


def layer_totals(spans: dict) -> tuple[dict[str, dict], float]:
    """Per-layer self time, calls and yields, and the time top-level spans cover.

    A span's self time is its duration minus its direct children's
    durations, so the self times of all spans add up to the time covered by
    top-level spans.
    """
    import numpy as np

    layer, parent = spans["layer"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    per_layer = np.bincount(layer, weights=dur - child_time,
                            minlength=len(spans["layers"]))
    layers = {name: {"self_s": float(per_layer[k]), "calls": spans["calls"][k],
                     "yields": spans["yields"][k]}
              for k, name in enumerate(spans["layers"])}
    return layers, float(dur[~nested].sum())
