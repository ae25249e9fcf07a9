"""Per-layer spans recorded from outside the library.

Each layer is one latticemini module. Its public functions and the public
methods of its public classes are found by module at run time and wrapped,
so a function renamed inside a layer stays measured. Every module of the
package that imported a wrapped function by name gets the wrapper too.

A call into a layer opens a span (name, start, end, parent, request id).
A call from a layer into itself, such as the recursion of `det` or a
`from_vertices` inside `pyramid`, opens none. A layer's self time is its
spans' duration minus the time their child spans cover. Spans stay in
memory, up to a cap, and are written out once the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = {
    "linalg": "latticemini._linalg",
    "geometry": "latticemini.geometry",
    "counting": "latticemini.counting",
    "polynomial": "latticemini.polynomial",
    "ehrhart": "latticemini.ehrhart",
    "miniatures": "latticemini.miniatures",
    "cli": "latticemini.cli",
}

# Elementwise vector helpers run once per point per facet candidate: hundreds
# of thousands of calls per hull. A span around each would multiply the run
# time and the span log, so their time counts as their caller's self time.
UNWRAPPED = {("linalg", "dot"), ("linalg", "vsub"), ("linalg", "vadd"), ("linalg", "vscale")}

MAX_SPANS = 50_000


def _box_cells(vertices, t: int) -> int:
    """Integer cells of the bounding box of tP, from P's vertices."""
    cells = 1
    for j in range(len(vertices[0])):
        column = [v[j] for v in vertices]
        cells *= t * (max(column) - min(column)) + 1
    return cells


class Tracer:
    """Wraps the layers of a loaded latticemini and records spans and counters."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, time covered by children, span id]
        self.request = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.hull_points = 0
        self.box_cells = 0
        self.count_keys: list = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id)
        self.opened = 0
        self.dropped = 0
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- installation ---------------------------------------------------------

    def _hook(self, layer: str, fn):
        """The counter hook for one function, chosen by its parameter names."""
        params = list(inspect.signature(fn).parameters)
        if layer == "geometry" and params[:1] == ["points"]:
            def hull(args, kwargs):
                points = args[0] if args else kwargs["points"]
                self.hull_points += len(points)
            return hull
        if layer == "counting" and params[:2] == ["P", "t"]:
            has_interior = "interior" in params
            at = params.index("interior") if has_interior else None

            def count(args, kwargs):
                P = args[0] if args else kwargs["P"]
                t = args[1] if len(args) > 1 else kwargs["t"]
                interior = False
                if has_interior:
                    interior = args[at] if len(args) > at else kwargs.get("interior", False)
                if P.dim == P.ambient_dim:
                    self.box_cells += _box_cells(P.vertices, t)
                self.count_keys.append((fn.__name__, P.vertices, t, bool(interior)))
            return count
        return None

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hook(layer, fn)
        stack = self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            span_id = self.opened
            self.opened += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, f"{layer}.{name}", start, end, parent, self.request)
                    )
                else:
                    self.dropped += 1

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them package-wide."""
        replaced = {}
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for name, obj in vars(module).items():
                if name.startswith("_") or (layer, name) in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module_name:
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == module_name:
                    self._wrap_methods(layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "latticemini" and not module_name.startswith("latticemini."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    wrapper = replaced[id(value)][1]
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value, wrapper))

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapper = type(member)(self._wrap(layer, f"{cls.__name__}.{name}", member.__func__))
            elif inspect.isfunction(member):
                wrapper = self._wrap(layer, f"{cls.__name__}.{name}", member)
            else:
                continue
            setattr(cls, name, wrapper)
            self._patches.append((cls, name, member, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request calls and self milliseconds of each layer, plus counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / requests
            out[f"{layer}.self_ms"] = self.self_s[layer] * 1000 / requests
        out["geometry.hull_points"] = self.hull_points / requests
        out["counting.box_cells"] = self.box_cells / requests
        keys = self.count_keys
        out["counting.distinct_share"] = len(set(keys)) / len(keys) if keys else 1.0
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")
