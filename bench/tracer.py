"""Per-layer tracing from outside the program.

The tracer replaces public functions of prokit's layers with timing
wrappers, in the defining module and in every prokit module that imported
the name, plus a short list of hot methods.  Element accessors
(`IntMatrix.__getitem__`, `row`, ...) are never wrapped: they run millions
of times per pass and wrapping them triples the run time.

Each call is a span whose parent is the innermost enclosing span.  Spans are
aggregated as they close, per function and per (parent, child) edge, so the
trace stays small however long the run: self time is a span's duration
minus the time of its child spans, and inclusive time is counted only at
the outermost active span of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = {
    "intlinalg": ("prokit.intlinalg",),
    "rings": ("prokit.rings",),
    "modules": ("prokit.modules",),
    "complexes": ("prokit.complexes",),
    "analysis": ("prokit.analysis",),
    "tasks": ("prokit.tasks", "prokit.cli"),
}

# hot methods worth a span; (layer, module, class, method)
METHODS = (
    ("intlinalg", "prokit.intlinalg", "IntMatrix", "__mul__"),
    ("intlinalg", "prokit.intlinalg", "IntMatrix", "apply"),
    ("intlinalg", "prokit.intlinalg", "IntLinearSystem", "__init__"),
    ("intlinalg", "prokit.intlinalg", "IntLinearSystem", "solve"),
    ("intlinalg", "prokit.intlinalg", "GroupHom", "compose"),
    ("rings", "prokit.rings", "FiniteRing", "__init__"),
    ("modules", "prokit.modules", "FgModule", "validate"),
)


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, self_s, incl_s, raised]
        self.edges = {}      # (parent name, name) -> [calls, incl_s]
        self.absent = []
        self._stack = []     # [name, child seconds] of the open spans
        self._active = {}    # name -> open spans of that name
        self._patches = []   # (owner, attribute, original)

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.edges.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, active, edges = self._stack, self._active, self.edges

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] = depth
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt - frame[1]
                if depth == 0:
                    stats[2] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edges[(parent, name)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        return span

    def install(self):
        """Wrap every public function of the layers and the hot methods.
        Missing modules, classes or methods are recorded in `absent`."""
        if self._patches:
            return
        self.absent = []
        originals = {}   # id(function) -> (function, wrapper)
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = sys.modules.get(modname)
                if mod is None:
                    self.absent.append(modname)
                    continue
                for attr, obj in sorted(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if obj.__module__ != modname:
                        continue
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "prokit"]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if not inspect.isfunction(fn):
                self.absent.append(f"{layer}.{clsname}.{meth}")
                continue
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{clsname}.{meth}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def snapshot(self):
        """Copy of the per-name and per-edge totals since the last reset."""
        return (
            {name: tuple(st) for name, st in self.stats.items()},
            {edge: tuple(v) for edge, v in self.edges.items()},
        )
