"""Spans around the calls into each module's public functions.

The tracer wraps functions and methods of ``enriques_bn`` from outside: it
rebinds every module-level name that refers to a traced function (modules
import each other's functions by name, so one function can have several
bindings) and replaces traced methods on their classes.  Nothing in the
package changes.

Spans nest on a stack.  A layer's self time is its span's duration minus
the time its child spans cover.  Work is counted only inside an item span
(:meth:`Tracer.item`), so set-up work never shows in the counts.  Self
times are also kept for each item, so the runner can drift-correct them
with that item's own correction factor.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# layer name -> (module, attribute path) of every function it covers; a
# dotted path names a method.
LAYERS = {
    "lattice.embed": [("lattice", "embed_configuration")],
    "lattice.solve": [("lattice", "solve_integer_linear")],
    "shortvec.lift_init": [("shortvec", "ComplementLift.__init__"),
                           ("shortvec", "FiberSystem.__init__")],
    "shortvec.fiber": [("shortvec", "ComplementLift.fiber"),
                       ("shortvec", "FiberSystem.solutions")],
    "shortvec.fiber_min": [("shortvec", "ComplementLift.fiber_min_square"),
                           ("shortvec", "FiberSystem.solutions_min_square")],
    "positivity.classify": [("positivity", "classify_positivity")],
    "positivity.cohomology": [("positivity", "cohomology")],
    "invariants.phi": [("invariants", "phi")],
    "invariants.mu": [("invariants", "mu")],
    "invariants.gonality": [("invariants", "gonality")],
    "invariants.decompose": [("invariants", "decompose_isotropic")],
    "brill_noether.predict": [("brill_noether", "predict_w1d")],
    "brill_noether.destab": [("brill_noether", "enumerate_destab")],
    "brill_noether.mn_bound": [("brill_noether", "check_mn_bound")],
    "brill_noether.plane_cover": [("brill_noether", "plane_cover_family_report")],
    "cli.run": [("cli", "run")],
}

# Layers whose results are lists of lattice points; their lengths are counted.
POINT_LAYERS = ("shortvec.fiber", "shortvec.fiber_min", "brill_noether.destab")

ITEM = "item"


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.points = {name: 0 for name in POINT_LAYERS}
        self.item_s = 0.0
        self.item_self_s = 0.0  # item time outside every layer span
        self.items = 0
        self.per_item: list[dict[str, float]] = []  # layer self seconds of each item
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self) -> tuple[float, float]:
        end = time.perf_counter()
        start, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        return duration, duration - covered

    @contextmanager
    def item(self):
        """The span of one item; layers are counted only inside one."""
        self.per_item.append({})
        self._enter()
        try:
            yield
        finally:
            duration, own = self._exit()
            self.items += 1
            self.item_s += duration
            self.item_self_s += own

    def _wrap(self, layer: str, fn):
        counts_points = layer in POINT_LAYERS

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                _, own = self._exit()
                self.calls[layer] += 1
                self.self_s[layer] += own
                this_item = self.per_item[-1]
                this_item[layer] = this_item.get(layer, 0.0) + own
            if counts_points:
                self.points[layer] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "enriques_bn" or name.startswith("enriques_bn."))]
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules[f"enriques_bn.{mod_name}"]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(layer, fn))
                    self._undo.append((cls, meth, fn))
                    continue
                fn = getattr(owner, path)
                wrapper = self._wrap(layer, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def counts(self) -> dict:
        """The deterministic part of a traced pass."""
        return {"items": self.items, "calls": dict(self.calls), "points": dict(self.points)}
