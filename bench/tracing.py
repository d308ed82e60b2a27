"""Outside-in span tracing of the eincasm layers.

The benchmark never edits the package. Instead, ``Tracer.install`` swaps
each public function listed in ``SPANS`` for a wrapper that records a span
(name, start, end, parent, lifecycle id), at every name the package calls
it by: each module-level binding of the original function object inside
``eincasm.*`` is replaced, and methods are replaced on their class.
``uninstall`` puts every original back.

Spans live in memory until the run ends. A span's self time is its
duration minus the time covered by its child spans; because the wrapped
calls nest strictly on one thread, children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

#: Span name -> "module:qualname" of the function it wraps.
SPANS = {
    "cli.main": "eincasm.cli:main",
    "cli.write_checkpoint": "eincasm.cli:write_checkpoint",
    "driver.evolve_run": "eincasm.driver:evolve_run",
    "driver.evaluate_population": "eincasm.driver:evaluate_population",
    "neat.init_population": "eincasm.neat:init_population",
    "neat.next_generation": "eincasm.neat:next_generation",
    "neat.speciate": "eincasm.neat:speciate",
    "lifecycle.run_lifecycle": "eincasm.lifecycle:run_lifecycle",
    "lifecycle.build_simulation": "eincasm.lifecycle:build_simulation",
    "lifecycle.Simulation.run": "eincasm.lifecycle:Simulation.run",
    "lifecycle.Simulation.step": "eincasm.lifecycle:Simulation.step",
    "lifecycle.apply_perturbation": "eincasm.lifecycle:apply_perturbation",
    "substrate.dilate3x3": "eincasm.substrate:dilate3x3",
    "substrate.perceive_cells": "eincasm.substrate:perceive_cells",
    "cppn.compile_genome": "eincasm.cppn:compile_genome",
    "cppn.Phenotype.evaluate_batch": "eincasm.cppn:Phenotype.evaluate_batch",
    "physics.constrain": "eincasm.physics:constrain",
    "fluid.step": "eincasm.fluid:step",
    "fluid.macroscopic": "eincasm.fluid:macroscopic",
    "fluid.advect_scalar": "eincasm.fluid:advect_scalar",
    "environments.generate": "eincasm.environments:generate",
    "environments.generate_cached": "eincasm.environments:generate_cached",
    "environments.chemoattractant_field": "eincasm.environments:chemoattractant_field",
    "harness.run_battery": "eincasm.harness:run_battery",
    "harness.pathfinding_test": "eincasm.harness:pathfinding_test",
    "harness.coordination_test": "eincasm.harness:coordination_test",
    "harness.build_arena": "eincasm.harness:build_arena",
    "fileio.write_json": "eincasm.fileio:write_json",
    "fileio.atomic_write_text": "eincasm.fileio:atomic_write_text",
}

#: Opening one of these spans starts a new lifecycle id; nested spans share it.
LIFECYCLE_ROOTS = frozenset({"lifecycle.run_lifecycle", "harness.pathfinding_test", "harness.coordination_test"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


#: Counts recorded at a span boundary: span -> (counter, f(args, kwargs)).
COUNTS = {
    "substrate.perceive_cells": ("substrate.perceive_cells.rows", lambda a, k: len(_arg(a, k, 1, "ys"))),
    "cppn.Phenotype.evaluate_batch": (
        "cppn.Phenotype.evaluate_batch.rows",
        lambda a, k: len(_arg(a, k, 1, "inputs")),
    ),
    "physics.constrain": ("physics.constrain.cells", lambda a, k: int(np.size(_arg(a, k, 0, "mass")))),
    "fileio.atomic_write_text": (
        "fileio.atomic_write_text.bytes",
        lambda a, k: len(_arg(a, k, 1, "text").encode("utf-8")),
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.lifecycles: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._next_lifecycle = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if name in LIFECYCLE_ROOTS:
            lifecycle = self._next_lifecycle
            self._next_lifecycle += 1
        else:
            lifecycle = self.lifecycles[parent] if parent >= 0 else 0
        self.names.append(name)
        self.parents.append(parent)
        self.lifecycles.append(lifecycle)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span that the benchmark itself opens."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        instability = None
        if name == "fluid.step":
            instability = getattr(sys.modules["eincasm.fluid"], "FluidInstability", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                try:
                    self.counts[count[0]] += count[1](args, kwargs)
                except (IndexError, KeyError, TypeError):  # the call no longer has that argument
                    self.uncounted.add(count[0])
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if instability is not None and isinstance(exc, instability):
                    self.counts["fluid.truncations"] += 1
                raise
            finally:
                self._close(index)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS at each name eincasm binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n == "eincasm" or n.startswith("eincasm.")]
        for name, target in SPANS.items():
            module_name, qualname = target.split(":")
            owner = sys.modules.get(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: its class is the one place to patch
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        if self.missing:
            print(f"warning: trace targets not found: {', '.join(self.missing)}", file=sys.stderr)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        out: dict[str, dict[str, float]] = {}
        for name, own in zip(self.names, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: every span closed, and every child
        lying inside its parent's interval and starting after it."""
        problems = []
        for index, parent in enumerate(self.parents):
            if self.ends[index] < self.starts[index]:
                problems.append(f"span {index} ({self.names[index]}) ends before it starts")
            if parent < 0:
                continue
            if parent >= index:
                problems.append(f"span {index} has a parent recorded after it")
            elif not (self.starts[parent] <= self.starts[index] and self.ends[index] <= self.ends[parent]):
                problems.append(f"span {index} ({self.names[index]}) escapes its parent {self.names[parent]}")
            elif self.lifecycles[index] != self.lifecycles[parent] and self.names[index] not in LIFECYCLE_ROOTS:
                problems.append(f"span {index} ({self.names[index]}) changed lifecycle id inside its parent")
        return problems
