"""Per-layer grid sweep: the cost of one call of each step layer on a
world captured mid-run at 16, 32, 64 and 128 cells a side.

Each world is an open arena with one food patch, grown for a few steps
by the chemotaxis baseline under the harness economy with a lower
rho_cap. The layers
are then called directly, on that world's active cells, until each has
run for a minimum time; the median of five batches gives microseconds
per call. Small grids show numpy's per-call overhead, large grids the
arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from eincasm import environments, fluid, harness, lifecycle, physics, substrate
from eincasm.environments import EnvSpec, Rect
from eincasm.physics import PhysicsParams
from eincasm.substrate import GridShape
from workloads import HARNESS_PHYSICS

# The harness economy with rho_cap lowered to 0.05: at 0.25 a 128x128
# world goes unstable within ~30 steps.
SWEEP_PHYSICS = {**HARNESS_PHYSICS, "rho_cap": 0.05}
GRIDS = (16, 32, 64, 128)
LAYERS = (
    "substrate.dilate3x3",
    "substrate.perceive_cells",
    "cppn.Phenotype.evaluate_batch",
    "physics.constrain",
    "fluid.step",
    "fluid.advect_scalar",
)


def fluid_step_bytes(n: int) -> int:
    """Bytes one fluid step must move at least, computed from array sizes:
    the (9, n, n) float64 distributions read once and written once."""
    return 2 * 9 * n * n * 8


def capture(n: int, warmup: int, seed: int) -> lifecycle.Simulation:
    patch = max(2, n // 8)
    spec = EnvSpec(
        kind="open_arena", shape=GridShape(n, n), food=((Rect(3 * n // 4 - patch // 2, n // 2, patch, patch), 8.0),),
        seed=seed, seed_cell=(n // 2, n // 2), chemo_decay=0.99, chemo_iters=2 * n,
    )
    cfg = lifecycle.LifecycleConfig(
        t_min=warmup, t_max=warmup, p_update=0.5, seed_mass=1.0, seed_nutrient=24.0, tau=1.2
    )
    sim = lifecycle.build_simulation(
        harness.chemotaxis_baseline(4), environments.generate(spec), PhysicsParams(**SWEEP_PHYSICS), cfg,
        np.random.SeedSequence([seed, 1, 1]),
    )
    sim.run(warmup)
    return sim


def per_call_us(call, min_s: float) -> float:
    """Median over five batches of the time per call, in microseconds."""
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    per_batch = max(1, int(min_s / 5 / max(once, 1e-7)))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(per_batch):
            call()
        samples.append((time.perf_counter() - start) / per_batch)
    return statistics.median(samples) * 1e6


def layer_calls(sim: lifecycle.Simulation) -> dict:
    """The six step layers, bound to the captured world's current state."""
    world, p = sim.world, sim.params
    footprint = world.mass >= p.m_min
    ys, xs = np.nonzero(substrate.dilate3x3(footprint) & (world.obstacle <= 0.5))
    inputs = np.ones((len(ys), sim.phenotype.n_inputs))
    inputs[:, :-1] = substrate.perceive_cells(world, ys, xs)
    outputs = sim.phenotype.evaluate_batch(inputs)
    k = world.k_hidden
    dr, dm = physics.squash_outputs(outputs[:, k], outputs[:, k + 1], p)
    cells = [world.mass[ys, xs], world.reservoir[ys, xs], world.nutrient[ys, xs], world.food[ys, xs], world.poison[ys, xs]]
    velocity = fluid.macroscopic(sim.lattice).u
    sources = np.zeros(world.shape.yx)
    return {
        "substrate.dilate3x3": lambda: substrate.dilate3x3(footprint),
        "substrate.perceive_cells": lambda: substrate.perceive_cells(world, ys, xs),
        "cppn.Phenotype.evaluate_batch": lambda: sim.phenotype.evaluate_batch(inputs),
        "physics.constrain": lambda: physics.constrain(*cells, dr, dm, p),
        "fluid.step": lambda: fluid.step(sim.lattice, world.obstacle, sources),
        "fluid.advect_scalar": lambda: fluid.advect_scalar(world.nutrient, velocity, world.obstacle),
    }


def sweep(seed: int, warmup: int, min_s: float) -> dict[str, tuple[float, str]]:
    metrics = {}
    for n in GRIDS:
        calls = layer_calls(capture(n, warmup, seed))
        for name in LAYERS:
            metrics[f"{name}.us_per_call.g{n}"] = (per_call_us(calls[name], min_s), "us")
        metrics[f"fluid.step.bytes_model.g{n}"] = (fluid_step_bytes(n), "B")
    return metrics
