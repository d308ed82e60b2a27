"""The benchmark workloads: pinned inputs, one timed operation each, and
the digest that checks the operation's output.

Every input is written out here as a literal rather than taken from a
package default, so a change to a default cannot silently change the
traffic. The workload seed reaches the program only through these
inputs.

* ``evolve16``  -- ``eincasm evolve`` run in-process through ``cli.main``:
  32 members, 2 generations of 150-step lifecycles, a 16x16 open arena
  with one food patch.
  One operation is one evolve command.
* ``battery``   -- ``harness.run_battery`` on the chemotaxis baseline with
  the harness economy written out. One operation is one battery; it
  counts as its three tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from eincasm import cli, environments, harness, lifecycle, neat
from eincasm.config import parse_config
from eincasm.lifecycle import LifecycleConfig
from eincasm.physics import PhysicsParams


class CheckFailed(RuntimeError):
    """An operation's output broke an invariant the benchmark checks."""


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads. FULL is the benchmark; TINY is the self-test."""

    evolve_pop: int
    evolve_generations: int
    evolve_lifespan: int
    battery_lifespan: int
    sweep_warmup: int
    sweep_min_s: float
    probes: int


FULL = Scale(32, 2, 150, 600, 40, 0.05, 5)
TINY = Scale(4, 2, 8, 8, 2, 0.0, 1)


class OpResult(NamedTuple):
    digest: str
    wall_s: float
    lifecycles: int
    site_steps: int  # lattice-site updates: steps x H x W, summed over lifecycles


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# Today's harness economy, written out.
HARNESS_PHYSICS = dict(
    alpha=0.0005, beta=1.0, gamma=0.5, kappa=8.0, v_min=1e-3, rho_cap=0.25,
    delta_r_max=0.5, delta_m_max=0.5, poison_rate=0.2, m_min=1e-4,
)


def harness_lifecycle(steps: int) -> LifecycleConfig:
    return LifecycleConfig(
        t_min=steps, t_max=steps, p_update=1.0, seed_cell=None, seed_mass=1.0,
        seed_nutrient=24.0, n_env_evals=1, tau=1.2, schedule=(),
    )


# -- evolve16 -----------------------------------------------------------------


class Evolve16:
    name = "evolve16"
    ops = 1  # operations one op() call counts as

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.config = {
            "evolution": {
                "population_size": scale.evolve_pop, "c1": 1.0, "c2": 1.0, "c3": 0.4,
                "compatibility_threshold": 3.0, "weight_mutation_rate": 0.8, "weight_perturb_std": 0.5,
                "add_node_rate": 0.03, "add_connection_rate": 0.1, "disable_rate": 0.01, "elitism": 1,
                "survival_fraction": 0.3, "stagnation_limit": 15, "seed": seed,
            },
            "physics": {
                "alpha": 0.2, "beta": 1.0, "gamma": 0.1, "kappa": 4.0, "v_min": 1e-3, "rho_cap": 0.1,
                "delta_r_max": 0.5, "delta_m_max": 0.5, "poison_rate": 0.2, "m_min": 1e-4,
            },
            # One fixed, short lifespan: a drawn one (300-600) would swing the
            # cost of a generation 2x from seed to seed, and a short one fits
            # several commands into one run.
            "lifecycle": {
                "t_min": scale.evolve_lifespan, "t_max": scale.evolve_lifespan, "p_update": 0.5,
                "seed_cell": None, "seed_mass": 1.0, "seed_nutrient": 1.0, "n_env_evals": 1,
                "tau": 0.8, "schedule": [],
            },
            "environment": {
                "kind": "open_arena", "shape": [16, 16], "food": [[[10, 7, 3, 3], 1.0]], "poison": [],
                "seed": seed, "seed_cell": None, "chemo_decay": 0.9, "chemo_iters": 32, "params": {},
            },
            "io": {"output_dir": "out", "frame_every": 0, "log_level": "quiet"},
            "generations": scale.evolve_generations,
            "k_hidden": 4,
            "checkpoint_every": 10,
        }
        self.config_path = os.path.join(workdir, "evolve16.json")
        self.out = os.path.join(workdir, "evolve16-out")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(self.config, handle, indent=1)

    def first_step(self) -> None:
        cfg = parse_config(self.config)
        pop = neat.init_population(cfg.evolution, cfg.k_hidden)
        bundle = environments.generate_cached(cfg.environments[0])
        sim = lifecycle.build_simulation(
            pop.members[0], bundle, cfg.physics, cfg.lifecycle, np.random.SeedSequence([0, 1, 1])
        )
        sim.step()

    def op(self, workers: int) -> OpResult:
        """One ``eincasm evolve`` command with ``workers`` evaluation workers.

        The arena cache is emptied first, as in a fresh ``eincasm`` process.
        """
        memo = getattr(environments, "_generate_memo", None)
        if memo is not None:
            memo.cache_clear()
        shutil.rmtree(self.out, ignore_errors=True)
        saved = os.environ.get("EINCASM_THREADS")
        os.environ["EINCASM_THREADS"] = str(workers)
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["evolve", "--config", self.config_path, "--out", self.out])
            wall = time.perf_counter() - start
        finally:
            if saved is None:
                del os.environ["EINCASM_THREADS"]
            else:
                os.environ["EINCASM_THREADS"] = saved
        if rc != 0:
            raise CheckFailed(f"eincasm evolve exited with {rc}")
        with open(os.path.join(self.out, "log.csv"), "rb") as handle:
            log = handle.read()
        with open(os.path.join(self.out, "best_genome.json"), "rb") as handle:
            best = handle.read()
        if log.count(b"\n") != 1 + self.scale.evolve_generations:
            raise CheckFailed("log.csv does not hold one row per generation")
        lifecycles = self.scale.evolve_pop * self.scale.evolve_generations
        return OpResult(sha256(log, best), wall, lifecycles, lifecycles * self.scale.evolve_lifespan * 16 * 16)


# -- battery ------------------------------------------------------------------


class Battery:
    name = "battery"
    ops = 3  # its tests: corridor, detour, coordination

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.params = PhysicsParams(**HARNESS_PHYSICS)
        self.cfg = harness_lifecycle(scale.battery_lifespan)
        self.genome = harness.chemotaxis_baseline(4)
        specs = (harness.corridor_spec(), harness.detour_spec(), harness.coordination_spec())
        self.site_steps = sum(s.shape.width * s.shape.height for s in specs) * scale.battery_lifespan

    def first_step(self) -> None:
        bundle = environments.generate(harness.corridor_spec())
        sim = lifecycle.build_simulation(
            self.genome, bundle, self.params, self.cfg, np.random.SeedSequence([self.seed, 1, 1])
        )
        sim.step()

    def op(self) -> OpResult:
        start = time.perf_counter()
        report = harness.run_battery(self.genome, self.params, self.seed, self.cfg)
        wall = time.perf_counter() - start
        if len(report.tests) != self.ops or not 0.0 <= report.iq <= 1.0:
            raise CheckFailed(f"battery report has {len(report.tests)} tests and iq {report.iq}")
        digest = sha256(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
        return OpResult(digest, wall, self.ops, self.site_steps)


WORKLOADS = {cls.name: cls for cls in (Evolve16, Battery)}
