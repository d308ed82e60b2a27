"""The evolution loop: evaluate, log, reproduce.

Every member of a generation shares run_seed, and with it the arena, the
lifespan and the schedule, so members are evaluated in contiguous chunks,
each stepped as one batch by ``run_population``. A member's fitness does
not depend on which chunk it lands in, so the chunks fan out over a
process pool, one per worker, and their results are joined in member
order: the generational outcome is identical however the work was split.
The EINCASM_THREADS environment variable caps the pool size (0 or unset =
one worker per CPU, 1 = one batch, in-process).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import neat
from .config import RunConfig
from .cppn import Genome
from .environments import EnvSpec
from .lifecycle import LifecycleConfig, run_population
from .physics import PhysicsParams


def evaluation_workers() -> int:
    raw = os.environ.get("EINCASM_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 0:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _evaluate_chunk(task) -> list[float]:
    """Each member's fitness, averaged over the environment specs."""
    genomes, envs, params, cfg, run_seed = task
    per_env = [[record.fitness for record in run_population(genomes, env, params, cfg, run_seed)] for env in envs]
    return [float(np.mean(fitness)) for fitness in zip(*per_env)]


def evaluate_population(
    members: list[Genome],
    envs: list[EnvSpec],
    params: PhysicsParams,
    cfg: LifecycleConfig,
    run_seed: int,
    workers: int | None = None,
) -> list[float]:
    """Fitness per member, joined in member order. Every member of one
    generation shares run_seed, so all face identical environments. The
    members split into one contiguous chunk per worker."""
    if not members:
        return []
    workers = evaluation_workers() if workers is None else workers
    workers = max(1, min(workers, len(members)))
    edges = [len(members) * i // workers for i in range(workers + 1)]
    tasks = [(members[a:b], envs, params, cfg, run_seed) for a, b in zip(edges, edges[1:])]
    if workers == 1:
        return _evaluate_chunk(tasks[0])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [fitness for chunk in pool.map(_evaluate_chunk, tasks) for fitness in chunk]


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    n_species: int
    best_genome_nodes: int
    best_genome_connections: int
    best_index: int

    def to_row(self) -> dict:
        return {
            "generation": self.generation,
            "best_fitness": repr(self.best_fitness),
            "mean_fitness": repr(self.mean_fitness),
            "n_species": self.n_species,
            "best_genome_nodes": self.best_genome_nodes,
            "best_genome_connections": self.best_genome_connections,
        }


@dataclass
class EvolveResult:
    stats: list[GenerationStats] = field(default_factory=list)
    best_genome: Genome | None = None
    best_fitness: float = -np.inf
    final_population: neat.Population | None = None


def evolve_run(cfg: RunConfig, on_generation=None, workers: int | None = None) -> EvolveResult:
    """Run cfg.generations evaluation waves, reproducing between them.

    ``on_generation(stats, population)`` fires after each wave — the CLI
    hooks logging and checkpointing there. The best genome ever seen (ties
    broken toward the earlier generation and lower member index) is
    carried in the result.
    """
    pop = neat.init_population(cfg.evolution, cfg.k_hidden)
    result = EvolveResult()
    for gen in range(cfg.generations):
        run_seed = neat.evaluation_seed(cfg.evolution.seed, gen)
        fitnesses = evaluate_population(
            pop.members, cfg.environments, cfg.physics, cfg.lifecycle, run_seed, workers=workers
        )
        best_index = int(np.argmax(fitnesses))
        best = pop.members[best_index]
        stats = GenerationStats(
            generation=gen,
            best_fitness=float(fitnesses[best_index]),
            mean_fitness=float(np.mean(fitnesses)),
            n_species=len(pop.species),
            best_genome_nodes=len(best.nodes),
            best_genome_connections=len(best.connections),
            best_index=best_index,
        )
        result.stats.append(stats)
        if stats.best_fitness > result.best_fitness:
            result.best_fitness = stats.best_fitness
            result.best_genome = best.copy()
        if on_generation is not None:
            on_generation(stats, pop)
        if gen + 1 < cfg.generations:
            pop = neat.next_generation(pop, fitnesses, cfg.evolution)
    result.final_population = pop
    return result
