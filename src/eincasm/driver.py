"""The evolution loop: evaluate, log, reproduce.

Every member of a generation shares run_seed, and with it the arena, the
lifespan and the schedule, so members are evaluated in contiguous chunks,
each stepped as one batch by ``run_population``. A member's fitness does
not depend on which chunk it lands in, so the chunks fan out over a
process pool, one per worker (without a pool, one chunk runs through the
builtin ``map``), and their results are joined in member order: the
generational outcome is identical however the work was split.

``evolve_run`` is the one place that opens a pool. Its size comes from
the EINCASM_THREADS environment variable (0 or unset = one worker per
CPU, 1 = no pool: one chunk, in-process). The pool lives for the whole
run and closes when the run ends, so its workers start once, not once per
generation; every generation's chunks go to those same workers, through
``evaluate_population``. A worker keeps only caches
between generations (obstacle layouts, fluid work arrays, arenas), none
of which a fitness depends on.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import neat
from .config import RunConfig
from .cppn import Genome
from .environments import EnvSpec
from .lifecycle import LifecycleConfig, run_population
from .physics import PhysicsParams


def evaluation_workers() -> int:
    """The pool size EINCASM_THREADS asks for; one worker per CPU when it
    is unset, not an integer, or not positive."""
    try:
        n = int(os.environ.get("EINCASM_THREADS", "0"))
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _evaluate_chunk(task) -> tuple[list[float], int]:
    """Each member's fitness, averaged over the environment specs, and the
    number of lifecycles whose fluid failed."""
    genomes, envs, params, cfg, run_seed = task
    per_env = [run_population(genomes, env, params, cfg, run_seed) for env in envs]
    fitness = [float(np.mean([record.fitness for record in member])) for member in zip(*per_env)]
    n_failed = sum(outcome.failure is not None for records in per_env for record in records for outcome in record.per_env)
    return fitness, n_failed


def evaluate_population(
    members: list[Genome],
    envs: list[EnvSpec],
    params: PhysicsParams,
    cfg: LifecycleConfig,
    run_seed: int,
    pool: Executor | None = None,
    workers: int = 1,
) -> tuple[list[float], int]:
    """Fitness per member, joined in member order, and the number of
    lifecycles (member x environment evaluation) that a fluid failure cut
    short. Every member of one generation shares run_seed, so all face
    identical environments. The members split into ``workers`` contiguous
    chunks that run on ``pool``, or into one chunk run in-process without
    it."""
    if not members:
        return [], 0
    workers = 1 if pool is None else max(1, min(workers, len(members)))
    edges = [len(members) * i // workers for i in range(workers + 1)]
    tasks = [(members[a:b], envs, params, cfg, run_seed) for a, b in zip(edges, edges[1:])]
    chunks = list((map if pool is None else pool.map)(_evaluate_chunk, tasks))
    return [fitness for chunk, _ in chunks for fitness in chunk], sum(n_failed for _, n_failed in chunks)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    n_species: int
    best_genome_nodes: int
    best_genome_connections: int
    n_failed: int = 0  # lifecycles cut short by a fluid failure; not in log.csv


@dataclass
class EvolveResult:
    stats: list[GenerationStats] = field(default_factory=list)
    best_genome: Genome | None = None
    best_fitness: float = -np.inf
    final_population: neat.Population | None = None


def evolve_run(cfg: RunConfig, on_generation=None) -> EvolveResult:
    """Run cfg.generations evaluation waves, reproducing between them.

    ``on_generation(stats, population)`` fires after each wave — the CLI
    hooks logging and checkpointing there. The best genome ever seen (ties
    broken toward the earlier generation and lower member index) is
    carried in the result.
    """
    pop = neat.init_population(cfg.evolution, cfg.k_hidden)
    result = EvolveResult()
    pool_size = min(evaluation_workers(), len(pop.members))
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else contextlib.nullcontext() as pool:
        for gen in range(cfg.generations):
            run_seed = neat.evaluation_seed(cfg.evolution.seed, gen)
            fitnesses, n_failed = evaluate_population(
                pop.members, cfg.environments, cfg.physics, cfg.lifecycle, run_seed, pool, pool_size
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
                n_failed=n_failed,
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
