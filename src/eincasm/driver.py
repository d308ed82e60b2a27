"""The evolution loop: evaluate, log, reproduce.

Every member of a generation shares run_seed, and with it the arenas, the
lifespan and the schedule, so ``run_population`` steps contiguous chunks
of members as batches, evaluations numbered from 1 again in each
environment. A member's record does not depend on its chunk, so the
chunks fan out over a process pool, one per worker (without a pool, one
chunk runs through the builtin ``map``), and the records are joined in
member order. A member's fitness is its record's: per environment the
mean of its final masses, then the mean of those; the driver averages
no masses itself.

What crosses to a worker is one pickled chunk of genomes, each as plain
gene tuples (``Genome.__reduce__``), with the environments, physics,
lifecycle config and run seed bound to ``run_population``; what comes
back is the chunk's records.

``evolve_run`` is the one place that opens a pool, and so imports
``ProcessPoolExecutor`` itself. Its size comes from EINCASM_THREADS (0 or
unset = one worker per CPU this process may run on, 1 = no pool). The
pool lives for the whole run, so its workers start once; a worker keeps
only caches between generations (obstacle layouts, arenas), none of which
a fitness depends on. Fluid work arrays belong to a simulation's lattice,
so a worker builds them once per simulation.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import neat
from .config import RunConfig
from .cppn import Genome
from .environments import EnvSpec
from .lifecycle import FitnessRecord, LifecycleConfig, run_population
from .physics import PhysicsParams

if TYPE_CHECKING:
    from concurrent.futures import Executor


def evaluation_workers() -> int:
    """The pool size EINCASM_THREADS asks for. When it is unset, not an
    integer, or not positive, one worker per CPU this process may run on,
    so a run pinned by ``taskset`` or a cpuset forks no idle workers."""
    try:
        n = int(os.environ.get("EINCASM_THREADS", "0"))
    except ValueError:
        n = 0
    if n > 0:
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def evaluate_population(
    members: list[Genome],
    envs: list[EnvSpec],
    params: PhysicsParams,
    cfg: LifecycleConfig,
    run_seed: int,
    pool: Executor | None = None,
    workers: int = 1,
) -> list[FitnessRecord]:
    """Each member's FitnessRecord over ``envs``, in member order. The
    members split into ``workers`` contiguous chunks that run on ``pool``,
    or into one chunk run in-process without it."""
    workers = 1 if pool is None else max(1, min(workers, len(members)))
    edges = [len(members) * i // workers for i in range(workers + 1)]
    chunks = [members[a:b] for a, b in zip(edges, edges[1:]) if a < b]
    evaluate = partial(run_population, envs=envs, params=params, cfg=cfg, run_seed=run_seed)
    return [record for chunk in (map if pool is None else pool.map)(evaluate, chunks) for record in chunk]


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    n_species: int
    best_genome_nodes: int  # the fixed inputs included, as in the genome file
    best_genome_connections: int
    n_failed: int = 0  # failed outcomes in the generation's records; not in log.csv


@dataclass
class EvolveResult:
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
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only a run that pools needs it
    pop = neat.init_population(cfg.evolution, cfg.k_hidden)
    result = EvolveResult()
    pool_size = min(evaluation_workers(), len(pop.members))
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else contextlib.nullcontext() as pool:
        for gen in range(cfg.generations):
            run_seed = neat.evaluation_seed(cfg.evolution.seed, gen)
            records = evaluate_population(
                pop.members, cfg.environments, cfg.physics, cfg.lifecycle, run_seed, pool, pool_size
            )
            fitnesses = [record.fitness for record in records]
            best_index = int(np.argmax(fitnesses))
            best = pop.members[best_index]
            stats = GenerationStats(
                generation=gen,
                best_fitness=float(fitnesses[best_index]),
                mean_fitness=float(np.mean(fitnesses)),
                n_species=len(pop.species),
                best_genome_nodes=best.n_inputs + len(best.nodes),
                best_genome_connections=len(best.connections),
                n_failed=sum(outcome.failure is not None for record in records for outcome in record.per_env),
            )
            if stats.best_fitness > result.best_fitness:
                result.best_fitness = stats.best_fitness
                result.best_genome = best.copy()
            if on_generation is not None:
                on_generation(stats, pop)
            if gen + 1 < cfg.generations:
                pop = neat.next_generation(pop, fitnesses, cfg.evolution)
    result.final_population = pop
    return result
