"""One organism's life: perceive -> rule -> constrain -> fluid -> advect,
with scheduled perturbations, seeding, and fitness accounting.

The per-step pipeline (normative order):

1. the active set is every non-obstacle cell whose 3x3 neighborhood
   contains at least one cell with mass >= m_min;
2. each active cell is selected independently with probability p_update,
   one uniform draw per active cell in row-major order; at p_update 1
   every active cell is selected and nothing is drawn, since a draw in
   [0, 1) always falls below 1 and nothing else reads the streams;
3. selected cells perceive the *pre-step* world, evaluate the compiled
   rule, and have their outputs squashed;
4. hidden outputs (clamped to [-1, 1]) are written and the physics
   constraint pipeline runs per selected cell; unselected cells are fully
   frozen this step apart from fluid transport;
5. the paid reservoir changes of selected cells become capped density
   sources for one fluid step;
6. nutrient is advected by the resulting velocity field; a member whose
   velocity breaks advection's CFL bound stays unmoved and fails, as one
   whose fluid fails the step's own screen does, each reported by fluid;
7. any perturbation scheduled for this step index is applied (with the
   lattice and chemoattractant reconciled afterwards).

The members of a generation share run_seed, and so the arena, the
lifespan and the schedule: a ``Simulation`` steps them as one population,
each pipeline stage one array operation over all members (the rule is one
pass of the population's CPPN plan, each selected cell evaluated with its own
member's network), except the per-member selection draws. Members never
read each other's state, so a member's trajectory is the same in any
population.

Determinism: (genome, environment spec, physics, lifecycle config,
run_seed) fully determine the trajectory. Random streams are derived from
named SeedSequence tuples — the lifespan from (run_seed, 0), and cell
selection in evaluation e from (run_seed, e, 1), one stream per member, e
restarting at 1 in each environment — so results are independent of
scheduling. ``start_evaluation`` alone turns a run seed and an evaluation
into a simulation and its lifespan. Fitness (``mean_final_mass``) is per
environment the mean of its evaluations' final masses, then the mean of
those, each a left fold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import ClassVar, Optional

import numpy as np

from . import environments, fluid, physics
from .cppn import Genome, compile_genome, io_sizes
from .environments import EnvBundle, EnvSpec, Rect, arena_chemo
from .fluid import FluidFailure
from .physics import PhysicsParams
from .substrate import EDGE_NEIGHBOURS, WorldStack, WorldState, create_world, dilate3x3, flood_fill, perceive_cells


class LifecycleError(ValueError):
    """Invalid seeding, schedule, or configuration."""


# -- perturbation events ------------------------------------------------------


@dataclass(frozen=True)
class RemoveFood:
    kind: ClassVar[str] = "remove_food"
    region: Rect


@dataclass(frozen=True)
class DegradeCells:
    kind: ClassVar[str] = "degrade_cells"
    region: Rect
    fraction: float


@dataclass(frozen=True)
class MoveObstacle:
    kind: ClassVar[str] = "move_obstacle"
    obstacle_id: int  # 1-based component index, row-major discovery order
    displacement: tuple[int, int]


PerturbationEvent = RemoveFood | DegradeCells | MoveObstacle


@dataclass(frozen=True)
class LifecycleConfig:
    """Lifespan, update stochasticity, seeding, and perturbation schedule."""

    t_min: int = 300
    t_max: int = 600
    p_update: float = 0.5
    seed_cell: Optional[tuple[int, int]] = None  # None: use the arena's default
    seed_mass: float = 1.0
    seed_nutrient: float = 1.0
    n_env_evals: int = 1
    tau: float = 0.8  # fluid BGK relaxation time
    schedule: tuple[tuple[int, PerturbationEvent], ...] = ()

    def __post_init__(self):
        if not 0 < self.t_min <= self.t_max:
            raise LifecycleError(f"need 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if not 0.0 < self.p_update <= 1.0:
            raise LifecycleError(f"p_update must lie in (0, 1], got {self.p_update}")
        if not 0.5 < self.tau < np.inf:
            raise LifecycleError(f"tau must be finite and exceed 0.5, got {self.tau}")
        if self.n_env_evals < 1:
            raise LifecycleError("n_env_evals must be >= 1")
        for name in ("seed_mass", "seed_nutrient"):  # fields stay finite and nonnegative
            if not 0 <= getattr(self, name) < np.inf:
                raise LifecycleError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for step, _ in self.schedule:  # events run after step s only while s < lifespan <= t_max
            if not 0 <= step < self.t_max:
                raise LifecycleError(f"schedule step {step} lies outside [0, t_max = {self.t_max}) and never fires")

    def lifespan(self, run_seed: int) -> int:
        """The lifespan every evaluation seeded by run_seed shares, drawn
        from [t_min, t_max] off the (run_seed, 0) stream."""
        rng = np.random.default_rng(np.random.SeedSequence([run_seed, 0]))
        return int(rng.integers(self.t_min, self.t_max + 1))


@dataclass
class EnvOutcome:
    """One lifecycle in one environment: its mass curve (the total mass
    before the first step and after each step it completed) and the
    FluidFailure that cut it short, or None. It ran ``len(mass_curve) - 1``
    steps and ended at the mass ``mass_curve[-1]``."""

    mass_curve: list[float]
    failure: FluidFailure | None


@dataclass
class FitnessRecord:
    """One member's evaluation: one EnvOutcome per (environment,
    evaluation), environment-major, and ``fitness``, their
    ``mean_final_mass``: per environment the mean of its final masses, then
    the mean of those."""

    fitness: float
    per_env: list[EnvOutcome]


# -- world-level operations ---------------------------------------------------


def seed_organism(world: WorldState, cfg: LifecycleConfig, seed_cell: tuple[int, int]) -> WorldState:
    """Endow one free cell of a fresh world with the initial mass and
    nutrient. In place."""
    x, y = seed_cell
    if not world.shape.contains(x, y):
        raise LifecycleError(f"'seed_cell': seed cell ({x}, {y}) out of bounds")
    if world.obstacle[y, x] > 0.5:
        raise LifecycleError(f"'seed_cell': seed cell ({x}, {y}) is an obstacle")
    world.mass[y, x] = cfg.seed_mass
    world.nutrient[y, x] = cfg.seed_nutrient
    return world


def label_obstacles(obstacles: np.ndarray) -> np.ndarray:
    """4-connected components of the obstacle mask, labeled 1.. in
    row-major discovery order. Label 0 is free space."""
    solid = np.asarray(obstacles) > 0.5
    return flood_fill(solid, EDGE_NEIGHBOURS, np.flatnonzero(solid).tolist())


def validate_schedule(worlds: WorldStack, schedule) -> None:
    """Reject a schedule before any stepping by running it: each event, in
    step order, goes through ``apply_perturbation`` on a copy of member 0
    of ``worlds``, whose LifecycleError comes out naming the key and the
    step."""
    layout = worlds.select([0])
    for step, event in sorted(schedule, key=lambda se: se[0]):
        try:
            apply_perturbation(layout, event)
        except LifecycleError as exc:
            raise LifecycleError(f"'schedule': {exc} at step {step}") from exc


def apply_perturbation(world: WorldStack, event: PerturbationEvent) -> WorldStack:
    """Apply one scheduled event to a WorldStack, in place. This is the one
    rule for whether an event fits a world: one that does not raises a
    LifecycleError.

    RemoveFood zeroes F in its region. DegradeCells scales M, R, and N by
    (1 - fraction), fraction in [0, 1], in its region (proportional scaling
    keeps R within its capacity bound). Both regions lie within the grid.
    MoveObstacle translates one existing labeled obstacle component within
    the grid: vacated cells become free; newly covered cells lose their
    M, R, N and hidden state. The chemoattractant field is *not* touched
    here; the simulation recomputes it after food or obstacle changes.
    The shared statics change once and every member's dynamic channels
    change alike.
    """
    if isinstance(event, (RemoveFood, DegradeCells)) and not event.region.within(world.shape):
        raise LifecycleError(f"perturbation region {event.region} out of bounds")
    if isinstance(event, RemoveFood):
        world.food[event.region.slices()] = 0.0
    elif isinstance(event, DegradeCells):
        if not 0.0 <= event.fraction <= 1.0:
            raise LifecycleError(f"degrade fraction must lie in [0, 1], got {event.fraction}")
        keep = 1.0 - event.fraction
        sl = (Ellipsis,) + event.region.slices()
        for dynamic in (world.mass, world.reservoir, world.nutrient):
            dynamic[sl] *= keep
    elif isinstance(event, MoveObstacle):
        labels = label_obstacles(world.obstacle)
        cells = labels == event.obstacle_id
        if not cells.any():
            raise LifecycleError(f"obstacle id {event.obstacle_id} does not exist")
        dx, dy = event.displacement
        moved = np.zeros_like(cells)
        ys, xs = np.nonzero(cells)
        inside = world.shape.contains
        if not (inside(xs.min() + dx, ys.min() + dy) and inside(xs.max() + dx, ys.max() + dy)):
            raise LifecycleError(f"obstacle {event.obstacle_id} pushed out of bounds")
        moved[ys + dy, xs + dx] = True
        world.obstacle[cells] = 0.0
        world.obstacle[moved] = 1.0
        for channel in (world.mass, world.reservoir, world.nutrient, world.hidden, world.food, world.poison):
            channel[..., moved] = 0.0
    else:
        raise LifecycleError(f"unknown perturbation event {event!r}")
    return world


# -- the simulation -----------------------------------------------------------


class Simulation:
    """Owns a population of P worlds on one arena and advances them as one
    batch, step by step.

    It is built from what fixes a lifecycle: ``genomes`` (one, or a list
    sharing a hidden-channel count; member m runs genome m), the arena's
    ``bundle``, the physics, the config and ``step_seed``, which seeds each
    member's selection stream. Every member starts from one world seeded at
    ``cfg.seed_cell or bundle.seed_cell``; a seed cell off the arena, or a
    schedule that fails when run on a copy of that world, raises a
    LifecycleError naming its key.

    The members share the arena, the schedule and the obstacle layout;
    each has its own network, selection stream, world and lattice.
    ``phenotype`` is the population's one compiled plan, column m holding
    member m's network: it evaluates the selected cells of every member in
    one call per step. Cells perceive only the slots some member's plan
    reads (its ``input_slots``); the other input columns are left
    unfilled, since the plan reads no other.
    Row m of ``worlds`` and ``lattices`` is member m for the whole run. A
    member whose fluid fails, as ``fluid.step`` or ``fluid.advect_scalar``
    reports it, records its FluidFailure in ``failures`` and is from then
    on a frozen copy of its world, holding that step's economy update, and
    a quiet row: no mass, reservoir, nutrient or hidden state, and fluid at
    rest, so it never acts or fails again and no other member's bits
    change. Rest fluid is not an exact fixed point of ``fluid.step`` (it
    drifts by up to 1.1e-16 in 50 steps), but nothing reads the row:
    ``member_world`` is the frozen copy. The batch keeps its shape, and
    ``fluid.step`` advances ``lattices`` in place, so the lattice's work
    arrays, built on its first step, serve the whole run, and so do
    ``lattice``, the first member's row as a Lattice, and a running
    member's view of its row, built on first request.

    Every step writes the channels of ``worlds`` in place, so perception
    reads them from its store as they are. The obstacle layout is resolved
    once into ``walls``, whose ``free`` mask bounds the active set, and
    again only after a MoveObstacle. The schedule is indexed by step once:
    the events of a step are the entries of ``cfg.schedule`` at
    ``step_index``, in schedule order, and a step with none skips every
    event check. After an event that changes food or obstacles, the
    chemoattractant is recomputed in place by the arena's own rule,
    ``arena_chemo`` of ``spec``, so a deceptive arena keeps its false peak.

    Confined to one logical thread. ``start_evaluation`` builds every
    seeded run: ``run_population``'s, and the one-member runs of the test
    harness and ``render``, which pass an observer to ``run`` for mid-run
    measurements read through ``world``.
    """

    def __init__(self, genomes, bundle: EnvBundle, params: PhysicsParams, cfg: LifecycleConfig, step_seed):
        genomes = list(genomes) if isinstance(genomes, (list, tuple)) else [genomes]
        if not genomes:
            raise LifecycleError("need at least one genome")
        k_hidden = genomes[0].k_hidden
        if any(genome.n_inputs != io_sizes(k_hidden)[0] for genome in genomes):
            raise LifecycleError(f"every member must read {k_hidden} hidden channels")
        world = create_world(bundle.spec.shape, bundle.statics, k_hidden)
        seed_organism(world, cfg, cfg.seed_cell or bundle.seed_cell)
        self.worlds = world.stack.select([0] * len(genomes))  # row m is member m
        self.phenotype = compile_genome(genomes)  # every member's network, evaluated in one pass
        self.params = params
        self.cfg = cfg
        self.rngs = [np.random.default_rng(step_seed) for _ in genomes]
        validate_schedule(self.worlds, cfg.schedule)
        self._events: dict[int, list[PerturbationEvent]] = {}  # step -> its events, in schedule order
        for step, event in cfg.schedule:
            self._events.setdefault(step, []).append(event)
        self.spec = bundle.spec  # the arena's spec: its chemoattractant rule
        self.walls = fluid.walls_of(world.obstacle)  # re-resolved only when an obstacle moves
        at_rest = fluid.uniform_lattice(world.obstacle)
        self.lattices = fluid.Lattice(np.repeat(at_rest[None], len(genomes), axis=0), cfg.tau)
        self.lattice = fluid.Lattice(self.lattices.f[0], cfg.tau)  # row 0, stepped in place with the batch
        self.failures: list[FluidFailure | None] = [None] * len(genomes)
        self._member_worlds: dict[int, WorldState] = {}  # built on first request; replaced by the frozen copy
        self.step_index = 0

    @property
    def running(self) -> list[int]:
        """The members whose fluid has not failed, in order."""
        return [member for member, failure in enumerate(self.failures) if failure is None]

    def member_world(self, member: int) -> WorldState:
        """A member's world: one WorldState viewing its row while it runs,
        built on the first request and the same object on every later one,
        or the copy frozen when its fluid failed."""
        world = self._member_worlds.get(member)
        if world is None:
            world = self._member_worlds[member] = self.worlds.member(member)
        return world

    @property
    def world(self) -> WorldState:
        """The first member's world: the only one of a one-member simulation."""
        return self.member_world(0)

    def step(self) -> None:
        """Advance every member one step by the module's pipeline; a quiet
        row stays quiet. Member m draws its selection off ``rngs[m]``, one
        ``random`` call per step, and draws nothing at p_update 1."""
        worlds = self.worlds
        p = self.params

        footprint = worlds.mass >= p.m_min
        active = dilate3x3(footprint) & self.walls.free
        ms, ys, xs = np.nonzero(active)
        if self.cfg.p_update == 1.0:
            cells = (ms, ys, xs)  # every draw in [0, 1) would select its cell
        else:
            # One draw per active cell, row-major, off each member's own stream.
            counts = np.bincount(ms, minlength=len(self.rngs))
            draws = np.concatenate([rng.random(c) for rng, c in zip(self.rngs, counts)])
            chosen = draws < self.cfg.p_update
            cells = (ms[chosen], ys[chosen], xs[chosen])
        sel_m, sel_y, sel_x = cells

        rho_src = np.zeros(worlds.mass.shape)
        if len(sel_y):
            inputs = np.empty((len(sel_y), self.phenotype.n_inputs))  # evaluate_batch reads only input_slots
            read = self.phenotype.input_slots
            inputs[:, read] = perceive_cells(worlds, sel_y, sel_x, sel_m, read)
            outputs = self.phenotype.evaluate_batch(inputs, sel_m)
            k = worlds.k_hidden
            worlds.hidden[sel_m, :, sel_y, sel_x] = outputs[:, :k].clip(-1.0, 1.0)
            dr_des, dm_des = physics.squash_outputs(outputs[:, k], outputs[:, k + 1], p)
            r_before = worlds.reservoir[cells]
            delta_r, m_new, r_new, n_new = physics.constrain(
                worlds.mass[cells],
                r_before,
                worlds.nutrient[cells],
                worlds.food[sel_y, sel_x],
                worlds.poison[sel_y, sel_x],
                dr_des,
                dm_des,
                p,
            )
            worlds.mass[cells] = m_new
            worlds.reservoir[cells] = r_new
            worlds.nutrient[cells] = n_new
            rho = physics.reservoir_pressure(r_before, delta_r, p)
            rho_src[cells] = rho.clip(-p.rho_cap, p.rho_cap)

        self._freeze(fluid.step(self.lattices, self.walls, rho_src))
        velocity = fluid.macroscopic(self.lattices).u
        worlds.nutrient[...], failures = fluid.advect_scalar(worlds.nutrient, velocity, self.walls)
        self._freeze(failures)

        events = self._events.get(self.step_index)
        if events:
            for event in events:
                apply_perturbation(worlds, event)
            if any(isinstance(event, MoveObstacle) for event in events):
                self._reconcile_lattice(self.walls.solid)
            if any(isinstance(event, (RemoveFood, MoveObstacle)) for event in events):
                worlds.chemo[...] = arena_chemo(self.spec, worlds.food, worlds.obstacle)
        self.step_index += 1

    def _freeze(self, failures: list[FluidFailure | None]) -> None:
        """Settle a fluid stage's failures: each failed member records its
        own, stamped with this step, keeps its world as the stage left it and
        goes quiet. Its fluid rests, as cells a moved obstacle vacates do."""
        for member, failure in enumerate(failures):
            if failure is not None:
                self.failures[member] = replace(failure, step=self.step_index)
                world = self.worlds.member(member)
                self._member_worlds[member] = world.copy()
                for channel in (world.mass, world.reservoir, world.nutrient, world.hidden):
                    channel[...] = 0.0
                self.lattices.f[member] = fluid.uniform_lattice(world.obstacle)

    def _reconcile_lattice(self, solid_before: np.ndarray) -> None:
        """Resolve the moved obstacle layout. Each changed cell takes the new
        one's ``fluid.uniform_lattice``: covered cells empty, vacated ones rest
        at unit density. Unchanged obstacle cells hold +0.0 already."""
        self.walls = fluid.walls_of(self.worlds.obstacle)
        changed = solid_before ^ self.walls.solid
        self.lattices.f[:, :, changed] = fluid.uniform_lattice(self.walls.solid)[:, changed]

    def run(self, steps: int, observer=None) -> list[list[float]]:
        """Run up to ``steps`` steps, returning each member's mass curve: the
        total mass before the first step and after each step it completed,
        so steps+1 values unless its fluid failed.

        ``observer(sim)`` is called after every step that leaves a member
        running; the run ends early once every member has failed. The
        running members are found once per step.
        """
        curves = [[float(total)] for total in self.worlds.mass.sum(axis=(1, 2))]
        for _ in range(steps):
            self.step()
            running = self.running
            if not running:
                break
            totals = self.worlds.mass.sum(axis=(1, 2))
            for member in running:
                curves[member].append(float(totals[member]))
            if observer is not None:
                observer(self)
        return curves


def build_simulation(genomes, bundle, params, cfg, step_seed) -> Simulation:
    """``Simulation``, under the name the benchmark traces as a span."""
    return Simulation(genomes, bundle, params, cfg, step_seed)


def env_evaluations(env: EnvSpec, cfg: LifecycleConfig) -> list[EnvSpec]:
    """The arena spec of each of the cfg.n_env_evals environment
    evaluations of ``env``: evaluation e (1-based) has arena seed
    env.seed + (e - 1)."""
    return [replace(env, seed=env.seed + e) for e in range(cfg.n_env_evals)]


def mean_final_mass(per_env: list[EnvOutcome], n_env_evals: int) -> float:
    """The one average of final masses. ``per_env`` is environment-major:
    each environment's n_env_evals final masses are added left to right and
    divided by n_env_evals, and those means likewise by their count."""
    finals = [outcome.mass_curve[-1] for outcome in per_env]
    means = [reduce(add, finals[i : i + n_env_evals]) / n_env_evals for i in range(0, len(finals), n_env_evals)]
    return reduce(add, means) / len(means)


def start_evaluation(
    genomes, bundle: EnvBundle, params: PhysicsParams, cfg: LifecycleConfig, run_seed: int, evaluation: int
) -> tuple[Simulation, int]:
    """Evaluation ``evaluation`` (1-based) of an arena in a run seeded
    run_seed: its simulation, built by ``build_simulation`` with every
    member's selection stream seeded ``SeedSequence([run_seed, evaluation,
    1])``, and the steps it runs, ``cfg.lifespan(run_seed)``."""
    step_seed = np.random.SeedSequence([run_seed, evaluation, 1])
    return build_simulation(genomes, bundle, params, cfg, step_seed), cfg.lifespan(run_seed)


def run_population(
    genomes: list[Genome],
    envs: list[EnvSpec],
    params: PhysicsParams,
    cfg: LifecycleConfig,
    run_seed: int,
) -> list[FitnessRecord]:
    """Evaluate genomes that share run_seed in every environment of
    ``envs``: one lifespan drawn from run_seed, then per arena of
    ``env_evaluations`` one simulation stepping every member as a batch.

    Each record holds one EnvOutcome per (environment, evaluation),
    environment-major; evaluation e of every environment starts through
    ``start_evaluation(..., run_seed, e)``. Its fitness is per environment
    the mean of the final masses, then the mean of those
    (``mean_final_mass``). A fluid failure ends a member's run in that
    evaluation early, penalizing, never crashing, the driver. A member's
    record does not depend on the others.
    """
    if not envs:
        raise LifecycleError("need at least one environment")
    outcomes: list[list[EnvOutcome]] = [[] for _ in genomes]
    for env in envs:
        for e, spec in enumerate(env_evaluations(env, cfg), start=1):
            bundle = environments.generate_cached(spec)
            sim, lifespan = start_evaluation(genomes, bundle, params, cfg, run_seed, e)
            for member, curve in enumerate(sim.run(lifespan)):
                outcomes[member].append(EnvOutcome(curve, sim.failures[member]))
    return [FitnessRecord(mean_final_mass(runs, cfg.n_env_evals), runs) for runs in outcomes]


def run_lifecycle(
    genome: Genome,
    env: EnvSpec,
    params: PhysicsParams,
    cfg: LifecycleConfig,
    run_seed: int,
) -> FitnessRecord:
    """The one-member, one-environment case of ``run_population``."""
    return run_population([genome], [env], params, cfg, run_seed)[0]

