"""Population stepping: a batch of members gives each member the bits it
gets alone, serially, pooled, and through failures and obstacle moves."""

import concurrent.futures
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eincasm import lifecycle

from eincasm.cppn import ACTIVATION_NAMES, ConnectionGene, NodeGene, empty_genome
from eincasm.config import parse_config
from eincasm.driver import evaluate_population, evaluation_workers, evolve_run
from eincasm.environments import EnvSpec, Rect, arena_chemo, generate
from eincasm.fluid import FluidFailure, Lattice, step, uniform_lattice
from eincasm.harness import chemotaxis_baseline, corridor_spec, harness_lifecycle, harness_physics
from eincasm.lifecycle import (
    DegradeCells,
    LifecycleConfig,
    LifecycleError,
    MoveObstacle,
    RemoveFood,
    build_simulation,
    label_obstacles,
    run_lifecycle,
    run_population,
    start_evaluation,
)
from eincasm.neat import EvolutionConfig, init_population, next_generation
from eincasm.physics import PhysicsParams
from eincasm.substrate import CHANNELS, GridShape, Statics, WorldStack, create_world, dilate3x3, perceive_cells
from test_fluid import equilibrium
from test_substrate import channel_stack

K = 4


def random_genome(rng, n_connections=6):
    """Random weights from random center-cell inputs (and the bias) to the outputs."""
    g = empty_genome(K)
    n_base = g.n_inputs - 1
    sources = [4 * (n_base // 9) + c for c in range(n_base // 9)] + [g.bias_input_id]
    for innovation in range(1, n_connections + 1):
        src = int(rng.choice(sources))
        dst = g.n_inputs + int(rng.integers(g.n_outputs))
        g.connections[innovation] = ConnectionGene(innovation, src, dst, float(rng.normal(0.0, 1.5)), True)
    return g


def wide_genome(rng, n_connections=6):
    """Random weights from random perception slots anywhere in the 3x3
    neighborhood (and the bias) to the outputs."""
    g = empty_genome(K)
    for innovation in range(1, n_connections + 1):
        src = int(rng.integers(g.n_inputs))
        dst = g.n_inputs + int(rng.integers(g.n_outputs))
        g.connections[innovation] = ConnectionGene(innovation, src, dst, float(rng.normal(0.0, 0.5)), True)
    return g


def hidden_genome(rng, n_hidden):
    """random_genome with its first n_hidden connections split by hidden
    nodes of random activation and bias, as NEAT's add-node does."""
    g = random_genome(rng)
    node_id = g.n_inputs + g.n_outputs
    innovation = max(g.connections) + 1
    for conn in list(g.connections.values())[:n_hidden]:
        conn.enabled = False
        g.nodes[node_id] = NodeGene(node_id, str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
        g.connections[innovation] = ConnectionGene(innovation, conn.src, node_id, 1.0, True)
        g.connections[innovation + 1] = ConnectionGene(innovation + 1, node_id, conn.dst, conn.weight, True)
        innovation += 2
        node_id += 1
    return g


def blowup_spec():
    """A 32x32 open arena on which the baseline's fluid fails near step 28."""
    return EnvSpec(
        kind="open_arena",
        shape=GridShape(32, 32),
        food=((Rect(22, 14, 4, 4), 8.0),),
        chemo_decay=0.99,
        chemo_iters=64,
    )


def bits(value):
    return int(np.float64(value).view(np.uint64))


def mixed_members():
    members = [empty_genome(K), chemotaxis_baseline(K)]
    members += [random_genome(np.random.default_rng(seed)) for seed in range(3)]
    return members


class TestSerialPooledPerMember:
    def test_same_bits_through_a_mid_run_failure(self):
        members = mixed_members()
        small = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
        envs = [blowup_spec(), small]
        params, cfg = harness_physics(), replace(harness_lifecycle(t=40), n_env_evals=2)
        alone = [[run_lifecycle(g, env, params, cfg, 7) for env in envs] for g in members]
        failed = [records[0].per_env[0].failure is not None for records in alone]
        assert any(failed) and not all(failed)

        serial = evaluate_population(members, envs, params, cfg, 7)
        with ProcessPoolExecutor(2) as pool:
            pooled = evaluate_population(members, envs, params, cfg, 7, pool, workers=2)

        def outcomes(record):
            return [(bits(o.mass_curve[-1]), len(o.mass_curve) - 1, o.failure) for o in record.per_env]

        for member, records in enumerate(alone):
            expected = [outcome for record in records for outcome in outcomes(record)]  # environment-major
            assert outcomes(serial[member]) == outcomes(pooled[member]) == expected
            assert bits(serial[member].fitness) == bits(pooled[member].fitness)

    def test_evolve_run_pooled_equals_serial_on_one_pool(self, monkeypatch):
        opened = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        cfg = parse_config(
            {"evolution": {"population_size": 6, "seed": 2}, "lifecycle": {"t_min": 15, "t_max": 15}, "generations": 3}
        )
        serial_stats, pooled_stats = [], []
        monkeypatch.setenv("EINCASM_THREADS", "1")
        serial = evolve_run(cfg, on_generation=lambda stats, pop: serial_stats.append(stats))
        assert opened == []
        monkeypatch.setenv("EINCASM_THREADS", "2")
        pooled = evolve_run(cfg, on_generation=lambda stats, pop: pooled_stats.append(stats))
        assert opened == [2]  # one pool for all three generations
        assert [s.generation for s in pooled_stats] == [0, 1, 2]
        assert pooled_stats == serial_stats
        assert pooled.best_fitness == serial.best_fitness
        assert pooled.best_genome == serial.best_genome
        final, expected = pooled.final_population, serial.final_population
        assert final.members == expected.members and final.species == expected.species
        assert final.generation == expected.generation
        assert final.registry.counters() == expected.registry.counters()

    def test_population_records_equal_single_records(self):
        members = mixed_members()
        cfg = LifecycleConfig(t_min=20, t_max=40, p_update=0.5, seed_nutrient=24.0, n_env_evals=2, tau=1.2)
        together = run_population(members, [blowup_spec()], harness_physics(), cfg, 11)
        for genome, record in zip(members, together):
            alone = run_lifecycle(genome, blowup_spec(), harness_physics(), cfg, 11)
            assert record == alone

    def test_members_with_hidden_nodes_equal_run_lifecycle(self):
        rng = np.random.default_rng(31)
        members = [hidden_genome(rng, n_hidden) for n_hidden in (0, 1, 2, 3, 4)]
        spec = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
        params, cfg = harness_physics(), harness_lifecycle(t=30)
        together = run_population(members, [spec], params, cfg, 4)
        for genome, record in zip(members, together):
            assert record == run_lifecycle(genome, spec, params, cfg, 4)
        assert len({record.fitness for record in together}) == len(members)


@pytest.mark.parametrize("threads, expected", [(None, 5), ("0", 5), ("-2", 5), ("abc", 5), ("3", 3)])
def test_evaluation_workers_default_to_the_cpus_this_process_may_use(monkeypatch, threads, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3, 5, 6}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    if threads is None:
        monkeypatch.delenv("EINCASM_THREADS", raising=False)
    else:
        monkeypatch.setenv("EINCASM_THREADS", threads)
    assert evaluation_workers() == expected


def test_evaluation_workers_fall_back_to_the_cpu_count(monkeypatch):
    """Where the platform has no CPU affinity, one worker per CPU."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("EINCASM_THREADS", raising=False)
    assert evaluation_workers() == 8


def test_fitness_keeps_the_bits_of_the_padded_mean_curve():
    """A fitness is its evaluations' final masses folded in evaluation
    order, then divided by their count: the bits of the last entry of the
    mean over the rows of the (E, lifespan + 1) curves, each padded by
    holding its final mass. At p_update 0.9 each evaluation draws its own
    selection stream: the baseline's fluid fails in every one, at its own
    final mass, and the other member's in none."""
    members = [chemotaxis_baseline(K), random_genome(np.random.default_rng(9))]
    for n_env_evals in range(1, 13):
        cfg = replace(harness_lifecycle(t=40), p_update=0.9, n_env_evals=n_env_evals)
        records = run_population(members, [blowup_spec()], harness_physics(), cfg, 7)
        lifespan = cfg.lifespan(7)
        for record in records:
            curves = [o.mass_curve + o.mass_curve[-1:] * (lifespan + 1 - len(o.mass_curve)) for o in record.per_env]
            expected = np.array(curves).mean(axis=0)[-1]
            assert bits(record.fitness) == bits(expected)
        assert all(o.failure is not None for o in records[0].per_env)
        assert not any(o.failure is not None for o in records[1].per_env)
        assert len({o.mass_curve[-1] for o in records[0].per_env}) == n_env_evals


class TestFailureRecord:
    def test_env_outcome_keeps_reason_step_and_cell(self):
        cfg = harness_lifecycle(t=40)
        record = run_lifecycle(chemotaxis_baseline(K), blowup_spec(), harness_physics(), cfg, 3)
        outcome = record.per_env[0]
        failure = outcome.failure
        assert failure.reason.startswith("velocity")
        assert failure.step == len(outcome.mass_curve) - 1 < 40
        assert 0 <= failure.x < 32 and 0 <= failure.y < 32
        assert str(failure) == f"{failure.reason} at cell ({failure.x}, {failure.y}) at step {failure.step}"

    def test_survivor_has_no_failure(self):
        record = run_lifecycle(empty_genome(K), blowup_spec(), harness_physics(), harness_lifecycle(t=10), 3)
        assert record.per_env[0].failure is None


def stacked_worlds(rng, w, h, n):
    obstacle = (rng.random((h, w)) < 0.2).astype(float)
    statics = Statics(obstacle, rng.random((h, w)), rng.random((h, w)), rng.random((h, w)))
    stack = create_world(GridShape(w, h), statics, K).stack.select([0] * n)
    free = obstacle < 0.5
    for m in range(n):
        world = stack.member(m)
        world.mass[free] = rng.random(int(free.sum()))
        world.reservoir[free] = rng.random(int(free.sum()))
        world.nutrient[free] = rng.random(int(free.sum()))
        world.hidden[:, free] = rng.uniform(-1, 1, (K, int(free.sum())))
    return stack


@settings(max_examples=25, deadline=None)
@given(w=st.integers(3, 14), h=st.integers(3, 14), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stack_layers_match_each_world(w, h, n, seed):
    rng = np.random.default_rng(seed)
    stack = stacked_worlds(rng, w, h, n)
    members, ys, xs = np.nonzero(rng.random((n, h, w)) < 0.5)
    got = perceive_cells(stack, ys, xs, members)
    for m in range(n):
        rows = members == m
        for world in (stack.member(m), stack.member(m).copy()):  # in the stack, and alone
            np.testing.assert_array_equal(got[rows], perceive_cells(world, ys[rows], xs[rows]))
    footprints = rng.random((n, h, w)) < 0.1
    dilated = dilate3x3(footprints)
    for m in range(n):
        np.testing.assert_array_equal(dilated[m], dilate3x3(footprints[m]))


@settings(max_examples=40, deadline=None)
@given(w=st.integers(3, 10), h=st.integers(3, 10), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       subsets=st.lists(st.sampled_from(["empty", "all", "some"]), min_size=2, max_size=5))
def test_perceived_slots_are_fresh_columns_of_the_full_vector(w, h, n, seed, subsets):
    """Each call gathers exactly the columns it asks for, with the values
    the world holds now, whatever earlier calls read and whatever was
    written to the dynamic channels since."""
    rng = np.random.default_rng(seed)
    stack = stacked_worlds(rng, w, h, n)
    n_slots = 9 * (7 + K)
    members, ys, xs = np.nonzero(rng.random((n, h, w)) < 0.6)
    for subset in subsets:
        stack.mass[...] = rng.random(stack.mass.shape)
        stack.reservoir[...] = rng.random(stack.reservoir.shape)
        stack.nutrient[...] = rng.random(stack.nutrient.shape)
        stack.hidden[...] = rng.uniform(-1, 1, stack.hidden.shape)
        if subset == "empty":
            slots = np.empty(0, dtype=np.intp)
        elif subset == "all":
            slots = np.arange(n_slots)
        else:
            slots = np.flatnonzero(rng.random(n_slots) < rng.random())
        got = perceive_cells(stack, ys, xs, members, slots)
        assert got.shape == (len(ys), len(slots))
        for m in range(n):
            rows = members == m
            full = perceive_cells(stack.member(m), ys[rows], xs[rows])  # a fresh buffer
            np.testing.assert_array_equal(got[rows], full[:, slots])


grids = st.one_of(
    st.sampled_from([(13, 11), (11, 13), (5, 18), (18, 5)]),
    st.tuples(st.integers(3, 20), st.integers(3, 20)),
)


@settings(max_examples=60, deadline=None)
@given(grid=grids, n=st.integers(1, 5), density=st.sampled_from([0.0, 0.1, 0.3]),
       speed=st.sampled_from([0.02, 0.15, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_fluid_batch_equals_single_steps(grid, n, density, speed, seed):
    """Each member of a batch step gets the bits and the failure record a
    single-lattice step gives it."""
    w, h = grid
    rng = np.random.default_rng(seed)
    obstacles = (rng.random((h, w)) < density).astype(float)
    rho = 1.0 + 0.1 * rng.random((n, h, w))
    u = speed * rng.standard_normal((n, 2, h, w))
    f = np.stack([equilibrium(rho[p], u[p]) for p in range(n)])
    f[:, :, obstacles > 0.5] = 0.0
    broken = rng.random()
    if broken < 0.2:  # a negative population that collision cannot repair
        f[int(rng.integers(n)), int(rng.integers(1, 9))] -= 2.0
    elif broken < 0.3:
        f[int(rng.integers(n)), int(rng.integers(9)), int(rng.integers(h)), int(rng.integers(w))] = np.nan
    sources = 0.05 * rng.standard_normal((n, h, w))
    sources[:, obstacles > 0.5] = 0.0

    batch = Lattice(f.copy(), 1.1)
    failures = step(batch, obstacles, sources)
    for p in range(n):
        alone = Lattice(f[p].copy(), 1.1)
        (failure,) = step(alone, obstacles, sources[p])
        assert failures[p] == failure
        assert batch.f[p].tobytes() == alone.f.tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), move_at=st.integers(0, 6))
def test_population_simulation_matches_members_alone(seed, n, move_at):
    """A stepped population, through an obstacle move (lattice
    reconciliation), food removal and degradation, equals each member
    stepped alone: worlds, lattices and failures. The members read
    different perception slots, one of them across the whole neighborhood."""
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(9, 16)), int(rng.integers(7, 13))
    spec = EnvSpec(
        kind="obstacle_field",
        shape=GridShape(w, h),
        food=((Rect(w - 3, 1, 2, 2), 4.0),),
        seed=int(rng.integers(1000)),
        seed_cell=(1, h // 2),
        params=(("density", 0.15),),
    )
    bundle = generate(spec)
    schedule = [
        (move_at + 2, RemoveFood(Rect(w - 3, 1, 2, 2))),
        (move_at + 1, DegradeCells(Rect(0, 0, 3, 3), 0.5)),
    ]
    labels = label_obstacles(bundle.statics.obstacle)
    if labels.max() > 0:
        ys, xs = np.nonzero(labels == 1)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if 0 <= xs.min() + dx and xs.max() + dx < w and 0 <= ys.min() + dy and ys.max() + dy < h:
                schedule.append((move_at, MoveObstacle(1, (dx, dy))))
                break
    cfg = LifecycleConfig(
        t_min=10, t_max=10, p_update=0.7, seed_nutrient=4.0, tau=1.0, schedule=tuple(schedule)
    )
    params = PhysicsParams(alpha=0.01, gamma=0.3, rho_cap=0.25)
    genomes = [random_genome(rng) for _ in range(n - 1)] + [wide_genome(rng)]

    together = build_simulation(genomes, generate(spec), params, cfg, 5)
    alone = [build_simulation(g, generate(spec), params, cfg, 5) for g in genomes]
    curves = together.run(10)
    for m, sim in enumerate(alone):
        assert curves[m] == sim.run(10)[0]
        assert together.failures[m] == sim.failures[0]
        assert channel_stack(together.member_world(m)).tobytes() == channel_stack(sim.world).tobytes()
        assert together.lattices.f[m].tobytes() == sim.lattices.f[0].tobytes()
    # The perception buffer kept across steps agrees with a fresh one; row m is member m.
    members, ys, xs = np.nonzero(np.ones(together.worlds.mass.shape, dtype=bool))
    fresh = np.concatenate([perceive_cells(together.worlds.member(m), ys[members == m], xs[members == m])
                            for m in range(n)])
    np.testing.assert_array_equal(perceive_cells(together.worlds, ys, xs, members), fresh)


def test_a_failed_member_keeps_a_quiet_row():
    """A member whose fluid fails keeps its row to the end: the batch keeps
    its shape, and the row holds no mass and rest fluid, through an obstacle
    move that vacates cells after the failure. The screen's failure
    record carries the step the simulation stamped on it. Every member's
    failure, world and lattice stay its one-member run's at every step."""
    spec = replace(blowup_spec(), obstacles=(Rect(10, 6, 2, 3),))
    cfg = replace(harness_lifecycle(t=60), p_update=0.9, schedule=((40, MoveObstacle(1, (1, 0))),))
    rng = np.random.default_rng(2)
    genomes = [random_genome(rng), chemotaxis_baseline(K), wide_genome(rng)]
    together = build_simulation(genomes, generate(spec), harness_physics(), cfg, 5)
    alone = [build_simulation(g, generate(spec), harness_physics(), cfg, 5) for g in genomes]
    failure = None
    for _ in range(60):
        together.step()
        for sim in alone:
            sim.step()
        assert together.worlds.n_members == len(together.lattices.f) == 3
        if together.failures[1] is not None:
            if failure is None:  # stamped with the step that just ran
                failure = together.failures[1]
                assert failure.step == together.step_index - 1
            assert together.failures[1] is failure
            quiet = together.worlds.member(1)
            for name in ("mass", "reservoir", "nutrient", "hidden"):
                assert not getattr(quiet, name).any()
            rest = uniform_lattice(together.worlds.obstacle)
            np.testing.assert_allclose(together.lattices.f[1], rest, rtol=0.0, atol=1e-12)
            assert not together.lattices.f[1][:, together.walls.solid].any()
        for m, sim in enumerate(alone):
            assert together.failures[m] == sim.failures[0]
            assert channel_stack(together.member_world(m)).tobytes() == channel_stack(sim.world).tobytes()
            assert together.lattices.f[m].tobytes() == sim.lattices.f[0].tobytes()
    assert failure == FluidFailure("velocity 0.307 exceeds 0.3", 24, 10, 35) and together.walls.free[6:9, 10].all()
    assert together.failures[0] is together.failures[2] is None


def test_lattice_views_row_zero_through_a_failure_and_a_move():
    """``lattice`` is one Lattice, made with the simulation, viewing row 0
    of ``lattices``, which no step rebinds: it shares the row's memory
    after every step, through the member's fluid failure and a later
    MoveObstacle."""
    spec = replace(blowup_spec(), obstacles=(Rect(10, 6, 2, 3),))
    cfg = replace(harness_lifecycle(t=60), p_update=0.9, schedule=((40, MoveObstacle(1, (1, 0))),))
    sim = build_simulation(chemotaxis_baseline(K), generate(spec), harness_physics(), cfg, 5)
    lattice, lattices = sim.lattice, sim.lattices
    for _ in range(45):
        sim.step()
        assert sim.lattice is lattice and sim.lattices is lattices
        assert np.shares_memory(lattice.f, lattices.f[0])
    assert sim.failures[0].step == 35 and sim.walls.free[6:9, 10].all()


def test_sweep_style_steps_reuse_one_work_set():
    """Stepping ``sim.lattice`` directly, as the benchmark's layer sweep
    does, keeps one set of work arrays and one streaming gather."""
    sim = build_simulation(chemotaxis_baseline(K), generate(corridor_spec()), harness_physics(),
                           harness_lifecycle(t=10), 5)
    world = sim.world
    sources = np.zeros(world.shape.yx)
    step(sim.lattice, world.obstacle, sources)
    work = sim.lattice._scratch
    gather = work.gather
    step(sim.lattice, world.obstacle, sources)
    assert sim.lattice._scratch is work and work.gather is gather


def test_a_velocity_above_the_cfl_bound_fails_its_member_alone():
    """A velocity above advection's CFL bound is its member's fluid
    failure, not the batch's crash: where only the middle member breaks the
    bound, every record equals its member's one-member run, bit for bit."""
    params, cfg = replace(harness_physics(), rho_cap=5.0), harness_lifecycle(t=30)
    rng = np.random.default_rng(2)
    genomes = [random_genome(rng), chemotaxis_baseline(K), wide_genome(rng)]
    together = run_population(genomes, [corridor_spec()], params, cfg, 0)
    assert [str(record.per_env[0].failure) for record in together] == [
        "None", "velocity component 0.516 exceeds the CFL bound 0.5 at cell (4, 2) at step 2", "None",
    ]
    assert len(together[0].per_env[0].mass_curve) == len(together[2].per_env[0].mass_curve) == 31
    for genome, record in zip(genomes, together):
        (alone,) = run_population([genome], [corridor_spec()], params, cfg, 0)
        curves = [[bits(mass) for mass in r.per_env[0].mass_curve] for r in (record, alone)]
        assert curves[0] == curves[1] and bits(record.fitness) == bits(alone.fitness) and record == alone


def test_a_member_world_is_one_view_until_its_member_fails():
    """``member_world`` hands out one WorldState per running member, which
    shows every write of every step; once the member breaks the CFL bound
    it hands out the frozen copy, which no later step changes."""
    params, cfg = replace(harness_physics(), rho_cap=5.0), harness_lifecycle(t=30)
    rng = np.random.default_rng(2)
    genomes = [random_genome(rng), chemotaxis_baseline(K), wide_genome(rng)]
    sim, _ = start_evaluation(genomes, generate(corridor_spec()), params, cfg, 0, 1)
    views = [sim.member_world(m) for m in range(3)]
    assert sim.world is views[0]
    frozen = None
    for _ in range(10):
        sim.step()
        assert sim.world is sim.world is views[0]
        for m in sim.running:
            assert sim.member_world(m) is views[m]
            assert channel_stack(views[m]).tobytes() == channel_stack(sim.worlds.member(m)).tobytes()
        if frozen is None and sim.failures[1] is not None:
            frozen = sim.member_world(1)
            frozen_bits = channel_stack(frozen).tobytes()
            assert frozen is not views[1] and not np.shares_memory(frozen.mass, sim.worlds.store)
        if frozen is not None:
            assert sim.member_world(1) is frozen and channel_stack(frozen).tobytes() == frozen_bits
    assert sim.running == [0, 2] and sim.failures[1].step == 2
    assert channel_stack(views[0]).tobytes() != channel_stack(views[2]).tobytes()


@lru_cache(maxsize=1)
def grown_genomes() -> tuple:
    """16 genomes grown six generations at high structural rates, under
    random fitnesses."""
    cfg = EvolutionConfig(population_size=16, add_node_rate=0.5, add_connection_rate=0.9, weight_perturb_std=1.0, seed=5)
    pop = init_population(cfg, K)
    rng = np.random.default_rng(5)
    for _ in range(6):
        pop = next_generation(pop, rng.random(cfg.population_size), cfg)
    return tuple(pop.members)


def log_uniform(low, high):
    return st.floats(np.log(low), np.log(high)).map(lambda x: float(np.exp(x)))


accepted_physics = st.builds(
    PhysicsParams,
    alpha=log_uniform(1e-4, 1.0), beta=log_uniform(1e-2, 10.0), gamma=log_uniform(1e-3, 10.0),
    kappa=log_uniform(0.1, 100.0), v_min=log_uniform(1e-4, 1.0), rho_cap=log_uniform(1e-3, 100.0),
    delta_r_max=log_uniform(1e-2, 10.0), delta_m_max=log_uniform(1e-2, 10.0),
    poison_rate=log_uniform(1e-3, 10.0), m_min=log_uniform(1e-6, 0.1),
)


@settings(max_examples=50, deadline=None)
@given(params=accepted_physics, w=st.integers(3, 12), h=st.integers(3, 12), lifespan=st.integers(1, 40),
       members=st.lists(st.integers(0, 15), min_size=1, max_size=8), seed=st.integers(0, 2**16))
@example(params=PhysicsParams(rho_cap=50.0), w=8, h=8, lifespan=10, members=list(range(8)), seed=0)
def test_no_accepted_physics_crashes_a_population(params, w, h, lifespan, members, seed):
    """Whatever accepted physics drives grown genomes, ``run_population``
    returns: every fitness is finite and every field of every member's
    final world is nonnegative."""
    env = EnvSpec(kind="open_arena", shape=GridShape(w, h), food=((Rect(w - 1, h - 1), 4.0),), seed_cell=(0, 0))
    cfg = LifecycleConfig(t_min=lifespan, t_max=lifespan)
    sims = []

    def started(*args):
        sim, steps = start_evaluation(*args)
        sims.append(sim)
        return sim, steps

    genomes = [grown_genomes()[m] for m in members]
    with mock.patch.object(lifecycle, "start_evaluation", started):
        records = run_population(genomes, [env], params, cfg, seed)
    assert all(np.isfinite(record.fitness) for record in records)
    (sim,) = sims
    for m in range(len(genomes)):
        world = sim.member_world(m)
        for name in CHANNELS[:-1]:
            channel = getattr(world, name)
            assert np.isfinite(channel).all() and (channel >= 0).all(), name


def test_stepped_channels_stay_views_of_the_store():
    """Every write of a run, the advected nutrient and the recomputed
    chemoattractant included, lands in the stack's store."""
    spec = EnvSpec(kind="open_arena", shape=GridShape(12, 9), food=((Rect(8, 3, 2, 2), 4.0),),
                   obstacles=(Rect(5, 2, 1, 4),), seed_cell=(2, 4))
    schedule = ((4, RemoveFood(Rect(8, 3, 1, 2))), (6, MoveObstacle(1, (1, 0))))
    cfg = replace(harness_lifecycle(t=20), schedule=schedule)
    genomes = [chemotaxis_baseline(K), random_genome(np.random.default_rng(3))]
    sim = build_simulation(genomes, generate(spec), harness_physics(), cfg, 5)
    sim.run(20)
    worlds = sim.worlds
    assert sim.running == [0, 1]
    assert worlds.obstacle[2, 6] == 1.0 and worlds.obstacle[2, 5] == 0.0
    for views in (worlds, sim.world):
        for name in CHANNELS:
            assert np.shares_memory(getattr(views, name), worlds.store)
            with pytest.raises(AttributeError):
                setattr(views, name, getattr(views, name).copy())
    np.testing.assert_array_equal(worlds.chemo, arena_chemo(sim.spec, worlds.food, worlds.obstacle))


def test_nutrient_never_holds_negative_zero():
    """Advection keeps its 2-D form's bits only where nutrient holds no
    -0.0: no write of a stochastic run makes one, the schedule's included."""
    spec = EnvSpec(kind="open_arena", shape=GridShape(12, 9), food=((Rect(8, 3, 2, 2), 4.0),),
                   obstacles=(Rect(5, 2, 1, 4),), seed_cell=(2, 4))
    schedule = ((3, DegradeCells(Rect(3, 0, 9, 9), 1.0)), (4, RemoveFood(Rect(8, 3, 1, 2))),
                (6, MoveObstacle(1, (1, 0))), (9, DegradeCells(Rect(1, 2, 4, 4), 0.5)))
    cfg = replace(harness_lifecycle(t=30), p_update=0.6, schedule=schedule)
    rng = np.random.default_rng(4)
    genomes = [chemotaxis_baseline(K)] + [random_genome(rng) for _ in range(2)] + [wide_genome(rng)]
    sim = build_simulation(genomes, generate(spec), harness_physics(), cfg, 5)
    seen = []

    def no_negative_zero(sim):
        n = sim.worlds.nutrient
        assert not (np.signbit(n) & (n == 0)).any()
        seen.append(float(n.sum()))

    no_negative_zero(sim)
    sim.run(30, no_negative_zero)
    assert len(seen) == 31 and min(seen[1:]) > 0.0


def test_member_perception_reads_the_stack_in_place(monkeypatch):
    """Perceiving through one member's world builds no store: its rows are
    the stack's own gather for that member."""
    spec = EnvSpec(kind="open_arena", shape=GridShape(12, 9), food=((Rect(8, 3, 2, 2), 4.0),))
    genomes = [chemotaxis_baseline(K), random_genome(np.random.default_rng(3)), empty_genome(K)]
    sim = build_simulation(genomes, generate(spec), harness_physics(), harness_lifecycle(t=5), 5)
    sim.run(5)
    stores = []
    original = WorldStack.__init__

    def counted(self, *args):
        stores.append(args)
        original(self, *args)

    monkeypatch.setattr(WorldStack, "__init__", counted)
    ys, xs = np.nonzero(np.ones(spec.shape.yx, dtype=bool))
    for member in range(3):
        rows = perceive_cells(sim.member_world(member), ys, xs)
        np.testing.assert_array_equal(rows, perceive_cells(sim.worlds, ys, xs, np.full(len(ys), member)))
    assert stores == []


def test_members_must_share_k_hidden():
    bundle = generate(EnvSpec(kind="open_arena", shape=GridShape(8, 8)))
    with pytest.raises(LifecycleError):
        build_simulation([empty_genome(2), empty_genome(3)], bundle, PhysicsParams(), LifecycleConfig(), 1)


def test_full_update_draws_nothing_and_selects_every_active_cell():
    """At p_update 1 a two-member simulation steps exactly as one whose
    every cell is forced to update, and its selection streams stay unread.
    The forced one draws every cell 0.0 at p_update 0.5."""
    spec = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
    params, cfg = harness_physics(), harness_lifecycle(t=60)
    genomes = [chemotaxis_baseline(K), random_genome(np.random.default_rng(9))]
    stochastic = build_simulation(genomes, generate(spec), params, cfg, 5)
    forced = build_simulation(genomes, generate(spec), params, replace(cfg, p_update=0.5), 5)
    forced.rngs = [SimpleNamespace(random=np.zeros)] * 2
    unread = [rng.bit_generator.state for rng in stochastic.rngs]
    for _ in range(60):
        stochastic.step()
        forced.step()
        assert stochastic.running == forced.running == [0, 1]
        for m in (0, 1):
            expected = channel_stack(forced.member_world(m)).tobytes()
            assert channel_stack(stochastic.member_world(m)).tobytes() == expected
        assert stochastic.lattices.f.tobytes() == forced.lattices.f.tobytes()
    assert [rng.bit_generator.state for rng in stochastic.rngs] == unread
    assert (stochastic.worlds.mass.sum(axis=(1, 2)) != cfg.seed_mass).all()  # both members' economies ran
