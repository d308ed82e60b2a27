"""Population stepping: a batch of members gives each member the bits it
gets alone, serially, pooled, and through failures and obstacle moves."""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eincasm.cppn import ACTIVATION_NAMES, ConnectionGene, NodeGene, empty_genome
from eincasm import driver
from eincasm.config import parse_config
from eincasm.driver import evaluate_population, evolve_run
from eincasm.environments import EnvSpec, Rect, arena_chemo, generate
from eincasm.fluid import Lattice, equilibrium, step
from eincasm.harness import chemotaxis_baseline, harness_lifecycle, harness_physics
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
)
from eincasm.physics import PhysicsParams
from eincasm.substrate import CHANNELS, GridShape, Statics, WorldStack, create_world, dilate3x3, perceive_cells

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
        g.nodes[node_id] = NodeGene(node_id, "hidden", str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
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


def mixed_members():
    members = [empty_genome(K), chemotaxis_baseline(K)]
    members += [random_genome(np.random.default_rng(seed)) for seed in range(3)]
    return members


class TestSerialPooledPerMember:
    def test_same_bits_through_a_mid_run_failure(self):
        members = mixed_members()
        small = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
        envs = [blowup_spec(), small]
        params, cfg = harness_physics(), harness_lifecycle(t=40)
        records = [[run_lifecycle(g, env, params, cfg, 7) for g in members] for env in envs]
        per_member = [float(np.mean([r[i].fitness for r in records])) for i in range(len(members))]
        failed = [r.per_env[0].failure is not None for r in records[0]]
        assert any(failed) and not all(failed)

        n_failed = sum(outcome.failure is not None for per_env in records for r in per_env for outcome in r.per_env)
        assert n_failed > 0

        serial, serial_failed = evaluate_population(members, envs, params, cfg, 7)
        with ProcessPoolExecutor(2) as pool:
            pooled, pooled_failed = evaluate_population(members, envs, params, cfg, 7, pool, workers=2)
        assert serial == per_member
        assert pooled == per_member
        assert serial_failed == pooled_failed == n_failed

    def test_evolve_run_pooled_equals_serial_on_one_pool(self, monkeypatch):
        opened = []

        class CountedPool(driver.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(driver, "ProcessPoolExecutor", CountedPool)
        cfg = parse_config(
            {"evolution": {"population_size": 6, "seed": 2}, "lifecycle": {"t_min": 15, "t_max": 15}, "generations": 3}
        )
        monkeypatch.setenv("EINCASM_THREADS", "1")
        serial = evolve_run(cfg)
        assert opened == []
        monkeypatch.setenv("EINCASM_THREADS", "2")
        pooled = evolve_run(cfg)
        assert opened == [2]  # one pool for all three generations
        assert [s.generation for s in pooled.stats] == [0, 1, 2]
        assert pooled.stats == serial.stats
        assert pooled.best_fitness == serial.best_fitness
        assert pooled.best_genome == serial.best_genome
        final, expected = pooled.final_population, serial.final_population
        assert final.members == expected.members and final.species == expected.species
        assert (final.generation, final.next_species_id) == (expected.generation, expected.next_species_id)
        assert final.registry.counters() == expected.registry.counters()

    def test_population_records_equal_single_records(self):
        members = mixed_members()
        cfg = LifecycleConfig(t_min=20, t_max=40, p_update=0.5, seed_nutrient=24.0, n_env_evals=2, tau=1.2)
        together = run_population(members, blowup_spec(), harness_physics(), cfg, 11)
        for genome, record in zip(members, together):
            alone = run_lifecycle(genome, blowup_spec(), harness_physics(), cfg, 11)
            assert record == alone

    def test_members_with_hidden_nodes_equal_run_lifecycle(self):
        rng = np.random.default_rng(31)
        members = [hidden_genome(rng, n_hidden) for n_hidden in (0, 1, 2, 3, 4)]
        spec = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
        params, cfg = harness_physics(), harness_lifecycle(t=30)
        together = run_population(members, spec, params, cfg, 4)
        for genome, record in zip(members, together):
            assert record == run_lifecycle(genome, spec, params, cfg, 4)
        assert len({record.fitness for record in together}) == len(members)


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
        records = run_population(members, blowup_spec(), harness_physics(), cfg, 7)
        lifespan = cfg.lifespan(7)
        for record in records:
            curves = [o.mass_curve + o.mass_curve[-1:] * (lifespan + 1 - len(o.mass_curve)) for o in record.per_env]
            expected = np.array(curves).mean(axis=0)[-1]
            assert np.float64(record.fitness).view(np.uint64) == expected.view(np.uint64)
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

    batch, failures = step(Lattice(f.copy(), 1.1), obstacles, sources, step_index=4)
    for p in range(n):
        alone, (failure,) = step(Lattice(f[p].copy(), 1.1), obstacles, sources[p], step_index=4)
        assert failures[p] == failure
        assert batch.f[p].tobytes() == alone.f.tobytes()
        if failure is not None:
            assert alone.f.tobytes() == f[p].tobytes()


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
        assert together.member_world(m).channel_stack().tobytes() == sim.world.channel_stack().tobytes()
        assert together.member_lattice(m).f.tobytes() == sim.lattice.f.tobytes()
    # The perception buffer kept across steps agrees with a fresh one.
    rows, ys, xs = np.nonzero(np.ones(together.worlds.mass.shape, dtype=bool))
    fresh = np.concatenate([perceive_cells(together.member_world(m), ys[rows == r], xs[rows == r])
                            for r, m in enumerate(together.running)])
    np.testing.assert_array_equal(perceive_cells(together.worlds, ys, xs, rows), fresh)


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
            expected = forced.member_world(m).channel_stack().tobytes()
            assert stochastic.member_world(m).channel_stack().tobytes() == expected
        assert stochastic.lattices.f.tobytes() == forced.lattices.f.tobytes()
    assert [rng.bit_generator.state for rng in stochastic.rngs] == unread
    assert (stochastic.worlds.mass.sum(axis=(1, 2)) != cfg.seed_mass).all()  # both members' economies ran
