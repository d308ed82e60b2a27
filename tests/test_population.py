"""Population stepping: a batch of members gives each member the bits it
gets alone, serially, pooled, and through failures and obstacle moves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eincasm.cppn import ACTIVATION_NAMES, ConnectionGene, NodeGene, empty_genome
from eincasm.driver import evaluate_population
from eincasm.environments import EnvSpec, Rect, generate
from eincasm.fluid import FluidInstability, Lattice, equilibrium, step
from eincasm.harness import chemotaxis_baseline, harness_lifecycle, harness_physics, inert_genome
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
from eincasm.substrate import GridShape, Statics, WorldStack, create_world, dilate3x3, perceive_cells

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
    members = [inert_genome(K), chemotaxis_baseline(K)]
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
        failed = [r.per_env[0].failed for r in records[0]]
        assert any(failed) and not all(failed)

        n_failed = sum(outcome.failed for per_env in records for r in per_env for outcome in r.per_env)
        assert n_failed > 0

        serial, serial_failed = evaluate_population(members, envs, params, cfg, 7, workers=1)
        pooled, pooled_failed = evaluate_population(members, envs, params, cfg, 7, workers=2)
        assert serial == per_member
        assert pooled == per_member
        assert serial_failed == pooled_failed == n_failed

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


class TestFailureRecord:
    def test_env_outcome_keeps_reason_step_and_cell(self):
        cfg = harness_lifecycle(t=40)
        record = run_lifecycle(chemotaxis_baseline(K), blowup_spec(), harness_physics(), cfg, 3)
        outcome = record.per_env[0]
        assert outcome.failed
        failure = outcome.failure
        assert failure.reason.startswith("velocity")
        assert failure.step == outcome.steps_run < 40
        assert 0 <= failure.x < 32 and 0 <= failure.y < 32
        assert outcome.fitness == outcome.mass_curve[-1]
        assert len(outcome.mass_curve) == outcome.steps_run + 1
        assert str(failure) == f"{failure.reason} at cell ({failure.x}, {failure.y}) at step {failure.step}"

    def test_survivor_has_no_failure(self):
        record = run_lifecycle(inert_genome(K), blowup_spec(), harness_physics(), harness_lifecycle(t=10), 3)
        assert not record.per_env[0].failed
        assert record.per_env[0].failure is None


def stacked_worlds(rng, w, h, n):
    obstacle = (rng.random((h, w)) < 0.2).astype(float)
    statics = Statics(obstacle, rng.random((h, w)), rng.random((h, w)), rng.random((h, w)))
    worlds = []
    for _ in range(n):
        world = create_world(GridShape(w, h), statics, K)
        free = obstacle < 0.5
        world.mass[free] = rng.random(int(free.sum()))
        world.reservoir[free] = rng.random(int(free.sum()))
        world.nutrient[free] = rng.random(int(free.sum()))
        world.hidden[:, free] = rng.uniform(-1, 1, (K, int(free.sum())))
        worlds.append(world)
    return worlds


@settings(max_examples=25, deadline=None)
@given(w=st.integers(3, 14), h=st.integers(3, 14), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stack_layers_match_each_world(w, h, n, seed):
    rng = np.random.default_rng(seed)
    worlds = stacked_worlds(rng, w, h, n)
    stack = WorldStack.of(worlds)
    members, ys, xs = np.nonzero(rng.random((n, h, w)) < 0.5)
    got = perceive_cells(stack, ys, xs, members)
    for m, world in enumerate(worlds):
        rows = members == m
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
    stack = WorldStack.of(stacked_worlds(rng, w, h, n))
    n_slots = 9 * (7 + K)
    members, ys, xs = np.nonzero(rng.random((n, h, w)) < 0.6)
    for subset in subsets:
        stack.mass[...] = rng.random(stack.mass.shape)
        stack.reservoir[...] = rng.random(stack.reservoir.shape)
        stack.nutrient = rng.random(stack.nutrient.shape)  # the step replaces nutrient
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
        try:
            alone = step(Lattice(f[p].copy(), 1.1), obstacles, sources[p], step_index=4)
        except FluidInstability as exc:
            fail = failures[p]
            assert (fail.reason, fail.x, fail.y, fail.step) == (exc.reason, exc.x, exc.y, exc.step)
            assert batch.f[p].tobytes() == f[p].tobytes()
        else:
            assert failures[p] is None
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
        assert together.member_world(m).channel_stack().tobytes() == sim.world.channel_stack().tobytes()
        assert together.member_lattice(m).f.tobytes() == sim.lattice.f.tobytes()
    # The perception buffer kept across steps agrees with a fresh one.
    rows, ys, xs = np.nonzero(np.ones(together.worlds.mass.shape, dtype=bool))
    fresh = np.concatenate([perceive_cells(together.member_world(m), ys[rows == r], xs[rows == r])
                            for r, m in enumerate(together.running)])
    np.testing.assert_array_equal(perceive_cells(together.worlds, ys, xs, rows), fresh)


def test_members_must_share_k_hidden():
    bundle = generate(EnvSpec(kind="open_arena", shape=GridShape(8, 8)))
    with pytest.raises(LifecycleError):
        build_simulation([empty_genome(2), empty_genome(3)], bundle, PhysicsParams(), LifecycleConfig(), 1)


def test_full_update_draws_nothing_and_selects_every_active_cell():
    """At p_update 1 a two-member simulation steps exactly as one whose
    every cell is forced to update, and its selection streams stay unread."""
    spec = EnvSpec(kind="open_arena", shape=GridShape(13, 11), food=((Rect(8, 4, 2, 2), 2.0),))
    params, cfg = harness_physics(), harness_lifecycle(t=60)
    genomes = [chemotaxis_baseline(K), random_genome(np.random.default_rng(9))]
    stochastic = build_simulation(genomes, generate(spec), params, cfg, 5)
    forced = build_simulation(genomes, generate(spec), params, cfg, 5)
    unread = [rng.bit_generator.state for rng in stochastic.rngs]
    everywhere = np.ones(spec.shape.yx, dtype=bool)
    for _ in range(60):
        stochastic.step()
        forced.step(everywhere)
        assert stochastic.running == forced.running == [0, 1]
        for m in (0, 1):
            expected = forced.member_world(m).channel_stack().tobytes()
            assert stochastic.member_world(m).channel_stack().tobytes() == expected
        assert stochastic.lattices.f.tobytes() == forced.lattices.f.tobytes()
    assert [rng.bit_generator.state for rng in stochastic.rngs] == unread
    assert (stochastic.worlds.mass.sum(axis=(1, 2)) != cfg.seed_mass).all()  # both members' economies ran
