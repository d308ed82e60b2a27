"""Lifecycle pipeline: seeding, stepping, perturbations, fitness."""

import hashlib
import json
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from eincasm import fluid
from eincasm.config import read_section
from eincasm.cppn import ConnectionGene, GenomeError, compile_genome, empty_genome
from eincasm.driver import evaluate_population
from eincasm.environments import EnvSpec, Rect, arena_chemo, generate
from eincasm.fileio import read_value, write_value
from eincasm.harness import chemotaxis_baseline
from eincasm.lifecycle import (
    DegradeCells,
    LifecycleConfig,
    LifecycleError,
    MoveObstacle,
    PerturbationEvent,
    RemoveFood,
    Simulation,
    apply_perturbation,
    build_simulation,
    label_obstacles,
    run_lifecycle,
    run_population,
    seed_organism,
    validate_schedule,
)
from eincasm.neat import EvolutionConfig
from eincasm.physics import PhysicsParams
from eincasm.substrate import GridShape, Statics, create_world, total_mass, total_nutrient
from test_substrate import channel_stack


def open_spec(w=8, h=8, food=(), seed_cell=(4, 4)):
    return EnvSpec(kind="open_arena", shape=GridShape(w, h), food=tuple(food), seed_cell=seed_cell)


def make_world(w=8, h=8, k=4, obstacles=None):
    z = np.zeros((h, w))
    ob = np.zeros((h, w)) if obstacles is None else obstacles
    return create_world(GridShape(w, h), Statics(ob, z.copy(), z.copy(), z.copy()), k)


def grower_genome(k=4, grow=1.0):
    """Constant positive mass-growth desire, nothing else."""
    g = empty_genome(k)
    out_dm = g.n_inputs + k + 1
    g.connections[1] = ConnectionGene(1, g.bias_input_id, out_dm, grow, True)
    return g


def default_cfg(**kw):
    base = dict(t_min=20, t_max=20, p_update=1.0, seed_nutrient=1.0)
    base.update(kw)
    return LifecycleConfig(**base)


class TestSeeding:
    def test_seed_mass(self):
        world = make_world()
        seed_organism(world, default_cfg(), (4, 4))
        assert total_mass(world) == 1.0
        assert world.nutrient[4, 4] == 1.0

    def test_seed_on_obstacle_rejected(self):
        ob = np.zeros((8, 8))
        ob[4, 4] = 1.0
        world = make_world(obstacles=ob)
        with pytest.raises(LifecycleError):
            seed_organism(world, default_cfg(), (4, 4))


class TestStepPipeline:
    def test_no_selection_freezes_economy(self):
        bundle = generate(open_spec())
        sim = build_simulation(grower_genome(), bundle, PhysicsParams(), default_cfg(p_update=0.5), 1)
        sim.rngs = [SimpleNamespace(random=np.ones)]  # every draw 1.0: no cell is selected
        before_m = sim.world.mass.copy()
        before_r = sim.world.reservoir.copy()
        sim.step()
        np.testing.assert_array_equal(sim.world.mass, before_m)
        np.testing.assert_array_equal(sim.world.reservoir, before_r)

    def test_zero_phenotype_is_identity(self):
        bundle = generate(open_spec())
        sim = build_simulation(empty_genome(4), bundle, PhysicsParams(), default_cfg(), 1)
        before = channel_stack(sim.world)
        for _ in range(5):
            sim.step()
        np.testing.assert_allclose(channel_stack(sim.world), before, atol=1e-15)

    def test_funded_growth_increases_mass_until_nutrient_gone(self):
        bundle = generate(open_spec())
        p = PhysicsParams()
        sim = build_simulation(grower_genome(grow=3.0), bundle, p, default_cfg(seed_nutrient=2.0), 1)
        curve = [total_mass(sim.world)]
        for _ in range(12):
            sim.step()
            curve.append(total_mass(sim.world))
        increases = [b - a for a, b in zip(curve, curve[1:])]
        assert increases[0] > 0
        # strictly increasing until the nutrient budget is exhausted, then flat
        exhausted = sim.world.nutrient.sum() < 1e-12
        assert exhausted
        assert curve[-1] == pytest.approx(3.0, rel=1e-9)  # seed mass + converted 2.0
        nonflat = [i for i, d in enumerate(increases) if d > 1e-15]
        assert nonflat == list(range(nonflat[-1] + 1))  # no gaps: monotone phase then flat

    def test_pre_step_perception_single_writer_per_cell(self):
        # all selected cells see the same pre-step world: forcing the update
        # twice from identical states must give identical results
        bundle = generate(open_spec(food=((Rect(3, 3, 2, 2), 1.0),)))
        g = chemotaxis_baseline()
        a = build_simulation(g, bundle, PhysicsParams(), default_cfg(), 7)
        b = build_simulation(g, bundle, PhysicsParams(), default_cfg(), 7)
        a.step()
        b.step()
        np.testing.assert_array_equal(channel_stack(a.world), channel_stack(b.world))

    def test_active_set_is_dilated_footprint(self):
        bundle = generate(open_spec())
        sim = build_simulation(grower_genome(grow=5.0), bundle, PhysicsParams(), default_cfg(seed_nutrient=5.0), 1)
        sim.step()
        grown = np.argwhere(sim.world.mass > 1.0e-12)
        for y, x in grown:
            assert abs(x - 4) <= 1 and abs(y - 4) <= 1  # only the 3x3 around the seed


def energy_total(world, p):
    """The conserved-or-decreasing closed-system quantity N_total + beta * M_total."""
    return total_nutrient(world) + p.beta * total_mass(world)


class TestEnergyBound:
    def test_closed_system_energy_never_increases(self):
        bundle = generate(open_spec())
        p = PhysicsParams()
        sim = build_simulation(chemotaxis_baseline(), bundle, p, default_cfg(seed_nutrient=3.0), 5)
        e = energy_total(sim.world, p)
        for _ in range(40):
            sim.step()
            e2 = energy_total(sim.world, p)
            assert e2 <= e + 1e-9
            e = e2


class TestPerturbations:
    def test_remove_food(self):
        world = make_world()
        world.food[:] = 2.0
        apply_perturbation(world.stack, RemoveFood(Rect(0, 0, 8, 8)))
        assert world.food.sum() == 0.0

    def test_degrade_cells_full_fraction(self):
        world = make_world()
        world.mass[2:4, 2:4] = 1.0
        apply_perturbation(world.stack, DegradeCells(Rect(2, 2, 2, 2), 1.0))
        assert world.mass.sum() == 0.0

    def test_degrade_scales_reservoir_and_nutrient(self):
        world = make_world()
        world.mass[2, 2] = 1.0
        world.reservoir[2, 2] = 2.0
        world.nutrient[2, 2] = 0.8
        apply_perturbation(world.stack, DegradeCells(Rect(2, 2), 0.25))
        assert world.mass[2, 2] == pytest.approx(0.75)
        assert world.reservoir[2, 2] == pytest.approx(1.5)
        assert world.nutrient[2, 2] == pytest.approx(0.6)
        world.validate(kappa=4.0)

    def test_move_obstacle_ledger(self):
        ob = np.zeros((8, 8))
        ob[3, 2:4] = 1.0
        world = make_world(obstacles=ob)
        world.mass[3, 4] = 0.4
        world.nutrient[3, 4] = 0.2
        before = total_mass(world)
        apply_perturbation(world.stack, MoveObstacle(1, (1, 0)))
        assert world.obstacle[3, 2] == 0.0
        assert world.obstacle[3, 3] == 1.0 and world.obstacle[3, 4] == 1.0
        assert total_mass(world) == pytest.approx(before - 0.4)
        assert world.nutrient[3, 4] == 0.0
        world.validate()

    def test_schedule_validation_bounds(self):
        """``validate_schedule`` rejects an event by running it: it raises the
        error ``apply_perturbation`` raises, naming the key and the step."""
        ob = np.zeros((8, 8))
        ob[3, 6:8] = 1.0
        world = make_world(obstacles=ob)
        validate_schedule(world.stack, ((2, MoveObstacle(1, (0, 1))),))
        for event, message in [
            (MoveObstacle(1, (1, 0)), "obstacle 1 pushed out of bounds"),
            (MoveObstacle(3, (0, 1)), "obstacle id 3 does not exist"),
            (DegradeCells(Rect(0, 0, 9, 1), 0.5), "perturbation region Rect(x=0, y=0, w=9, h=1) out of bounds"),
            (DegradeCells(Rect(0, 0, 2, 1), 1.5), "degrade fraction must lie in [0, 1], got 1.5"),
            (RemoveFood(Rect(7, 7, 2, 1)), "perturbation region Rect(x=7, y=7, w=2, h=1) out of bounds"),
            ("drought", "unknown perturbation event 'drought'"),
        ]:
            with pytest.raises(LifecycleError) as applied:
                apply_perturbation(world.copy().stack, event)
            assert str(applied.value) == message
            with pytest.raises(LifecycleError) as validated:
                validate_schedule(world.stack, ((2, event),))
            assert str(validated.value) == f"'schedule': {message} at step 2"

    @pytest.mark.parametrize(
        "cells, schedule",
        [
            pytest.param(
                [(5, 3)],
                ((1, MoveObstacle(1, (1, 0))), (2, MoveObstacle(1, (1, 0))), (3, MoveObstacle(1, (1, 0)))),
                id="pushed-off-the-edge",
            ),
            # The first move takes obstacle 1 below obstacle 2, so the ids
            # swap: the second move pushes the one at (5, 3) off the edge.
            pytest.param(
                [(1, 1), (5, 3)],
                ((1, MoveObstacle(1, (0, 4))), (2, MoveObstacle(1, (3, 0)))),
                id="relabelled-by-a-move",
            ),
        ],
    )
    def test_cumulative_displacement_validated(self, cells, schedule):
        ob = np.zeros((8, 8))
        for x, y in cells:
            ob[y, x] = 1.0
        world = make_world(obstacles=ob)
        with pytest.raises(LifecycleError, match="out of bounds at step"):
            validate_schedule(world.stack, schedule)

    def test_obstacle_layout_resolved_only_when_it_moves(self, monkeypatch):
        """A run resolves its obstacle grid into walls when it is built and
        after each move, not on every step."""
        resolved = []
        walls_of = fluid.walls_of

        def counting(obstacles):
            if not isinstance(obstacles, fluid.Walls):
                resolved.append(obstacles)
            return walls_of(obstacles)

        monkeypatch.setattr(fluid, "walls_of", counting)
        spec = EnvSpec(kind="open_arena", shape=GridShape(10, 8), food=((Rect(7, 3, 2, 2), 3.0),),
                       obstacles=(Rect(4, 1, 1, 3),), seed_cell=(2, 4))
        cfg = default_cfg(t_min=30, t_max=30, schedule=((12, MoveObstacle(1, (0, 1))),))
        sim = build_simulation(chemotaxis_baseline(4), generate(spec), PhysicsParams(), cfg, 1)
        assert len(sim.run(30)[0]) == 31
        assert len(resolved) == 2
        np.testing.assert_array_equal(sim.walls.solid, sim.world.obstacle > 0.5)
        np.testing.assert_array_equal(sim.walls.free, sim.world.obstacle <= 0.5)
        assert sim.world.obstacle[4, 4] == 1.0 and sim.world.obstacle[1, 4] == 0.0

    def test_label_obstacles_row_major_components(self):
        ob = np.zeros((5, 5))
        ob[0, 3:5] = 1.0
        ob[3:5, 0] = 1.0
        labels = label_obstacles(ob)
        assert labels[0, 3] == labels[0, 4] == 1
        assert labels[3, 0] == labels[4, 0] == 2

    def test_event_json_round_trip(self):
        events = [
            RemoveFood(Rect(1, 2, 3, 4)),
            DegradeCells(Rect(0, 0, 2, 2), 0.5),
            MoveObstacle(2, (1, -1)),
        ]
        for ev in events:
            assert read_value("event", json.loads(json.dumps(write_value(ev))), PerturbationEvent) == ev

    @pytest.mark.parametrize(
        "schedule",
        [
            pytest.param(((6, DegradeCells(Rect(4, 1, 2, 3), 0.5)), (6, MoveObstacle(1, (1, 0)))), id="degrade-then-move"),
            pytest.param(((6, MoveObstacle(1, (1, 0))), (6, DegradeCells(Rect(4, 1, 2, 3), 0.5))), id="move-then-degrade"),
            pytest.param(
                ((11, DegradeCells(Rect(2, 2, 6, 4), 0.3)), (4, MoveObstacle(1, (1, 0))),
                 (11, MoveObstacle(1, (0, 1))), (2, RemoveFood(Rect(7, 3, 1, 2))), (11, DegradeCells(Rect(5, 2, 2, 4), 0.7))),
                id="out-of-step-order",
            ),
        ],
    )
    def test_events_fire_at_their_step_in_schedule_order(self, schedule):
        """A run with a schedule equals one without it that applies, after
        each step s, the events at s through ``apply_perturbation`` in
        schedule order, then resolves the moved walls and the
        chemoattractant once: bit for bit, at every step."""
        spec = EnvSpec(kind="open_arena", shape=GridShape(10, 8), food=((Rect(7, 3, 2, 2), 3.0),),
                       obstacles=(Rect(4, 1, 1, 3),), seed_cell=(2, 4))
        genomes = [chemotaxis_baseline(4), grower_genome()]
        sim = build_simulation(genomes, generate(spec), PhysicsParams(), default_cfg(p_update=0.7, schedule=schedule), 3)
        ref = build_simulation(genomes, generate(spec), PhysicsParams(), default_cfg(p_update=0.7), 3)
        for step in range(20):
            sim.step()
            ref.step()
            events = [event for at, event in schedule if at == step]
            solid_before = ref.walls.solid
            for event in events:
                apply_perturbation(ref.worlds, event)
            if any(isinstance(event, MoveObstacle) for event in events):
                ref._reconcile_lattice(solid_before)
            if any(isinstance(event, (RemoveFood, MoveObstacle)) for event in events):
                ref.worlds.chemo[...] = arena_chemo(spec, ref.worlds.food, ref.worlds.obstacle)
            assert sim.worlds.store.tobytes() == ref.worlds.store.tobytes()
            assert sim.lattices.f.tobytes() == ref.lattices.f.tobytes()
            assert sim.failures == ref.failures
        assert sim.running == [0, 1]

    def test_a_moved_obstacle_restarts_the_fluid_of_each_cell_it_changes(self):
        """After a MoveObstacle step a covered cell holds +0.0 in all 9
        populations and a vacated one ``WEIGHTS`` exactly; every other cell
        holds what it held before the event, as the run without it shows."""
        spec = EnvSpec(kind="open_arena", shape=GridShape(10, 8), food=((Rect(7, 3, 2, 2), 3.0),),
                       obstacles=(Rect(4, 1, 1, 3),), seed_cell=(2, 4))
        genomes = [chemotaxis_baseline(4), grower_genome()]
        cfg = default_cfg(p_update=0.7, schedule=((6, MoveObstacle(1, (0, 1))),))
        sim = build_simulation(genomes, generate(spec), PhysicsParams(), cfg, 3)
        ref = build_simulation(genomes, generate(spec), PhysicsParams(), default_cfg(p_update=0.7), 3)
        solid_before = sim.walls.solid
        for _ in range(7):
            sim.step()
            ref.step()
        covered, vacated = sim.walls.solid & ~solid_before, solid_before & ~sim.walls.solid
        assert covered[4, 4] and vacated[1, 4] and covered.sum() == vacated.sum() == 1 and sim.running == [0, 1]
        f = sim.lattices.f
        assert not f[:, :, covered].view(np.uint64).any()
        assert f[:, :, vacated].tobytes() == np.broadcast_to(fluid.WEIGHTS[:, None], (2, 9, 1)).tobytes()
        kept = ~(covered | vacated)
        assert f[:, :, kept].tobytes() == ref.lattices.f[:, :, kept].tobytes()

    def test_scheduled_removal_recomputes_chemo(self):
        spec = open_spec(w=10, h=10, food=((Rect(7, 7), 3.0),), seed_cell=(2, 2))
        bundle = generate(spec)
        cfg = default_cfg(schedule=((2, RemoveFood(Rect(7, 7)),),))
        sim = build_simulation(empty_genome(4), bundle, PhysicsParams(), cfg, 1)
        assert sim.world.chemo.max() > 0
        for _ in range(4):
            sim.step()
        assert sim.world.food.sum() == 0.0
        assert sim.world.chemo.max() == 0.0


class TestRunLifecycle:
    def test_no_genome_is_refused(self):
        with pytest.raises(LifecycleError, match="need at least one genome"):
            Simulation([], generate(open_spec()), PhysicsParams(), default_cfg(), 1)
        with pytest.raises(LifecycleError, match="need at least one genome"):
            run_population([], [open_spec()], PhysicsParams(), default_cfg(), 1)
        with pytest.raises(GenomeError, match="need at least one genome"):
            compile_genome([])

    @pytest.mark.parametrize("evaluate", [run_population, evaluate_population])
    def test_no_environment_is_refused(self, evaluate):
        with pytest.raises(LifecycleError, match="need at least one environment"):
            evaluate([empty_genome(4)], [], PhysicsParams(), default_cfg(), 1)

    def test_inert_genome_keeps_seed_mass(self):
        rec = run_lifecycle(empty_genome(4), open_spec(), PhysicsParams(), default_cfg(), 3)
        assert rec.fitness == pytest.approx(1.0)
        assert rec.per_env[0].mass_curve[-1] == rec.fitness
        assert len(rec.per_env[0].mass_curve) == 20 + 1

    def test_deterministic_bit_for_bit(self):
        cfg = default_cfg(t_min=15, t_max=30, p_update=0.5)
        spec = open_spec(food=((Rect(5, 5), 2.0),))
        g = chemotaxis_baseline()
        recs = [run_lifecycle(g, spec, PhysicsParams(), cfg, 99) for _ in range(2)]
        digests = [
            hashlib.sha256(json.dumps([repr(v) for v in r.per_env[0].mass_curve]).encode()).hexdigest()
            for r in recs
        ]
        assert digests[0] == digests[1]

    def test_fixed_lifespan_degenerate_interval(self):
        cfg = default_cfg(t_min=7, t_max=7)
        for seed in (1, 2, 3):
            rec = run_lifecycle(empty_genome(4), open_spec(), PhysicsParams(), cfg, seed)
            assert len(rec.per_env[0].mass_curve) == 7 + 1

    def test_multi_env_average(self):
        """Fitness is the two-level fold: per environment its final masses
        added left to right and divided by n_env_evals, then those means
        added left to right and divided by the number of environments. At
        8 or more values a 1-D np.mean sums pairwise and differs."""
        envs = [open_spec(food=((Rect(1 + i % 6, 1 + i // 6 * 5, 2, 2), 1.0 + i),)) for i in range(12)]
        for n_env_evals in (1, 2, 3):
            cfg = default_cfg(t_min=6, t_max=6, p_update=0.5, n_env_evals=n_env_evals)
            for n_envs in range(1, 13):
                for record in run_population([chemotaxis_baseline()], envs[:n_envs], PhysicsParams(), cfg, 5):
                    finals = [outcome.mass_curve[-1] for outcome in record.per_env]
                    assert len(finals) == len(set(finals)) == n_envs * n_env_evals
                    means = []
                    for env in range(n_envs):
                        total = finals[env * n_env_evals]
                        for final in finals[env * n_env_evals + 1 : (env + 1) * n_env_evals]:
                            total += final
                        means.append(total / n_env_evals)
                    total = means[0]
                    for mean in means[1:]:
                        total += mean
                    expected = np.float64(total / n_envs)
                    assert np.float64(record.fitness).view(np.uint64) == expected.view(np.uint64)

    def test_config_validation(self):
        with pytest.raises(LifecycleError):
            LifecycleConfig(t_min=0, t_max=5)
        with pytest.raises(LifecycleError):
            LifecycleConfig(t_min=5, t_max=4)
        with pytest.raises(LifecycleError):
            LifecycleConfig(p_update=0.0)
        with pytest.raises(LifecycleError):
            LifecycleConfig(tau=0.5)
        for step in (-1, 10, 50):  # events run after step s only while s < lifespan <= t_max
            with pytest.raises(LifecycleError, match=rf"schedule step {step} lies outside \[0, t_max = 10\)"):
                LifecycleConfig(t_min=5, t_max=10, schedule=((step, RemoveFood(Rect(1, 1))),))
        LifecycleConfig(t_min=5, t_max=10, schedule=((0, RemoveFood(Rect(1, 1))), (9, RemoveFood(Rect(1, 1)))))

    def test_lifecycle_config_round_trip(self):
        cfg = LifecycleConfig(
            t_min=5,
            t_max=9,
            p_update=0.7,
            seed_cell=(2, 3),
            seed_nutrient=4.0,
            n_env_evals=2,
            tau=1.1,
            schedule=((3, RemoveFood(Rect(1, 1))),),
        )
        assert read_section("lifecycle", LifecycleConfig(), json.loads(json.dumps(write_value(cfg)))) == cfg


NAN = float("nan")


def arena(kind="open_arena", **fields):
    return generate(EnvSpec(kind=kind, shape=GridShape(16, 16), **fields))


def setting(make, name):
    """``make`` called with its field ``name`` set to the one argument."""
    return lambda value: make(**{name: value})


BOUNDED_FLOATS = {
    **{f"PhysicsParams.{name}": setting(PhysicsParams, name) for name in PhysicsParams.__dataclass_fields__},
    **{f"LifecycleConfig.{name}": setting(LifecycleConfig, name)
       for name in ("p_update", "seed_mass", "seed_nutrient", "tau")},
    **{f"EvolutionConfig.{name}": setting(EvolutionConfig, name)
       for name in ("c1", "c2", "c3", "compatibility_threshold", "weight_mutation_rate", "weight_perturb_std",
                    "add_node_rate", "add_connection_rate", "disable_rate", "survival_fraction")},
    "Lattice.tau": setting(partial(fluid.Lattice, np.zeros((9, 3, 3))), "tau"),
    "EnvSpec.chemo_decay": setting(arena, "chemo_decay"),
    "EnvSpec.food": lambda value: arena(food=((Rect(1, 1), value),)),
    "EnvSpec.poison": lambda value: arena(poison=((Rect(1, 1), value),)),
    "EnvSpec.false_peak_amplitude": lambda value: arena("deceptive_chemo", params=(("false_peak_amplitude", value),)),
}


@pytest.mark.parametrize("field", BOUNDED_FLOATS)
def test_nan_fails_every_bounded_float_field(field):
    """Each bound on a float field is written so that NaN and +-inf fail
    it, with a message naming the field: with m_min NaN, say, no cell would
    ever be active and nothing would say so, and alpha = inf would make
    every fitness NaN."""
    named = field.split(".")[1].replace("_", "[_ ]")
    for value in (NAN, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"{named}.* must"):
            BOUNDED_FLOATS[field](value)


@pytest.mark.parametrize("field, value", [("c1", -1.0), ("c2", -1e-12), ("c3", -0.4),
                                          ("compatibility_threshold", -1.0), ("compatibility_threshold", 0.0)])
def test_evolution_config_refuses_a_negative_coefficient_or_threshold(field, value):
    """The compatibility coefficients are >= 0 and the threshold > 0: with
    a threshold <= 0 no distance falls below it, so every member would be
    a species of its own."""
    with pytest.raises(ValueError, match=f"{field} must be"):
        EvolutionConfig(**{field: value})


class TestWorldInvariantsThroughout:
    def test_validator_after_every_step(self):
        spec = open_spec(w=10, h=10, food=((Rect(6, 6, 2, 2), 2.0),), seed_cell=(3, 3))
        bundle = generate(spec)
        p = PhysicsParams()
        cfg = default_cfg(t_min=30, t_max=30, p_update=0.5, schedule=((10, DegradeCells(Rect(2, 2, 4, 4), 0.6)),))
        sim = build_simulation(chemotaxis_baseline(), bundle, p, cfg, 11)
        for _ in range(30):
            sim.step()
            sim.world.validate(kappa=p.kappa)
