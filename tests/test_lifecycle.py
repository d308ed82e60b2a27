"""Lifecycle pipeline: seeding, stepping, perturbations, fitness."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from eincasm import fluid
from eincasm.config import read_section
from eincasm.cppn import ConnectionGene, empty_genome
from eincasm.environments import EnvSpec, Rect, generate
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
    energy_total,
    label_obstacles,
    run_lifecycle,
    seed_organism,
    validate_schedule,
)
from eincasm.physics import PhysicsParams
from eincasm.substrate import GridShape, Statics, create_world, total_mass


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
        before = sim.world.channel_stack()
        for _ in range(5):
            sim.step()
        np.testing.assert_allclose(sim.world.channel_stack(), before, atol=1e-15)

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
        np.testing.assert_array_equal(a.world.channel_stack(), b.world.channel_stack())

    def test_active_set_is_dilated_footprint(self):
        bundle = generate(open_spec())
        sim = build_simulation(grower_genome(grow=5.0), bundle, PhysicsParams(), default_cfg(seed_nutrient=5.0), 1)
        sim.step()
        grown = np.argwhere(sim.world.mass > 1.0e-12)
        for y, x in grown:
            assert abs(x - 4) <= 1 and abs(y - 4) <= 1  # only the 3x3 around the seed


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
        apply_perturbation(world, RemoveFood(Rect(0, 0, 8, 8)))
        assert world.food.sum() == 0.0

    def test_degrade_cells_full_fraction(self):
        world = make_world()
        world.mass[2:4, 2:4] = 1.0
        apply_perturbation(world, DegradeCells(Rect(2, 2, 2, 2), 1.0))
        assert world.mass.sum() == 0.0

    def test_degrade_scales_reservoir_and_nutrient(self):
        world = make_world()
        world.mass[2, 2] = 1.0
        world.reservoir[2, 2] = 2.0
        world.nutrient[2, 2] = 0.8
        apply_perturbation(world, DegradeCells(Rect(2, 2), 0.25))
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
        apply_perturbation(world, MoveObstacle(1, (1, 0)))
        assert world.obstacle[3, 2] == 0.0
        assert world.obstacle[3, 3] == 1.0 and world.obstacle[3, 4] == 1.0
        assert total_mass(world) == pytest.approx(before - 0.4)
        assert world.nutrient[3, 4] == 0.0
        world.validate()

    def test_schedule_validation_bounds(self):
        ob = np.zeros((8, 8))
        ob[3, 6:8] = 1.0
        world = make_world(obstacles=ob)
        validate_schedule(world, ((2, MoveObstacle(1, (0, 1))),))
        with pytest.raises(LifecycleError):
            validate_schedule(world, ((2, MoveObstacle(1, (1, 0))),))
        with pytest.raises(LifecycleError):
            validate_schedule(world, ((2, MoveObstacle(3, (0, 1))),))
        with pytest.raises(LifecycleError):
            validate_schedule(world, ((2, DegradeCells(Rect(0, 0, 9, 1), 0.5)),))
        with pytest.raises(LifecycleError):
            validate_schedule(world, ((2, DegradeCells(Rect(0, 0, 2, 1), 1.5)),))

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
            validate_schedule(world, schedule)

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
        cfg = default_cfg(n_env_evals=3)
        rec = run_lifecycle(empty_genome(4), open_spec(), PhysicsParams(), cfg, 5)
        assert len(rec.per_env) == 3
        assert rec.fitness == pytest.approx(np.mean([e.mass_curve[-1] for e in rec.per_env]))

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
