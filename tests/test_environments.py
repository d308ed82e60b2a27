"""Arena generation and the chemoattractant field."""

import hashlib
import json
from collections import deque
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eincasm.environments import (
    EnvError,
    EnvSpec,
    Rect,
    arena_chemo,
    chemoattractant_field,
    generate,
    generate_cached,
    reachable_from,
)
from eincasm.cli import resolve_arena
from eincasm.cppn import empty_genome
from eincasm.fileio import read_record, read_value, write_value
from eincasm.harness import coordination_spec, corridor_spec, detour_spec
from eincasm.lifecycle import LifecycleConfig, MoveObstacle, RemoveFood, apply_perturbation, build_simulation
from eincasm.physics import PhysicsParams
from eincasm.substrate import CHANNELS, GridShape


def bfs_reachable(obstacles, start):
    """Independent 8-connected BFS oracle."""
    h, w = obstacles.shape
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and (nx, ny) not in seen and obstacles[ny, nx] < 0.5:
                    seen.add((nx, ny))
                    queue.append((nx, ny))
    return seen


class TestGenerate:
    def test_open_arena(self):
        spec = EnvSpec(
            kind="open_arena",
            shape=GridShape(10, 8),
            food=((Rect(7, 4), 2.0),),
            seed_cell=(2, 2),
        )
        bundle = generate(spec)
        assert not bundle.statics.obstacle.any()
        assert bundle.statics.food[4, 7] == 2.0
        assert bundle.statics.food.sum() == 2.0

    def test_deterministic_in_spec_and_seed(self):
        spec = EnvSpec(
            kind="obstacle_field",
            shape=GridShape(16, 16),
            food=((Rect(13, 13), 3.0),),
            seed=42,
            params=(("density", 0.2),),
        )
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.statics.obstacle, b.statics.obstacle)
        c = generate(replace(spec, seed=43))
        assert (a.statics.obstacle != c.statics.obstacle).any()

    def test_obstacle_field_protects_food_and_seed(self):
        spec = EnvSpec(
            kind="obstacle_field",
            shape=GridShape(20, 20),
            food=((Rect(16, 16, 2, 2), 3.0),),
            seed=7,
            seed_cell=(2, 2),
            params=(("density", 0.25),),
        )
        bundle = generate(spec)
        assert bundle.statics.obstacle[2, 2] == 0.0
        assert not bundle.statics.obstacle[16:18, 16:18].any()

    def test_all_food_reachable_from_seed(self):
        for seed in range(5):
            spec = EnvSpec(
                kind="obstacle_field",
                shape=GridShape(18, 14),
                food=((Rect(15, 11, 2, 2), 3.0),),
                seed=seed,
                seed_cell=(1, 1),
                params=(("density", 0.3),),
            )
            bundle = generate(spec)
            reach = bfs_reachable(bundle.statics.obstacle, (1, 1))
            food_cells = np.argwhere(bundle.statics.food > 0)
            for y, x in food_cells:
                assert (x, y) in reach

    def test_maze_connectivity_bfs_oracle(self):
        for seed in range(4):
            spec = EnvSpec(kind="maze", shape=GridShape(21, 21), seed=seed, params=(("cell_size", 1),))
            bundle = generate(spec)
            assert bundle.start is not None and bundle.goal is not None
            reach = bfs_reachable(bundle.statics.obstacle, (bundle.start.x, bundle.start.y))
            assert (bundle.goal.x, bundle.goal.y) in reach
            # food auto-placed at the goal block
            assert bundle.statics.food[bundle.goal.slices()].max() > 0

    def test_maze_scaled_corridors(self):
        spec = EnvSpec(kind="maze", shape=GridShape(22, 22), seed=1, params=(("cell_size", 2),))
        bundle = generate(spec)
        free = bundle.statics.obstacle[bundle.start.slices()]
        assert free.shape == (2, 2) and not free.any()

    def test_coordination_layout(self):
        spec = EnvSpec(
            kind="coordination",
            shape=GridShape(24, 16),
            seed_cell=(12, 8),
            params=(("cluster_amount", 4.0), ("cluster_offset", 8), ("cluster_radius", 1)),
        )
        bundle = generate(spec)
        assert bundle.cluster_a is not None and bundle.cluster_b is not None
        assert bundle.cluster_a.x < 12 < bundle.cluster_b.x
        assert bundle.statics.food[bundle.cluster_a.slices()].min() == 4.0
        assert bundle.statics.food[bundle.cluster_b.slices()].min() == 4.0

    def test_deceptive_chemo_false_peak(self):
        spec = EnvSpec(
            kind="deceptive_chemo",
            shape=GridShape(20, 20),
            food=((Rect(16, 16), 4.0),),
            seed_cell=(10, 10),
            params=(("false_peak_amplitude", 3.0), ("false_peak", [4, 4])),
        )
        bundle = generate(spec)
        c = bundle.statics.chemo
        assert bundle.statics.food[4, 4] == 0.0
        neighborhood = c[3:6, 3:6]
        assert c[4, 4] == neighborhood.max()  # local maximum at a food-free cell
        assert c[4, 4] == 3.0

    def test_unsatisfiable_spec_errors(self):
        spec = EnvSpec(kind="open_arena", shape=GridShape(8, 8), food=((Rect(9, 1), 2.0),))
        with pytest.raises(EnvError):
            generate(spec)
        with pytest.raises(EnvError):
            generate(EnvSpec(kind="nope", shape=GridShape(8, 8)))
        with pytest.raises(EnvError):
            generate(EnvSpec(kind="open_arena", shape=GridShape(8, 8), food=((Rect(1, 1), -2.0),)))

    @pytest.mark.parametrize("kind, params", [
        ("open_arena", ()),
        ("obstacle_field", (("density", 0.2),)),
        ("coordination", ()),
    ])
    def test_fixed_obstacles_placed(self, kind, params):
        rects = (Rect(12, 1, 1, 3), Rect(2, 12, 3, 1))
        spec = EnvSpec(kind=kind, shape=GridShape(24, 16), seed=3, seed_cell=(12, 8), obstacles=rects, params=params)
        bundle = generate(spec)
        for rect in rects:
            assert bundle.statics.obstacle[rect.slices()].all()
            assert not bundle.statics.chemo[rect.slices()].any()
        if kind != "obstacle_field":
            assert bundle.statics.obstacle.sum() == 6

    @pytest.mark.parametrize("rect, match", [
        (Rect(9, 0, 2, 1), "out of bounds"),
        (Rect(1, 1, 3, 3), "seed cell"),
        (Rect(5, 0, 1, 8), "unreachable"),
    ])
    def test_bad_fixed_obstacle_rejected(self, rect, match):
        spec = EnvSpec(
            kind="open_arena", shape=GridShape(10, 8), food=((Rect(7, 4), 2.0),), seed_cell=(2, 2), obstacles=(rect,)
        )
        with pytest.raises(EnvError, match=match):
            generate(spec)

    def test_unread_param_rejected(self):
        spec = EnvSpec(kind="open_arena", shape=GridShape(8, 8), params=(("bar", [4, 2, 1, 5]),))
        with pytest.raises(EnvError, match="'bar'"):
            generate(spec)
        with pytest.raises(EnvError, match="'density'"):
            generate(EnvSpec(kind="maze", shape=GridShape(21, 21), params=(("density", 0.1),)))

    def test_goal_param_overrides_kind_goal(self):
        assert generate(EnvSpec(kind="open_arena", shape=GridShape(8, 8))).goal is None
        maze = EnvSpec(kind="maze", shape=GridShape(21, 21), params=(("cell_size", 1),))
        assert generate(maze).goal == Rect(19, 19)  # the far corner cell
        goal = Rect(1, 3, 1, 1)
        assert generate(replace(maze, params=maze.params + (("goal", astuple(goal)),))).goal == goal
        with pytest.raises(EnvError, match="goal"):
            generate(replace(maze, params=(("goal", [20, 20, 2, 2]),)))

    def test_seed_cell_on_obstacle_rejected(self):
        spec = EnvSpec(kind="maze", shape=GridShape(21, 21), seed=0, seed_cell=(0, 0), params=(("cell_size", 1),))
        with pytest.raises(EnvError):
            generate(spec)  # maze border is wall


def bundle_digest(bundle) -> str:
    """sha256 over a bundle's four statics and its marks."""
    digest = hashlib.sha256()
    for array in bundle.statics.arrays():
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    marks = (bundle.seed_cell, bundle.start, bundle.goal, bundle.cluster_a, bundle.cluster_b)
    digest.update(repr(marks).encode())
    return digest.hexdigest()


#: One arena of every kind whose statics are plain arithmetic (the
#: deceptive cone uses ``**``, which is the platform's pow), with fixed
#: walls and poison where the kind allows them, and the harness arenas.
PINNED_ARENAS = {
    "open": EnvSpec(kind="open_arena", shape=GridShape(12, 10), food=((Rect(8, 6, 2, 2), 3.0),),
                    poison=((Rect(2, 7, 2, 1), 1.5),), obstacles=(Rect(5, 2, 1, 5),), seed_cell=(2, 3)),
    "obstacle_field": EnvSpec(kind="obstacle_field", shape=GridShape(16, 14), food=((Rect(12, 10, 2, 2), 3.0),),
                              poison=((Rect(3, 10, 3, 2), 1.0),), obstacles=(Rect(8, 0, 1, 4),),
                              params=(("density", 0.3),)),
    "maze-1": EnvSpec(kind="maze", shape=GridShape(15, 13), params=(("cell_size", 1),)),
    "maze-2": EnvSpec(kind="maze", shape=GridShape(22, 18), chemo_iters=40, params=(("cell_size", 2),)),
    "coordination": EnvSpec(kind="coordination", shape=GridShape(20, 12), poison=((Rect(9, 1, 2, 1), 0.5),),
                            obstacles=(Rect(10, 8, 1, 3),), params=(("cluster_offset", 6),)),
    "corridor": corridor_spec(),
    "detour": detour_spec(),
    "harness-coordination": coordination_spec(),
}

#: bundle_digest of each pinned arena at two seeds, recorded when every
#: kind still had a generator of its own.
ARENA_DIGESTS = {
    ("open", 0): "9e027ab5cc108debb6875a8370239ee832d9dd4d482579b01ce15998e5cde796",
    ("open", 3): "9e027ab5cc108debb6875a8370239ee832d9dd4d482579b01ce15998e5cde796",
    ("obstacle_field", 0): "40d6c9c1da25d8715bcf1a6cbb1099a4136466f4b545825a3c6c6de017d174aa",
    ("obstacle_field", 3): "375d4eb1376fc8f367e8de8b40b8c04422aff5b3f31bfee4c94ca1b0df658163",
    ("maze-1", 0): "6ff3df6dd9574eac72359db46b1be6be678192770b62841d0d9880d493f39692",
    ("maze-1", 3): "8ec24b2a45092255472c78e6c9807760531dbe7d758df87e3deab1a25f82f75e",
    ("maze-2", 0): "db0d0851300edc387dd36357be7f56349e10b488d4c23ad8a9f502fd85301eb9",
    ("maze-2", 3): "6dd78c7243a6f97e56088e5199162a1b713504155516c89c89e04aa417102acf",
    ("coordination", 0): "082cdcc4c585245e00acca620cdab70d5d55f449583b9bc1585800def6b7011b",
    ("coordination", 3): "082cdcc4c585245e00acca620cdab70d5d55f449583b9bc1585800def6b7011b",
    ("corridor", 0): "859202451a01edd2ea436402810040373786f82aaaf181f75c398962632b2306",
    ("corridor", 3): "859202451a01edd2ea436402810040373786f82aaaf181f75c398962632b2306",
    ("detour", 0): "1c31e6045c9fc9263f2cc47a189d266256e30644a0e727ccac9d07cfe231600b",
    ("detour", 3): "1c31e6045c9fc9263f2cc47a189d266256e30644a0e727ccac9d07cfe231600b",
    ("harness-coordination", 0): "3e5559a8859181a649cf64d4923320c48c6e4da547a8ab3eea62543f99a53e9f",
    ("harness-coordination", 3): "3e5559a8859181a649cf64d4923320c48c6e4da547a8ab3eea62543f99a53e9f",
}


@pytest.mark.parametrize("name, seed", sorted(ARENA_DIGESTS), ids=lambda v: str(v))
def test_generated_statics_and_marks_are_pinned(name, seed):
    assert bundle_digest(generate(replace(PINNED_ARENAS[name], seed=seed))) == ARENA_DIGESTS[(name, seed)]


# Messages of failing specs, recorded as ARENA_DIGESTS were.
@pytest.mark.parametrize("spec, message", [
    (EnvSpec(kind="obstacle_field", shape=GridShape(16, 16), food=((Rect(14, 14), 1.0),), params=(("density", 0.9),)),
     "could not place obstacles without cutting off food (100 attempts)"),
    (EnvSpec(kind="open_arena", shape=GridShape(10, 8), food=((Rect(7, 4), 2.0),), seed_cell=(2, 2),
             obstacles=(Rect(5, 0, 1, 8),)),
     "some food is unreachable from the organism seed cell"),
    (EnvSpec(kind="maze", shape=GridShape(21, 21), seed_cell=(0, 0), params=(("cell_size", 1),)),
     "organism seed cell (0, 0) is blocked or out of bounds"),
    (EnvSpec(kind="maze", shape=GridShape(12, 12), params=(("cell_size", 3),)),
     "grid 12x12 too small for a maze with cell_size 3"),
    (EnvSpec(kind="coordination", shape=GridShape(12, 8), params=(("cluster_offset", 6),)),
     "coordination cluster A Rect(x=-1, y=3, w=3, h=3) out of bounds"),
    (EnvSpec(kind="open_arena", shape=GridShape(8, 8), food=((Rect(1, 1, 2, 2), 2.0),), obstacles=(Rect(0, 0, 4, 4),)),
     "food region Rect(x=1, y=1, w=2, h=2) lies entirely inside obstacles"),
    (EnvSpec(kind="open_arena", shape=GridShape(8, 8), obstacles=(Rect(6, 6, 3, 1),)),
     "obstacle Rect(x=6, y=6, w=3, h=1) out of bounds"),
    (EnvSpec(kind="open_arena", shape=GridShape(8, 8), poison=((Rect(1, 1), 0.0),)),
     "poison amount must be positive, got 0.0"),
    (EnvSpec(kind="deceptive_chemo", shape=GridShape(16, 16), food=((Rect(3, 3), 2.0),),
             params=(("false_peak", [3, 3]),)),
     "false peak (3, 3) must sit on a food-free cell"),
    (EnvSpec(kind="deceptive_chemo", shape=GridShape(16, 16), params=(("false_peak_amplitude", 0.0),)),
     "false peak amplitude must be positive, got 0.0"),
    (EnvSpec(kind="obstacle_field", shape=GridShape(16, 16), params=(("density", 1.0),)),
     "obstacle density must lie in [0, 1), got 1.0"),
    (EnvSpec(kind="open_arena", shape=GridShape(8, 8), params=(("goal", [7, 7, 2, 1]),)),
     "goal Rect(x=7, y=7, w=2, h=1) out of bounds"),
    (EnvSpec(kind="open_arena", shape=GridShape(8, 8), chemo_decay=1.0), "chemo_decay must lie in (0, 1), got 1.0"),
])
def test_failing_spec_messages_are_pinned(spec, message):
    with pytest.raises(EnvError) as caught:
        generate(spec)
    assert str(caught.value) == message


@pytest.mark.parametrize("event", [RemoveFood(Rect(12, 3)), MoveObstacle(1, (1, 0))], ids=lambda e: e.kind)
def test_deceptive_false_peak_survives_perturbations(event):
    """The simulation recomputes the chemoattractant by the arena's own
    rule, so a deceptive arena keeps its false peak after food or an
    obstacle changes."""
    food = ((Rect(12, 12, 2, 2), 4.0), (Rect(12, 3), 4.0))
    spec = EnvSpec(kind="deceptive_chemo", shape=GridShape(16, 16), food=food,
                   obstacles=(Rect(8, 10, 1, 2),), seed_cell=(8, 8), params=(("false_peak", [3, 3]),))
    cfg = LifecycleConfig(t_min=2, t_max=2, p_update=1.0, schedule=((0, event),))
    sim = build_simulation(empty_genome(4), generate(spec), PhysicsParams(), cfg, 1)
    assert sim.world.chemo[3, 3] == 2.0
    fired = apply_perturbation(sim.world.copy().stack, event)
    sim.step()
    world = sim.world
    for static in ("food", "obstacle"):  # the event fired after step 0
        np.testing.assert_array_equal(getattr(world, static), getattr(fired, static))
    np.testing.assert_array_equal(world.chemo, arena_chemo(spec, world.food, world.obstacle))
    assert world.chemo[3, 3] == 2.0


def reference_chemoattractant_field(food, obstacles, n_iters, decay):
    """The field as eight NaN-marked shifts per iteration: the form the
    one-gather ``chemoattractant_field`` must reproduce bit for bit."""
    solid = np.asarray(obstacles) > 0.5
    f = np.where(solid, 0.0, np.asarray(food, dtype=np.float64))
    c = f.copy()
    h, w = c.shape
    offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]
    for _ in range(n_iters):
        acc = np.zeros_like(c)
        for dx, dy in offsets:
            shifted = np.full_like(c, np.nan)
            sx = slice(max(0, -dx), w - max(0, dx))
            dxs = slice(max(0, dx), w - max(0, -dx))
            sy = slice(max(0, -dy), h - max(0, dy))
            dys = slice(max(0, dy), h - max(0, -dy))
            shifted[sy, sx] = np.where(solid[dys, dxs], np.nan, c[dys, dxs])
            acc += np.where(np.isnan(shifted), c, shifted)
        c = np.maximum(f, decay * (acc / 8.0))
        c[solid] = 0.0
    return c


class TestChemoattractant:
    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(3, 12), w=st.integers(3, 12), n_iters=st.integers(1, 40),
           decay=st.floats(0.01, 0.99), data=st.data())
    def test_bits_equal_shift_reference(self, h, w, n_iters, decay, data):
        def grid(dtype, elements):
            return data.draw(hnp.arrays(dtype, (h, w), elements=elements, fill=st.nothing()))

        obstacles = grid(bool, st.booleans()).astype(float)
        food = grid(float, st.floats(0.0, 10.0)) * grid(bool, st.booleans())
        got = chemoattractant_field(food, obstacles, n_iters, decay)
        expected = reference_chemoattractant_field(food, obstacles, n_iters, decay)
        assert got.shape == (h, w)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_no_food_no_field(self):
        c = chemoattractant_field(np.zeros((6, 6)), np.zeros((6, 6)), 10, 0.9)
        assert not c.any()

    def test_ring_means_decrease_from_single_source(self):
        f = np.zeros((15, 15))
        f[7, 7] = 4.0
        c = chemoattractant_field(f, np.zeros((15, 15)), 60, 0.9)
        yy, xx = np.mgrid[0:15, 0:15]
        cheb = np.maximum(np.abs(xx - 7), np.abs(yy - 7))
        means = [c[cheb == k].mean() for k in range(8)]
        assert all(means[k] > means[k + 1] for k in range(7))

    def test_matches_direct_iteration_oracle(self):
        rng = np.random.default_rng(3)
        f = rng.random((7, 8)) * (rng.random((7, 8)) < 0.15)
        solid = (rng.random((7, 8)) < 0.12)
        f[solid] = 0.0

        def oracle(f, solid, iters, decay):
            h, w = f.shape
            c = f.copy()
            for _ in range(iters):
                new = np.zeros_like(c)
                for y in range(h):
                    for x in range(w):
                        if solid[y, x]:
                            continue
                        acc = 0.0
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                if (dx, dy) == (0, 0):
                                    continue
                                ny, nx = y + dy, x + dx
                                if 0 <= ny < h and 0 <= nx < w and not solid[ny, nx]:
                                    acc += c[ny, nx]
                                else:
                                    acc += c[y, x]  # zero-flux mirror
                        new[y, x] = max(f[y, x], decay * acc / 8.0)
                c = new
            return c

        got = chemoattractant_field(f, solid.astype(float), 9, 0.9)
        np.testing.assert_allclose(got, oracle(f, solid, 9, 0.9), atol=1e-12)

    def test_enclosed_food_leaks_nothing(self):
        f = np.zeros((9, 9))
        f[4, 4] = 5.0
        solid = np.zeros((9, 9))
        solid[3:6, 3] = solid[3:6, 5] = 1.0
        solid[3, 3:6] = solid[5, 3:6] = 1.0
        c = chemoattractant_field(f, solid, 40, 0.9)
        outside = np.ones((9, 9), dtype=bool)
        outside[3:6, 3:6] = False
        assert not c[outside].any()
        assert c[4, 4] == 5.0

    def test_parameter_validation(self):
        with pytest.raises(EnvError):
            chemoattractant_field(np.zeros((4, 4)), np.zeros((4, 4)), 0, 0.9)
        with pytest.raises(EnvError):
            chemoattractant_field(np.zeros((4, 4)), np.zeros((4, 4)), 5, 1.0)


def test_reachable_from_matches_bfs():
    rng = np.random.default_rng(5)
    solid = (rng.random((10, 12)) < 0.3).astype(float)
    solid[4, 6] = 0.0
    mask = reachable_from(solid, 6, 4)
    oracle = bfs_reachable(solid, (6, 4))
    got = {(x, y) for y, x in np.argwhere(mask)}
    assert got == oracle


def test_envspec_json_round_trip():
    spec = EnvSpec(
        kind="coordination",
        shape=GridShape(24, 16),
        food=((Rect(1, 2, 3, 4), 2.5),),
        poison=((Rect(5, 5), 1.0),),
        obstacles=(Rect(2, 10, 4, 1), Rect(20, 3)),
        seed=9,
        seed_cell=(12, 8),
        chemo_decay=0.95,
        chemo_iters=64,
        params=(("cluster_amount", 4.0),),
    )
    again = read_value("environment", json.loads(json.dumps(write_value(spec))), EnvSpec)
    assert again == spec
    old = write_value(spec)
    del old["obstacles"]  # a spec written before fixed obstacles existed
    assert read_record(EnvSpec, old, "environment") == replace(spec, obstacles=())


@pytest.mark.parametrize(
    "change",
    [
        {"kind": 5},
        {"shape": [16.5, 16]},
        {"shape": [16, True]},
        {"seed": 2.7},
        {"seed": None},
        {"seed": -1},
        {"chemo_iters": -5},
        {"chemo_decay": "0.5"},
        {"chemo_iters": 32.0},
        {"food": [[[1, 1, 1.5, 1], 2.0]]},
        {"food": [[[1, 1, 1, 1], "2"]]},
        {"food": [[[1, 1, 1, 1], 10**400]]},
        {"seed_cell": [4.5, 4]},
        {"seed_cell": [4, 4, 4]},
        {"shap": [8, 8]},
        {"kind": "maze", "params": {"cell_size": 1.9}},
        {"kind": "obstacle_field", "params": {"density": "0.2"}},
        {"kind": "coordination", "shape": [24, 16], "params": {"cluster_offset": 8.5}},
        {"kind": "deceptive_chemo", "params": {"false_peak": [2.5, 3]}},
        {"kind": "deceptive_chemo", "params": {"false_peak": [-1, 3]}},
        {"kind": "obstacle_field", "seed_cell": [40, 3]},
        {"kind": "obstacle_field", "seed_cell": [-1, 3]},
    ],
    ids=[
        "kind-5", "shape-16.5", "shape-true", "seed-2.7", "seed-null", "seed-negative", "chemo_iters-negative",
        "chemo_decay-string", "chemo_iters-32.0",
        "food-rect-1.5", "food-amount-string", "food-amount-1e400", "seed_cell-4.5", "seed_cell-triple",
        "unknown-key", "cell_size-1.9", "density-string", "cluster_offset-8.5", "false_peak-2.5",
        "false_peak-off-grid", "obstacle_field-seed_cell-40", "obstacle_field-seed_cell-negative",
    ],
)
def test_malformed_spec_rejected(tmp_path, change):
    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps({"kind": "open_arena", "shape": [16, 16], **change}))
    with pytest.raises(EnvError):
        generate(resolve_arena(str(arena)))


def test_generate_cached_shares_read_only_statics():
    spec = EnvSpec(kind="open_arena", shape=GridShape(8, 8), food=((Rect(5, 5), 2.0),), seed_cell=(2, 2))
    a, b = generate_cached(spec), generate_cached(spec)
    assert a is not b and a.statics is not b.statics
    for array, again in zip(a.statics.arrays(), b.statics.arrays()):
        assert array is again
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    cfg = LifecycleConfig(t_min=2, t_max=2)
    sims = [build_simulation(empty_genome(4), generate_cached(spec), PhysicsParams(), cfg, 1) for _ in range(2)]
    worlds = [sim.world for sim in sims]
    for name in CHANNELS:
        assert not np.shares_memory(getattr(worlds[0], name), getattr(worlds[1], name))
        for array in a.statics.arrays():
            assert not np.shares_memory(getattr(worlds[0], name), array)


def test_list_params_are_kept_as_tuples_so_any_spec_caches():
    spec = read_record(EnvSpec, {"kind": "deceptive_chemo", "shape": [16, 16], "params": {"false_peak": [3, 3]}}, "env")
    assert spec.param("false_peak") == (3, 3)
    assert json.dumps(write_value(spec)["params"]) == '{"false_peak": [3, 3]}'
    assert generate_cached(spec).statics.chemo[3, 3] == 2.0
    assert generate_cached(corridor_spec()).goal == Rect(16, 1, 2, 3)
