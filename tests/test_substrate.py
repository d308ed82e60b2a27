"""Grid world: construction, perception extraction, aggregate queries."""

import numpy as np
import pytest

from eincasm.substrate import (
    BASE_CHANNELS,
    CHANNELS,
    GridShape,
    Statics,
    WorldError,
    create_world,
    dilate3x3,
    perceive_cells,
    total_mass,
)


def empty_statics(width, height):
    z = np.zeros((height, width))
    return Statics(z.copy(), z.copy(), z.copy(), z.copy())


def channel_stack(world):
    """(C, H, W) copy of all of a world's channels in perception order."""
    return np.concatenate([np.stack([getattr(world, name) for name in BASE_CHANNELS]), world.hidden])


def make_world(width=8, height=8, k_hidden=4):
    return create_world(GridShape(width, height), empty_statics(width, height), k_hidden)


class TestCreateWorld:
    def test_empty_initialization(self):
        world = make_world(8, 8, k_hidden=4)
        assert total_mass(world) == 0.0
        assert world.hidden.shape == (4, 8, 8)
        world.validate(kappa=1.0)

    def test_statics_copied_and_obstacle_forces_zero_dynamics(self):
        statics = empty_statics(8, 8)
        statics.obstacle[3, 3] = 1.0
        world = create_world(GridShape(8, 8), statics, 2)
        assert world.obstacle[3, 3] == 1.0
        assert world.mass[3, 3] == 0.0
        statics.obstacle[0, 0] = 1.0  # caller's arrays stay decoupled
        assert world.obstacle[0, 0] == 0.0

    def test_min_shape_enforced(self):
        with pytest.raises(WorldError):
            GridShape(2, 8)
        with pytest.raises(WorldError):
            GridShape(8, 2)

    def test_shape_mismatch_rejected(self):
        statics = empty_statics(8, 8)
        statics.food = np.zeros((4, 4))
        with pytest.raises(WorldError):
            create_world(GridShape(8, 8), statics, 2)

    def test_k_hidden_must_be_positive(self):
        with pytest.raises(WorldError):
            create_world(GridShape(8, 8), empty_statics(8, 8), 0)

    def test_world_is_a_member_view_and_copy_owns_its_store(self):
        world = make_world(5, 4, 2)
        world.mass[1, 2] = 0.5
        assert (world.stack.n_members, world.index) == (1, 0)
        copy = world.copy()
        for name in CHANNELS:
            assert np.shares_memory(getattr(world, name), world.stack.store)
            assert not np.shares_memory(getattr(copy, name), world.stack.store)
            np.testing.assert_array_equal(getattr(copy, name), getattr(world, name))
            with pytest.raises(AttributeError):
                setattr(world, name, getattr(world, name).copy())
        copy.mass[1, 2] = 2.0
        assert world.mass[1, 2] == 0.5


class TestPerception:
    def test_length_is_9_channels(self):
        for k in (1, 3, 4):
            world = make_world(5, 5, k)
            vec = perceive_cells(world, np.array([2]), np.array([2]))[0]
            assert vec.shape == (9 * (7 + k),)

    def test_empty_center_is_all_zero(self):
        world = make_world(3, 3, 1)
        assert perceive_cells(world, np.array([1]), np.array([1]))[0].shape == (72,)
        assert not perceive_cells(world, np.array([1]), np.array([1]))[0].any()

    def test_corner_sees_five_virtual_obstacles(self):
        world = make_world(3, 3, 1)
        vec = perceive_cells(world, np.array([0]), np.array([0]))[0]
        c = world.n_channels
        obstacle_flags = vec[0::c]
        # neighbors 0,1,2,3,6 are out of grid for the corner cell (0,0)
        assert list(obstacle_flags) == [1, 1, 1, 1, 0, 0, 1, 0, 0]
        assert vec.sum() == 5.0  # nothing else contributes

    def test_neighbor_slot_arithmetic(self):
        # food at (2,1) seen from (1,1) lands at neighbor index 5, slot F
        world = make_world(4, 4, 1)
        world.food[1, 2] = 0.5
        vec = perceive_cells(world, np.array([1]), np.array([1]))[0]
        c = world.n_channels
        assert vec[5 * c + 2] == 0.5
        mass_entries = vec[4::c]
        assert not mass_entries.any()

    def test_matches_naive_extractor_exhaustively(self):
        """One world, then a three-member stack of it read with no refresh
        call after in-place writes to its statics and after a select."""
        rng = np.random.default_rng(7)
        k = 3

        def randomized(world):
            for name in ("mass", "reservoir", "nutrient"):
                getattr(world, name)[:] = rng.random((4, 5))
                getattr(world, name)[1, 2] = 0.0
            world.hidden[:] = rng.uniform(-1, 1, world.hidden.shape)
            world.hidden[:, 1, 2] = 0.0
            return world

        world = make_world(5, 4, k)
        world.obstacle[1, 2] = 1.0
        for name in ("poison", "food", "chemo"):
            getattr(world, name)[:] = rng.random((4, 5))
        randomized(world)

        def naive(world, x, y):
            chans = channel_stack(world)
            out = []
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nx, ny = x + dx, y + dy
                    if world.shape.contains(nx, ny):
                        out.extend(chans[:, ny, nx])
                    else:
                        out.extend([1.0] + [0.0] * (world.n_channels - 1))
            return np.array(out)

        for y in range(4):
            for x in range(5):
                got = perceive_cells(world, np.array([y]), np.array([x]))[0]
                np.testing.assert_array_equal(got, naive(world, x, y))

        def check(stack):
            members, ys, xs = np.nonzero(np.ones(stack.mass.shape, dtype=bool))
            got = perceive_cells(stack, ys, xs, members)
            for row, (m, y, x) in enumerate(zip(members, ys, xs)):
                np.testing.assert_array_equal(got[row], naive(stack.member(m), x, y))

        stack = world.stack.select([0, 0, 0])
        randomized(stack.member(1))
        randomized(stack.member(2))
        check(stack)
        stack.food[...] = rng.random((4, 5))
        stack.chemo[2, 3] = 7.0
        stack.member(1).poison[0, 0] = 3.0
        check(stack)
        stack = stack.select([2, 0])
        stack.nutrient[0, 3, 4] = 5.0
        stack.hidden[1, 2, 0, 0] = -0.5
        check(stack)

    def test_pure_read(self):
        world = make_world(5, 5, 2)
        world.mass[2, 2] = 1.5
        before = channel_stack(world)
        perceive_cells(world, np.array([0, 4]), np.array([0, 4]))
        np.testing.assert_array_equal(channel_stack(world), before)



class TestTotalMass:
    def test_empty(self):
        assert total_mass(make_world()) == 0.0

    def test_two_cells(self):
        world = make_world()
        world.mass[1, 1] = 2.0
        world.mass[2, 4] = 0.5
        assert total_mass(world) == 2.5

    def test_matches_bruteforce_accumulation(self):
        world = make_world(7, 6)
        world.mass[:] = np.random.default_rng(3).random((6, 7))
        acc = 0.0
        for y in range(6):
            for x in range(7):
                acc += world.mass[y, x]
        assert total_mass(world) == pytest.approx(acc, rel=1e-12)


class TestValidator:
    def test_detects_obstacle_mass(self):
        world = make_world()
        world.obstacle[2, 2] = 1.0
        world.mass[2, 2] = 0.3
        with pytest.raises(WorldError):
            world.validate()

    def test_detects_non_binary_obstacle(self):
        world = make_world()
        world.obstacle[2, 2] = 0.5
        with pytest.raises(WorldError, match="obstacle channel must be binary"):
            world.validate()

    def test_detects_hidden_value_above_one(self):
        world = make_world()
        world.hidden[0, 1, 1] = 1.0 + 1e-6
        with pytest.raises(WorldError, match=r"hidden channels must stay in \[-1, 1\]"):
            world.validate()

    def test_detects_negative_channel(self):
        world = make_world()
        world.nutrient[1, 1] = -0.5
        with pytest.raises(WorldError):
            world.validate()

    def test_detects_reservoir_over_capacity(self):
        world = make_world()
        world.mass[1, 1] = 1.0
        world.reservoir[1, 1] = 3.0
        world.validate(kappa=4.0)
        with pytest.raises(WorldError):
            world.validate(kappa=2.0)


def test_dilate3x3_matches_naive():
    rng = np.random.default_rng(11)
    fp = rng.random((6, 9)) < 0.2
    out = dilate3x3(fp)
    naive = np.zeros_like(fp)
    for y in range(6):
        for x in range(9):
            if fp[y, x]:
                naive[max(0, y - 1) : y + 2, max(0, x - 1) : x + 2] = True
    np.testing.assert_array_equal(out, naive)
