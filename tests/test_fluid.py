"""Lattice-Boltzmann fluid and donor-cell scalar transport."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eincasm.fluid import (
    EX,
    EY,
    LIMITER_IDLE_SPEED,
    NEGATIVE_TOL,
    OPPOSITE,
    U_MAX,
    WEIGHTS,
    FluidFailure,
    Lattice,
    Walls,
    advect_scalar,
    macroscopic,
    step,
    uniform_lattice,
    walls_of,
)


def equilibrium(rho, u) -> np.ndarray:
    """Second-order equilibrium distributions for density rho, velocity u:
    the reference the collision is checked against.

    Accepts scalars or grids; returns (9, ...) stacked along a new axis.
    f_eq_i = w_i * rho * (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 |u|^2).
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    ux, uy = u[0], u[1]
    usq = ux * ux + uy * uy
    shape = np.broadcast(rho, ux).shape
    eu = EX.reshape((9,) + (1,) * len(shape)) * ux + EY.reshape((9,) + (1,) * len(shape)) * uy
    return WEIGHTS.reshape((9,) + (1,) * len(shape)) * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)


def closed_box(width, height, tau=0.8, rho0=1.0):
    """A one-member batch at rest in a closed box."""
    return Lattice(uniform_lattice(np.zeros((height, width)))[None] * rho0, tau)


def stable_step(lat, obstacles, sources=None):
    """Step a one-member batch in place by one step that must not fail; no
    sources unless given."""
    assert step(lat, obstacles, np.zeros(lat.f.shape[-2:]) if sources is None else sources) == [None]


def stable_random_lattice(rng, width, height, tau=0.8):
    """Random but physically reasonable state, as a one-member batch:
    equilibrium of a noisy density field with small velocities."""
    rho = 1.0 + 0.1 * rng.random((height, width))
    u = 0.02 * rng.standard_normal((2, height, width))
    return Lattice(equilibrium(rho, u)[None], tau)


class TestEquilibrium:
    def test_rest_state_is_weights(self):
        f = equilibrium(1.0, np.zeros(2))
        np.testing.assert_allclose(f, WEIGHTS, atol=1e-15)
        assert f.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zeroth_moment_identity(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.5, 2.0, (5, 7))
        u = 0.1 * rng.standard_normal((2, 5, 7))
        f = equilibrium(rho, u)
        np.testing.assert_allclose(f.sum(axis=0), rho, rtol=1e-12)

    def test_first_moment_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = rng.uniform(0.5, 2.0, (4, 4))
            u = rng.uniform(-0.1, 0.1, (2, 4, 4))
            f = equilibrium(rho, u)
            mom_x = np.tensordot(EX, f, axes=(0, 0))
            mom_y = np.tensordot(EY, f, axes=(0, 0))
            np.testing.assert_allclose(mom_x, rho * u[0], atol=1e-12)
            np.testing.assert_allclose(mom_y, rho * u[1], atol=1e-12)


class TestMacroscopic:
    def test_uniform_weights(self):
        lat = closed_box(6, 5)
        fields = macroscopic(lat)
        assert (fields.rho.shape, fields.u.shape) == ((1, 5, 6), (1, 2, 5, 6))
        np.testing.assert_allclose(fields.rho, 1.0, atol=1e-15)
        np.testing.assert_allclose(fields.u, 0.0, atol=1e-15)

    def test_single_direction(self):
        f = np.zeros((1, 9, 3, 3))
        f[0, 1] = 1.0
        fields = macroscopic(Lattice(f))
        np.testing.assert_allclose(fields.rho, 1.0)
        np.testing.assert_allclose(fields.u[0, 0], 1.0)
        np.testing.assert_allclose(fields.u[0, 1], 0.0)

    def test_against_naive_loops(self):
        rng = np.random.default_rng(3)
        f = rng.random((9, 4, 5))
        fields = macroscopic(Lattice(f[None]))
        rho_grid, (ux_grid, uy_grid) = fields.rho[0], fields.u[0]
        for y in range(4):
            for x in range(5):
                rho = sum(f[i, y, x] for i in range(9))
                ux = sum(f[i, y, x] * EX[i] for i in range(9)) / rho
                uy = sum(f[i, y, x] * EY[i] for i in range(9)) / rho
                assert rho_grid[y, x] == pytest.approx(rho, rel=1e-12)
                assert ux_grid[y, x] == pytest.approx(ux, rel=1e-12)
                assert uy_grid[y, x] == pytest.approx(uy, rel=1e-12)

    def test_vacuum_velocity_is_zero(self):
        f = np.zeros((1, 9, 3, 3))
        fields = macroscopic(Lattice(f))
        np.testing.assert_array_equal(fields.u, 0.0)


class TestStep:
    def test_equilibrium_fixed_point(self):
        lat = closed_box(8, 8)
        obstacles = np.zeros((8, 8))
        for _ in range(100):
            stable_step(lat, obstacles)
        np.testing.assert_allclose(lat.f, closed_box(8, 8).f, atol=1e-12)

    def test_mass_conserved_in_closed_box(self):
        rng = np.random.default_rng(4)
        lat = stable_random_lattice(rng, 16, 12)
        total0 = lat.f.sum()
        obstacles = np.zeros((12, 16))
        for _ in range(200):
            stable_step(lat, obstacles)
        assert lat.f.sum() == pytest.approx(total0, rel=1e-12)

    def test_injection_ledger(self):
        rng = np.random.default_rng(5)
        lat = closed_box(10, 10)
        obstacles = np.zeros((10, 10))
        for _ in range(20):
            src = 0.05 * rng.standard_normal((10, 10))
            before = lat.f.sum()
            stable_step(lat, obstacles, src)
            assert lat.f.sum() == pytest.approx(before + src.sum(), rel=1e-12, abs=1e-12)

    def test_source_pulse_pushes_outward(self):
        lat = closed_box(11, 11)
        obstacles = np.zeros((11, 11))
        src = np.zeros((11, 11))
        src[5, 5] = 0.1
        stable_step(lat, obstacles, src)
        for _ in range(2):
            stable_step(lat, obstacles)
        u = macroscopic(lat).u[0]
        assert u[0, 5, 6] > 0 and u[0, 5, 4] < 0  # east/west neighbors
        assert u[1, 6, 5] > 0 and u[1, 4, 5] < 0  # south/north (y+) neighbors

    def test_obstacles_hold_no_fluid(self):
        obstacles = np.zeros((8, 8))
        obstacles[3:5, 3:5] = 1.0
        lat = Lattice(uniform_lattice(obstacles)[None])
        for _ in range(50):
            stable_step(lat, obstacles)
            assert not lat.f[:, :, obstacles > 0.5].any()

    def test_bounce_back_conserves_mass_with_obstacles(self):
        rng = np.random.default_rng(6)
        obstacles = np.zeros((12, 12))
        obstacles[4:8, 6] = 1.0
        lat = stable_random_lattice(rng, 12, 12)
        lat.f[:, :, obstacles > 0.5] = 0.0
        total0 = lat.f.sum()
        for _ in range(100):
            stable_step(lat, obstacles)
        assert lat.f.sum() == pytest.approx(total0, rel=1e-12)

    def test_velocity_blowup_detected(self):
        f = equilibrium(1.0, np.zeros(2))[:, None, None] * np.ones((1, 9, 5, 5))
        f[0, 1, 2, 2] += 2.0  # violent momentum spike
        failures = step(Lattice(f), np.zeros((5, 5)), np.zeros((5, 5)))
        assert failures == [FluidFailure("velocity 0.667 exceeds 0.3", 2, 2, None)]

    def test_source_on_obstacle_rejected(self):
        obstacles = np.zeros((5, 5))
        obstacles[2, 2] = 1.0
        lat = Lattice(uniform_lattice(obstacles)[None])
        for value in (0.05, -1e-300, np.nan, np.inf):
            src = np.zeros((5, 5))
            src[2, 2] = value
            with pytest.raises(ValueError, match="zero on obstacle"):
                step(lat, obstacles, src)
            assert lat.f.tobytes() == uniform_lattice(obstacles).tobytes()
        src = np.zeros((5, 5))
        src[2, 2] = -0.0
        signed, unsigned = Lattice(lat.f.copy()), Lattice(lat.f.copy())
        stable_step(signed, obstacles, src)
        stable_step(unsigned, obstacles)
        assert signed.f.tobytes() == unsigned.f.tobytes()

    @pytest.mark.parametrize("fault", ["int64", "read-only"])
    def test_a_lattice_it_cannot_write_in_place_is_refused(self, fault):
        """An unbuffered gather would cast into an int64 f without a word,
        so such a lattice, and a read-only one, raises before anything is
        written."""
        obstacles = np.zeros((4, 5))
        f = uniform_lattice(obstacles)[None]
        if fault == "int64":
            f = (f * 36).astype(np.int64)
        else:
            f.flags.writeable = False
        before = f.tobytes()
        with pytest.raises(ValueError, match="float64" if fault == "int64" else "read-only"):
            step(Lattice(f), obstacles, np.zeros((4, 5)))
        assert f.tobytes() == before

    def test_tau_bound(self):
        with pytest.raises(ValueError, match="tau"):
            Lattice(np.zeros((1, 9, 4, 4)), tau=0.5)

    @pytest.mark.parametrize("shape", [(9, 4, 4), (2, 8, 4, 4), (1, 1, 9, 4, 4)], ids=["single", "eight", "5-d"])
    def test_a_lattice_is_a_batch_of_nine_directions(self, shape):
        """A one-member batch is (1, 9, H, W): a bare (9, H, W) lattice is
        refused, as is any other rank or direction count."""
        with pytest.raises(ValueError, match=r"f must have shape \(P, 9, H, W\)"):
            Lattice(np.zeros(shape))

    @pytest.mark.parametrize("sources, obstacles, match", [
        ((4, 5), (4, 5), r"sources shape \(4, 5\) does not match \(2, 4, 5\)"),
        ((1, 4, 5), (4, 5), r"sources shape \(1, 4, 5\) does not match \(2, 4, 5\)"),
        ((2, 4, 5), (5, 4), r"obstacle layout \(5, 4\) does not match grid \(4, 5\)"),
    ], ids=["bare-grid", "one-grid", "layout"])
    def test_sources_and_layout_of_another_shape_are_refused(self, sources, obstacles, match):
        """A bare (H, W) source grid serves a one-member batch only; a
        two-member batch takes one grid per member, on its own layout.
        Either fault raises before anything is written."""
        rng = np.random.default_rng(12)
        lat = Lattice(np.concatenate([stable_random_lattice(rng, 5, 4).f for _ in range(2)]))
        before = lat.f.tobytes()
        with pytest.raises(ValueError, match=match):
            step(lat, np.zeros(obstacles), np.zeros(sources))
        assert lat.f.tobytes() == before

    def test_a_bare_source_grid_is_the_one_member_grid(self):
        """A one-member batch stepped with (H, W) sources gets the bits it
        gets with the same sources as (1, H, W)."""
        rng = np.random.default_rng(13)
        obstacles = np.zeros((6, 7))
        obstacles[2:4, 3] = 1.0
        f = stable_random_lattice(rng, 7, 6).f
        f[:, :, obstacles > 0.5] = 0.0
        sources = 0.02 * rng.standard_normal((6, 7))
        sources[obstacles > 0.5] = 0.0
        bare, batched = Lattice(f.copy()), Lattice(f.copy())
        for _ in range(5):
            stable_step(bare, obstacles, sources)
            stable_step(batched, obstacles, sources[None])
        assert bare.f.tobytes() == batched.f.tobytes()
        assert bare.f.tobytes() != f.tobytes()


def closed_run(rho, u, tau, steps):
    """Step a one-member batch, fluid started at equilibrium in a closed box
    with no sources, and yield its moments after every step."""
    h, w = rho.shape
    lat = Lattice(equilibrium(rho, u)[None], tau)
    walls, sources = walls_of(np.zeros((h, w))), np.zeros((1, h, w))
    for _ in range(steps):
        assert step(lat, walls, sources) == [None]
        yield macroscopic(lat)


class TestPhysics:
    """The two constants the D2Q9 BGK step stands on, checked as in Krüger
    et al., *The Lattice Boltzmann Method* (Springer, 2017): the kinematic
    viscosity nu = (tau - 1/2) / 3 and the sound speed c_s = 1/sqrt(3)."""

    @pytest.mark.parametrize("tau", [0.6, 0.8, 1.2])
    def test_shear_wave_decays_at_the_viscosity_tau_sets(self, tau):
        """A channel mode ux = U sin(pi (y + 1/2) / H), whose nodes sit on the
        halfway bounce-back walls, decays as exp(-nu k^2 t), k = pi / H. The
        rate is fitted over steps 50-300 in the middle column of a channel
        long enough that its end walls do not reach it."""
        h, w, first, last = 16, 400, 50, 300
        k = np.pi / h
        mode = np.sin(k * (np.arange(h) + 0.5))
        u = np.stack([1e-3 * mode[:, None] * np.ones((h, w)), np.zeros((h, w))])
        amplitudes = [fields.u[0, 0, :, w // 2] @ mode / (mode @ mode)
                      for fields in closed_run(np.ones((h, w)), u, tau, last)][first - 1:]
        rate = -np.polyfit(np.arange(first, last + 1), np.log(amplitudes), 1)[0]
        assert rate == pytest.approx((tau - 0.5) / 3 * k * k, rel=0.01)

    def test_standing_sound_wave_has_the_lattice_sound_speed(self):
        """The fundamental density mode cos(pi (x + 1/2) / W) across a closed
        box swings with period 2 W / c_s: twice the mean spacing of its
        sign changes in the middle row over 500 steps."""
        h, w = 200, 64
        mode = np.cos(np.pi * (np.arange(w) + 0.5) / w)
        rho = 1.0 + 1e-3 * mode * np.ones((h, 1))
        amplitudes = np.array([(fields.rho[0, h // 2] - 1.0) @ mode
                               for fields in closed_run(rho, np.zeros((2, h, w)), 0.8, 500)])
        before = np.flatnonzero(np.sign(amplitudes[:-1]) != np.sign(amplitudes[1:]))
        crossings = before + amplitudes[before] / (amplitudes[before] - amplitudes[before + 1])
        assert len(crossings) >= 4
        assert 2 * np.mean(np.diff(crossings)) == pytest.approx(2 * w * np.sqrt(3), rel=0.015)


def reference_moments(f):
    """rho and u of one (9, H, W) lattice by tensordot over the directions."""
    rho = f.sum(axis=0)
    u = np.stack([np.tensordot(EX, f, axes=(0, 0)), np.tensordot(EY, f, axes=(0, 0))]) / np.maximum(rho, 1e-9)
    u[:, rho < 1e-9] = 0.0
    return rho, u


def reference_step(f, obstacles, sources, tau):
    """Inject, collide with ``equilibrium``, zero obstacle cells, then
    stream by shifting each direction and bouncing blocked populations
    back: the loop form of the gather in ``step``, without its stability
    checks."""
    h, w = obstacles.shape
    solid = obstacles > 0.5
    f = f + WEIGHTS[:, None, None] * sources
    rho, u = reference_moments(f)
    f += (equilibrium(rho, u) - f) / tau
    f[:, solid] = 0.0
    new = np.zeros_like(f)
    new[0] = f[0]
    for i in range(1, 9):
        dx, dy = int(EX[i]), int(EY[i])
        sx = slice(max(0, -dx), w - max(0, dx))
        dxs = slice(max(0, dx), w - max(0, -dx))
        sy = slice(max(0, -dy), h - max(0, dy))
        dys = slice(max(0, dy), h - max(0, -dy))
        blocked = np.ones((h, w), dtype=bool)
        blocked[sy, sx] = solid[dys, dxs]
        new[i][dys, dxs] += np.where(blocked, 0.0, f[i])[sy, sx]  # a mask, not a product: NaN * 0 is NaN
        new[OPPOSITE[i]] += np.where(blocked, f[i], 0.0)
    return new


def reference_failure(f, sources, new):
    """The FluidFailure of one lattice stepped from f to new, or None: its
    fastest cell above U_MAX (NaN skipped), else its first non-finite
    population, else its smallest population below NEGATIVE_TOL."""
    _, u = reference_moments(f + WEIGHTS[:, None, None] * sources)
    speed = np.sqrt(u[0] * u[0] + u[1] * u[1])
    if np.fmax.reduce(speed, axis=None) > U_MAX:
        y, x = np.unravel_index(np.argmax(speed), speed.shape)
        return FluidFailure(f"velocity {speed[y, x]:.3f} exceeds {U_MAX}", int(x), int(y))
    bad = ~np.isfinite(new)
    if bad.any():
        _, y, x = np.unravel_index(np.argmax(bad), bad.shape)
        return FluidFailure("non-finite population", int(x), int(y))
    if new.min() < NEGATIVE_TOL:
        _, y, x = np.unravel_index(np.argmin(new), new.shape)
        return FluidFailure(f"negative population {new.min():.3e}", int(x), int(y))
    return None


FAULTS = ("none", "velocity", "negative", "slightly negative", "nan", "overflow")


def plant(cell, fault):
    """Put a fault into one cell's populations (9,)."""
    if fault == "velocity":
        cell[1] += 2.0  # a momentum spike: |u| > U_MAX
    elif fault == "negative":
        cell[:] = -0.1 * WEIGHTS  # rho < 0 at rest stays negative
    elif fault == "slightly negative":
        cell[:] = -1e-14 * WEIGHTS  # above NEGATIVE_TOL: no failure
    elif fault == "nan":
        cell[3] = np.nan  # NaN velocity, then NaN populations
    elif fault == "overflow":
        cell[:] = 3e307  # rho overflows: +inf populations and no NaN


@settings(max_examples=80, deadline=None)
@given(members=st.sampled_from([None, 1, 2, 5, 16]), w=st.integers(3, 20), h=st.integers(3, 20),
       density=st.sampled_from([0.0, 0.1, 0.4]), tau=st.floats(0.55, 2.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_step_equals_shift_and_bounce_reference(members, w, h, density, tau, seed, data):
    """A batch, or a one-member batch given a bare (H, W) source grid
    (members None), steps to the reference's bits, with populations left
    on obstacle cells and members failing by velocity, negative and
    non-finite populations; failures equal the reference's records, failed
    members come back as stepped, and the moments equal the reference
    moments bit for bit."""
    rng = np.random.default_rng(seed)
    obstacles = (rng.random((h, w)) < density).astype(float)
    solid = obstacles > 0.5
    n = members or 1
    f = np.concatenate([stable_random_lattice(rng, w, h, tau).f for _ in range(n)])
    f[:, :, solid] = WEIGHTS[:, None] * rng.uniform(0.5, 1.5, (n, 1, int(solid.sum())))  # left on obstacles
    sources = 0.02 * rng.standard_normal((n, h, w))
    sources[:, solid] = 0.0
    free = np.argwhere(~solid)
    for p in range(n):
        fault = data.draw(st.sampled_from(FAULTS))
        if fault != "none" and len(free):
            y, x = free[rng.integers(len(free))]
            plant(f[p, :, y, x], fault)
            sources[p, y, x] = 0.0
    lat = Lattice(f.copy(), tau)  # f keeps the reference's input
    for k in range(3):
        with np.errstate(all="ignore"):
            expected = [reference_step(f[p], obstacles, sources[p], tau) for p in range(n)]
            failures = [reference_failure(f[p], sources[p], expected[p]) for p in range(n)]
            got = step(lat, obstacles, sources if members else sources[0])
        assert got == failures
        f = np.stack(expected)
        assert lat.f.tobytes() == f.tobytes()
        with np.errstate(all="ignore"):
            moments = macroscopic(lat)
            reference = [reference_moments(f[p]) for p in range(n)]
        assert moments.rho.tobytes() == np.stack([r for r, _ in reference]).tobytes()
        assert moments.u.tobytes() == np.stack([v for _, v in reference]).tobytes()


def test_walls_free_is_the_read_only_complement_of_solid():
    """``walls_of`` hands one Walls to every caller with the same layout,
    so no caller may write the masks the others read."""
    obstacles = np.zeros((5, 6))
    obstacles[1:3, 2] = 1.0
    walls = walls_of(obstacles)
    np.testing.assert_array_equal(walls.free, obstacles <= 0.5)
    for mask in (walls.solid, walls.free):
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True
    assert walls_of(obstacles.copy()) is walls


def test_walls_derived_arrays_are_read_only():
    """The closed faces are cached with their Walls, so a write to them
    would reach every later simulation on the layout."""
    obstacles = np.zeros((4, 4))
    obstacles[1, 1] = 1.0
    walls = walls_of(obstacles)
    for array in walls.closed_faces:
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert walls_of(obstacles.copy()).closed_faces[0][0] != 5


def batch_of_16(rng, obstacles):
    """A stable 16-member 16x16 batch, empty on obstacles, and small
    sources, zero on obstacles."""
    solid = obstacles > 0.5
    f = np.concatenate([stable_random_lattice(rng, 16, 16).f for _ in range(16)])
    f[:, :, solid] = 0.0
    sources = 0.01 * rng.standard_normal((16, 16, 16))
    sources[:, solid] = 0.0
    return f, sources


def test_a_step_allocates_no_lattice():
    """Warmed up, a step of a 16-member 16x16 batch peaks below one
    (P, H, W) plane beyond numpy's ufunc buffer: it streams into the
    lattice it steps, and its intermediates live in the lattice's own work
    arrays. NumPy runs an operation that broadcasts an operand, or reads
    two in different memory orders, through a buffer of ``np.getbufsize()``
    elements (two planes here), which the collision's broadcasts allocate
    one call at a time. A macroscopic call traced in the same window shows
    that tracemalloc sees numpy's arrays: it peaks at its rho and u at
    least."""
    rng = np.random.default_rng(9)
    obstacles = np.zeros((16, 16))
    obstacles[5:8, 4] = 1.0
    f, sources = batch_of_16(rng, obstacles)
    lat = Lattice(f)
    for _ in range(3):
        step(lat, obstacles, sources)
    plane = lat.f[:, 0].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        failures = step(lat, obstacles, sources)
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        fields = macroscopic(lat)
        moments_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert failures == [None] * 16
    assert step_peak < plane + np.getbufsize() * lat.f.itemsize
    assert moments_peak >= fields.rho.nbytes + fields.u.nbytes == 3 * plane


def test_lattices_keep_their_own_work_arrays():
    """Two lattices of one shape and layout, stepped alternately in one
    thread and then concurrently on two threads, each get the bits they
    get stepped alone."""
    rng = np.random.default_rng(11)
    obstacles = np.zeros((16, 16))
    obstacles[3:6, 9] = 1.0
    walls = walls_of(obstacles)
    starts = [batch_of_16(rng, obstacles) for _ in range(2)]

    def run(lat, sources):
        for _ in range(20):
            assert step(lat, walls, sources) == [None] * 16

    alone = []
    for f, sources in starts:
        lat = Lattice(f.copy())
        run(lat, sources)
        alone.append(lat.f.tobytes())

    pair = [Lattice(f.copy()) for f, _ in starts]
    for _ in range(20):
        for lat, (_, sources) in zip(pair, starts):
            assert step(lat, walls, sources) == [None] * 16
    assert [lat.f.tobytes() for lat in pair] == alone

    pair = [Lattice(f.copy()) for f, _ in starts]
    barrier, errors = threading.Barrier(2, timeout=60), []

    def run_in_thread(lat, sources):
        try:
            barrier.wait()
            run(lat, sources)
        except Exception as exc:  # a thread's failure is otherwise lost
            errors.append(exc)

    threads = [threading.Thread(target=run_in_thread, args=(lat, sources)) for lat, (_, sources) in zip(pair, starts)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between the step's numpy calls too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [lat.f.tobytes() for lat in pair] == alone


def reference_advect_scalar(n, u, obstacles):
    """Donor-cell transport as two ``where`` selections of products per
    face, a limiter built from ``maximum(-flux, 0)`` and an explicit unit
    time step: the form ``advect_scalar`` must reproduce bit for bit."""
    dt = 1.0
    solid = np.asarray(obstacles) > 0.5
    ux, uy = u[..., 0, :, :], u[..., 1, :, :]
    ufx = 0.5 * (ux[..., :, :-1] + ux[..., :, 1:])
    ufy = 0.5 * (uy[..., :-1, :] + uy[..., 1:, :])
    ufx[..., solid[:, :-1] | solid[:, 1:]] = 0.0
    ufy[..., solid[:-1, :] | solid[1:, :]] = 0.0
    flux_x = dt * np.where(ufx > 0, ufx * n[..., :, :-1], ufx * n[..., :, 1:])
    flux_y = dt * np.where(ufy > 0, ufy * n[..., :-1, :], ufy * n[..., 1:, :])
    out = np.zeros_like(n)
    out[..., :, :-1] += np.maximum(flux_x, 0.0)
    out[..., :, 1:] += np.maximum(-flux_x, 0.0)
    out[..., :-1, :] += np.maximum(flux_y, 0.0)
    out[..., 1:, :] += np.maximum(-flux_y, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(out > n, n / np.maximum(out, 1e-300), 1.0)
    flux_x = np.where(flux_x > 0, flux_x * scale[..., :, :-1], flux_x * scale[..., :, 1:])
    flux_y = np.where(flux_y > 0, flux_y * scale[..., :-1, :], flux_y * scale[..., 1:, :])
    result = n.copy()
    result[..., :, :-1] -= flux_x
    result[..., :, 1:] += flux_x
    result[..., :-1, :] -= flux_y
    result[..., 1:, :] += flux_y
    return np.maximum(result, 0.0)


class TestAdvectScalar:
    @settings(max_examples=150, deadline=None)
    @given(batch=st.sampled_from([(), (1,), (3,)]), h=st.integers(3, 9), w=st.integers(3, 9),
           limit=st.sampled_from([0.1, LIMITER_IDLE_SPEED, np.nextafter(LIMITER_IDLE_SPEED, 1.0), 0.5]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bits_equal_where_of_products_reference(self, batch, h, w, limit, seed, data):
        def grid(dtype, shape, elements):
            return data.draw(hnp.arrays(dtype, shape, elements=elements, fill=st.nothing()))

        rng = np.random.default_rng(seed)
        obstacles = grid(bool, (h, w), st.booleans()).astype(float)
        shape = batch + (h, w)
        # each cell: 8 decades up to 1, a small multiple of the smallest
        # subnormal, a value up to about 1e-300, or an exact zero
        kinds = grid(np.int8, shape, st.integers(0, 3))
        n = np.select(
            [kinds == 0, kinds == 1, kinds == 2],
            [rng.random(shape) * 10.0 ** rng.integers(-8, 1, shape),
             rng.integers(1, 64, shape) * 5e-324,
             10.0 ** rng.uniform(-323.0, -300.0, shape)],
            0.0,
        )
        n[..., obstacles > 0.5] = 0.0
        # below, at, just above the limiter's idle bound, or up to the CFL limit
        u = rng.uniform(-limit, limit, batch + (2, h, w))
        edge = grid(bool, u.shape, st.booleans())  # signed zeros and the limit itself
        u[edge] = grid(float, u.shape, st.sampled_from([0.0, -0.0, limit, -limit]))[edge]
        got, failures = advect_scalar(n, u, obstacles)
        assert failures == [None] * (batch[0] if batch else 1)  # |u| = 0.5 is within the CFL bound
        np.testing.assert_array_equal(got.view(np.uint64), reference_advect_scalar(n, u, obstacles).view(np.uint64))

    @pytest.mark.parametrize("center", [(0.0, 0.0), (1.0, 1.0), (-1.0, 0.0)])
    def test_subnormal_donor_at_the_idle_bound(self, center):
        # a subnormal centre cell whose 4 neighbours move away from it at
        # |u| = B: a still centre donates through all 4 faces at B / 2, a
        # moving one at B through the faces it moves toward
        b = LIMITER_IDLE_SPEED
        u = np.zeros((2, 3, 3))
        u[0, 1, 0], u[0, 1, 2], u[1, 0, 1], u[1, 2, 1] = -b, b, -b, b
        u[:, 1, 1] = np.multiply(center, b)
        obstacles = np.zeros((3, 3))
        for k in [1, 2, 3, 4, 5, 7, 9, 13, 64, 2**52]:
            n = np.zeros((3, 3))
            n[1, 1] = k * 5e-324
            got = advect_scalar(n, u, obstacles)[0]
            np.testing.assert_array_equal(got.view(np.uint64), reference_advect_scalar(n, u, obstacles).view(np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(batch=st.integers(2, 4), h=st.integers(3, 9), w=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
    def test_each_member_advects_as_it_does_alone(self, batch, h, w, seed):
        # obstacles, subnormal and zero donors, and speeds up to the CFL
        # limit, above the limiter's idle bound
        rng = np.random.default_rng(seed)
        obstacles = (rng.random((h, w)) < 0.3).astype(float)
        n = rng.random((batch, h, w)) * 10.0 ** rng.integers(-8, 1, (batch, h, w))
        n[rng.random(n.shape) < 0.2] = 0.0
        n[rng.random(n.shape) < 0.1] = 5e-324 * rng.integers(1, 64)
        n[:, obstacles > 0.5] = 0.0
        u = rng.uniform(-0.5, 0.5, (batch, 2, h, w))
        u[rng.random(u.shape) < 0.3] = 0.5
        together = advect_scalar(n, u, obstacles)[0]
        for p in range(batch):
            np.testing.assert_array_equal(
                together[p].view(np.uint64), advect_scalar(n[p], u[p], obstacles)[0].view(np.uint64)
            )

    def test_uniform_x_flow_never_wraps_to_the_next_row(self):
        # every row's last cell is full and flows toward the grid edge:
        # nothing leaves, least of all into the first cell of the next row
        n = np.zeros((2, 4, 6))
        n[..., -1] = [[1.0], [2.0]]
        u = np.zeros((2, 2, 4, 6))
        u[:, 0] = 0.4
        np.testing.assert_array_equal(advect_scalar(n, u, np.zeros((4, 6)))[0], n)

    @settings(max_examples=50, deadline=None)
    @given(h=st.integers(3, 9), w=st.integers(3, 9), data=st.data())
    def test_closed_faces_are_the_2d_masks_and_the_wrap_faces(self, h, w, data):
        solid = data.draw(hnp.arrays(bool, (h, w), elements=st.booleans()))
        closed_x, closed_y = Walls(solid).closed_faces
        x_faces = np.ones((h, w), dtype=bool)  # the last column's x-face wraps
        x_faces[:, :-1] = solid[:, :-1] | solid[:, 1:]
        np.testing.assert_array_equal(closed_x, np.flatnonzero(x_faces.ravel()[:-1]))
        np.testing.assert_array_equal(closed_y, np.flatnonzero(solid[:-1, :] | solid[1:, :]))

    def test_zero_velocity_is_identity(self):
        rng = np.random.default_rng(7)
        n = rng.random((6, 8))
        out = advect_scalar(n, np.zeros((2, 6, 8)), np.zeros((6, 8)))[0]
        np.testing.assert_array_equal(out, n)

    def test_spike_translates_with_uniform_flow(self):
        n = np.zeros((5, 12))
        n[2, 3] = 1.0
        u = np.zeros((2, 5, 12))
        u[0] = 0.2
        for _ in range(5):
            n = advect_scalar(n, u, np.zeros((5, 12)))[0]
        xs = np.arange(12)
        com = (n.sum(axis=0) * xs).sum() / n.sum()
        assert com == pytest.approx(4.0, abs=0.05)

    def test_matches_reference_donor_cell_script(self):
        rng = np.random.default_rng(8)
        h, w = 5, 7
        n = rng.random((h, w))
        obstacles = np.zeros((h, w))
        obstacles[2, 3] = 1.0
        n[2, 3] = 0.0
        u = 0.3 * rng.uniform(-1, 1, (2, h, w))

        def reference(n, u, solid):
            flux_into = np.zeros_like(n)
            flux_out = np.zeros_like(n)
            fx = np.zeros((h, w - 1))
            fy = np.zeros((h - 1, w))
            for y in range(h):
                for x in range(w - 1):
                    if solid[y, x] or solid[y, x + 1]:
                        continue
                    uf = 0.5 * (u[0, y, x] + u[0, y, x + 1])
                    fx[y, x] = uf * (n[y, x] if uf > 0 else n[y, x + 1])
            for y in range(h - 1):
                for x in range(w):
                    if solid[y, x] or solid[y + 1, x]:
                        continue
                    uf = 0.5 * (u[1, y, x] + u[1, y + 1, x])
                    fy[y, x] = uf * (n[y, x] if uf > 0 else n[y + 1, x])
            out = np.zeros_like(n)
            for y in range(h):
                for x in range(w - 1):
                    out[y, x] += max(fx[y, x], 0)
                    out[y, x + 1] += max(-fx[y, x], 0)
            for y in range(h - 1):
                for x in range(w):
                    out[y, x] += max(fy[y, x], 0)
                    out[y + 1, x] += max(-fy[y, x], 0)
            scale = np.where(out > n, n / np.maximum(out, 1e-300), 1.0)
            res = n.copy()
            for y in range(h):
                for x in range(w - 1):
                    f = fx[y, x] * (scale[y, x] if fx[y, x] > 0 else scale[y, x + 1])
                    res[y, x] -= f
                    res[y, x + 1] += f
            for y in range(h - 1):
                for x in range(w):
                    f = fy[y, x] * (scale[y, x] if fy[y, x] > 0 else scale[y + 1, x])
                    res[y, x] -= f
                    res[y + 1, x] += f
            return np.maximum(res, 0.0)

        got = advect_scalar(n, u, obstacles)[0]
        np.testing.assert_allclose(got, reference(n, u, obstacles > 0.5), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(3, 8), w=st.integers(3, 8), data=st.data())
    def test_conservation_and_positivity_fuzzed(self, h, w, data):
        def grid(dtype, shape, elements):
            return data.draw(hnp.arrays(dtype, shape, elements=elements, fill=st.nothing()))

        n = grid(float, (h, w), st.floats(0.0, 1.0)) * grid(bool, (h, w), st.booleans())
        obstacles = grid(bool, (h, w), st.booleans()).astype(float)
        n[obstacles > 0.5] = 0.0
        u = grid(float, (2, h, w), st.floats(-0.5, 0.5))
        out = advect_scalar(n, u, obstacles)[0]
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(n.sum(), rel=1e-12, abs=1e-12)

    def test_a_member_beyond_the_cfl_bound_fails_and_stays_unmoved(self):
        """Only the middle member breaks the bound: it fails at its first
        fastest cell in row-major order and comes back bit for bit, while
        the others, fast enough to need the limiter, advect as they do
        alone. Alone, the middle member fails the same way."""
        rng = np.random.default_rng(11)
        obstacles = np.zeros((5, 6))
        obstacles[2, 3] = 1.0
        n = rng.random((3, 5, 6))
        n[:, obstacles > 0.5] = 0.0
        u = rng.uniform(-0.45, 0.45, (3, 2, 5, 6))
        u[1, 1, 3, 2] = -0.7  # uy at cell (2, 3)
        u[1, 0, 4, 4] = 0.7  # as fast, later in row-major order
        given = u.tobytes()
        failure = FluidFailure("velocity component 0.700 exceeds the CFL bound 0.5", 2, 3)
        together, failures = advect_scalar(n, u, obstacles)
        assert failures == [None, failure, None]
        assert together[1].tobytes() == n[1].tobytes()
        for p in (0, 2):
            alone, none = advect_scalar(n[p], u[p], obstacles)
            assert none == [None] and together[p].tobytes() == alone.tobytes()
        alone, failures = advect_scalar(n[1], u[1], obstacles)
        assert failures == [failure] and alone.tobytes() == n[1].tobytes()
        assert u.tobytes() == given

    def test_no_flux_into_obstacles(self):
        n = np.zeros((3, 5))
        n[1, 1] = 1.0
        obstacles = np.zeros((3, 5))
        obstacles[1, 2] = 1.0
        u = np.zeros((2, 3, 5))
        u[0] = 0.4
        out = advect_scalar(n, u, obstacles)[0]
        assert out[1, 2] == 0.0
        assert out.sum() == pytest.approx(1.0, rel=1e-12)
