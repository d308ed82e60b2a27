"""Lattice-Boltzmann fluid and donor-cell scalar transport."""

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
    equilibrium,
    macroscopic,
    step,
    uniform_lattice,
    walls_of,
)


def closed_box(width, height, tau=0.8, rho0=1.0):
    return uniform_lattice(width, height, np.zeros((height, width)), rho0=rho0, tau=tau)


def stable_step(lat, obstacles, sources=None):
    """One step of a single lattice that must not fail; no sources unless
    given."""
    lat, failures = step(lat, obstacles, np.zeros(lat.f.shape[-2:]) if sources is None else sources)
    assert failures == [None]
    return lat


def stable_random_lattice(rng, width, height, tau=0.8):
    """Random but physically reasonable state: equilibrium of a noisy
    density field with small velocities."""
    rho = 1.0 + 0.1 * rng.random((height, width))
    u = 0.02 * rng.standard_normal((2, height, width))
    return Lattice(equilibrium(rho, u), tau)


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
        np.testing.assert_allclose(fields.rho, 1.0, atol=1e-15)
        np.testing.assert_allclose(fields.u, 0.0, atol=1e-15)

    def test_single_direction(self):
        f = np.zeros((9, 3, 3))
        f[1] = 1.0
        fields = macroscopic(Lattice(f))
        np.testing.assert_allclose(fields.rho, 1.0)
        np.testing.assert_allclose(fields.u[0], 1.0)
        np.testing.assert_allclose(fields.u[1], 0.0)

    def test_against_naive_loops(self):
        rng = np.random.default_rng(3)
        f = rng.random((9, 4, 5))
        fields = macroscopic(Lattice(f))
        for y in range(4):
            for x in range(5):
                rho = sum(f[i, y, x] for i in range(9))
                ux = sum(f[i, y, x] * EX[i] for i in range(9)) / rho
                uy = sum(f[i, y, x] * EY[i] for i in range(9)) / rho
                assert fields.rho[y, x] == pytest.approx(rho, rel=1e-12)
                assert fields.u[0, y, x] == pytest.approx(ux, rel=1e-12)
                assert fields.u[1, y, x] == pytest.approx(uy, rel=1e-12)

    def test_vacuum_velocity_is_zero(self):
        f = np.zeros((9, 3, 3))
        fields = macroscopic(Lattice(f))
        np.testing.assert_array_equal(fields.u, 0.0)


class TestStep:
    def test_equilibrium_fixed_point(self):
        lat = closed_box(8, 8)
        obstacles = np.zeros((8, 8))
        for _ in range(100):
            lat = stable_step(lat, obstacles)
        np.testing.assert_allclose(lat.f, closed_box(8, 8).f, atol=1e-12)

    def test_mass_conserved_in_closed_box(self):
        rng = np.random.default_rng(4)
        lat = stable_random_lattice(rng, 16, 12)
        total0 = lat.f.sum()
        obstacles = np.zeros((12, 16))
        for _ in range(200):
            lat = stable_step(lat, obstacles)
        assert lat.f.sum() == pytest.approx(total0, rel=1e-12)

    def test_injection_ledger(self):
        rng = np.random.default_rng(5)
        lat = closed_box(10, 10)
        obstacles = np.zeros((10, 10))
        for _ in range(20):
            src = 0.05 * rng.standard_normal((10, 10))
            before = lat.f.sum()
            lat = stable_step(lat, obstacles, src)
            assert lat.f.sum() == pytest.approx(before + src.sum(), rel=1e-12, abs=1e-12)

    def test_source_pulse_pushes_outward(self):
        lat = closed_box(11, 11)
        obstacles = np.zeros((11, 11))
        src = np.zeros((11, 11))
        src[5, 5] = 0.1
        lat = stable_step(lat, obstacles, src)
        for _ in range(2):
            lat = stable_step(lat, obstacles)
        u = macroscopic(lat).u
        assert u[0, 5, 6] > 0 and u[0, 5, 4] < 0  # east/west neighbors
        assert u[1, 6, 5] > 0 and u[1, 4, 5] < 0  # south/north (y+) neighbors

    def test_obstacles_hold_no_fluid(self):
        obstacles = np.zeros((8, 8))
        obstacles[3:5, 3:5] = 1.0
        lat = uniform_lattice(8, 8, obstacles)
        for _ in range(50):
            lat = stable_step(lat, obstacles)
            assert not lat.f[:, obstacles > 0.5].any()

    def test_bounce_back_conserves_mass_with_obstacles(self):
        rng = np.random.default_rng(6)
        obstacles = np.zeros((12, 12))
        obstacles[4:8, 6] = 1.0
        lat = stable_random_lattice(rng, 12, 12)
        lat.f[:, obstacles > 0.5] = 0.0
        total0 = lat.f.sum()
        for _ in range(100):
            lat = stable_step(lat, obstacles)
        assert lat.f.sum() == pytest.approx(total0, rel=1e-12)

    def test_velocity_blowup_detected(self):
        f = equilibrium(1.0, np.zeros(2))[:, None, None] * np.ones((9, 5, 5))
        f[1, 2, 2] += 2.0  # violent momentum spike
        stepped, failures = step(Lattice(f), np.zeros((5, 5)), np.zeros((5, 5)), step_index=7)
        assert failures == [FluidFailure("velocity 0.667 exceeds 0.3", 2, 2, 7)]
        assert stepped.f.tobytes() == f.tobytes()  # a failed lattice comes back unchanged

    def test_source_on_obstacle_rejected(self):
        obstacles = np.zeros((5, 5))
        obstacles[2, 2] = 1.0
        lat = uniform_lattice(5, 5, obstacles)
        for value in (0.05, -1e-300, np.nan, np.inf):
            src = np.zeros((5, 5))
            src[2, 2] = value
            with pytest.raises(ValueError, match="zero on obstacle"):
                step(lat, obstacles, src)
        src = np.zeros((5, 5))
        src[2, 2] = -0.0
        assert stable_step(lat, obstacles, src).f.tobytes() == stable_step(lat, obstacles).f.tobytes()

    def test_tau_bound(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((9, 4, 4)), tau=0.5)


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
        new[i][dys, dxs] += (f[i] * ~blocked)[sy, sx]
        new[OPPOSITE[i]] += f[i] * blocked
    return new


def reference_failure(f, sources, new, step_index):
    """The FluidFailure of one lattice stepped from f to new, or None: its
    fastest cell above U_MAX (NaN skipped), else its first non-finite
    population, else its smallest population below NEGATIVE_TOL."""
    _, u = reference_moments(f + WEIGHTS[:, None, None] * sources)
    speed = np.sqrt(u[0] * u[0] + u[1] * u[1])
    if np.fmax.reduce(speed, axis=None) > U_MAX:
        y, x = np.unravel_index(np.argmax(speed), speed.shape)
        return FluidFailure(f"velocity {speed[y, x]:.3f} exceeds {U_MAX}", int(x), int(y), step_index)
    bad = ~np.isfinite(new)
    if bad.any():
        _, y, x = np.unravel_index(np.argmax(bad), bad.shape)
        return FluidFailure("non-finite population", int(x), int(y), step_index)
    if new.min() < NEGATIVE_TOL:
        _, y, x = np.unravel_index(np.argmin(new), new.shape)
        return FluidFailure(f"negative population {new.min():.3e}", int(x), int(y), step_index)
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
    """A single lattice (members None) or a batch steps to the reference's
    bits, with populations left on obstacle cells and members failing by
    velocity, negative and non-finite populations; failures equal the
    reference's records, failed members keep their populations, and the
    moments equal the reference moments bit for bit."""
    rng = np.random.default_rng(seed)
    obstacles = (rng.random((h, w)) < density).astype(float)
    solid = obstacles > 0.5
    n = members or 1
    f = np.stack([stable_random_lattice(rng, w, h, tau).f for _ in range(n)])
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
    lat = Lattice(f if members else f[0], tau)
    for k in range(3):
        with np.errstate(all="ignore"):
            expected = [reference_step(f[p], obstacles, sources[p], tau) for p in range(n)]
            failures = [reference_failure(f[p], sources[p], expected[p], k) for p in range(n)]
            lat, got = step(lat, obstacles, sources if members else sources[0], step_index=k)
        assert got == failures
        expected = np.stack([f[p] if failures[p] else expected[p] for p in range(n)])
        assert lat.f.tobytes() == (expected if members else expected[0]).tobytes()
        f = expected
        with np.errstate(all="ignore"):
            moments = macroscopic(lat)
            reference = [reference_moments(f[p]) for p in range(n)]
        rho, u = (moments.rho, moments.u) if members else (moments.rho[None], moments.u[None])
        assert rho.tobytes() == np.stack([r for r, _ in reference]).tobytes()
        assert u.tobytes() == np.stack([v for _, v in reference]).tobytes()


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
    """The stream gather and the closed faces are cached with their Walls,
    so a write to them would reach every later simulation on the layout."""
    obstacles = np.zeros((4, 4))
    obstacles[1, 1] = 1.0
    walls = walls_of(obstacles)
    for array in (walls.stream_gather, *walls.closed_faces):
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert walls_of(obstacles.copy()).stream_gather[0] != 5


def test_step_allocates_only_the_lattice_it_returns():
    """Warmed up, a step of a 16-member 16x16 batch peaks at its returned
    lattice plus less than two (P, H, W) planes of other allocations: its
    intermediates live in reused work arrays."""
    rng = np.random.default_rng(9)
    obstacles = np.zeros((16, 16))
    obstacles[5:8, 4] = 1.0
    f = np.stack([stable_random_lattice(rng, 16, 16).f for _ in range(16)])
    f[:, :, obstacles > 0.5] = 0.0
    sources = 0.01 * rng.standard_normal((16, 16, 16))
    sources[:, obstacles > 0.5] = 0.0
    lat = Lattice(f)
    for _ in range(3):
        lat, _ = step(lat, obstacles, sources)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stepped, failures = step(lat, obstacles, sources)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert failures == [None] * 16
    assert stepped.f.nbytes <= peak < 1.2 * stepped.f.nbytes


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
        got = advect_scalar(n, u, obstacles)
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
            np.testing.assert_array_equal(
                advect_scalar(n, u, obstacles).view(np.uint64), reference_advect_scalar(n, u, obstacles).view(np.uint64)
            )

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
        together = advect_scalar(n, u, obstacles)
        for p in range(batch):
            np.testing.assert_array_equal(
                together[p].view(np.uint64), advect_scalar(n[p], u[p], obstacles).view(np.uint64)
            )

    def test_uniform_x_flow_never_wraps_to_the_next_row(self):
        # every row's last cell is full and flows toward the grid edge:
        # nothing leaves, least of all into the first cell of the next row
        n = np.zeros((2, 4, 6))
        n[..., -1] = [[1.0], [2.0]]
        u = np.zeros((2, 2, 4, 6))
        u[:, 0] = 0.4
        np.testing.assert_array_equal(advect_scalar(n, u, np.zeros((4, 6))), n)

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
        out = advect_scalar(n, np.zeros((2, 6, 8)), np.zeros((6, 8)))
        np.testing.assert_array_equal(out, n)

    def test_spike_translates_with_uniform_flow(self):
        n = np.zeros((5, 12))
        n[2, 3] = 1.0
        u = np.zeros((2, 5, 12))
        u[0] = 0.2
        for _ in range(5):
            n = advect_scalar(n, u, np.zeros((5, 12)))
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

        got = advect_scalar(n, u, obstacles)
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
        out = advect_scalar(n, u, obstacles)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(n.sum(), rel=1e-12, abs=1e-12)

    def test_cfl_violation_raises(self):
        n = np.ones((4, 4))
        u = np.zeros((2, 4, 4))
        u[0] = 0.7
        with pytest.raises(ValueError):
            advect_scalar(n, u, np.zeros((4, 4)))

    def test_no_flux_into_obstacles(self):
        n = np.zeros((3, 5))
        n[1, 1] = 1.0
        obstacles = np.zeros((3, 5))
        obstacles[1, 2] = 1.0
        u = np.zeros((2, 3, 5))
        u[0] = 0.4
        out = advect_scalar(n, u, obstacles)
        assert out[1, 2] == 0.0
        assert out.sum() == pytest.approx(1.0, rel=1e-12)
