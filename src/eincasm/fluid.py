"""D2Q9 lattice-Boltzmann fluid and the passive nutrient transport it drives.

Single-relaxation-time (BGK) collision, bounce-back no-slip walls at
obstacle cells and the grid boundary, and pressure coupling by isotropic
density injection: each cell's reservoir change adds w_i * rho_src to its
distributions instead of moving any boundary. Obstacle cells hold no
fluid (f = 0 there, always).

Direction set (ex, ey), matching the (x, y)/[y, x] convention used by the
rest of the package:

    0:( 0, 0)  1:( 1, 0)  2:( 0, 1)  3:(-1, 0)  4:( 0,-1)
    5:( 1, 1)  6:(-1, 1)  7:(-1,-1)  8:( 1,-1)

Nutrient is not an LBM species: it is advected as a conservative,
positivity-preserving donor-cell scalar by the velocity field, which keeps
its total exactly fixed and its values nonnegative by construction.

A lattice may also hold a batch: f of shape (P, 9, H, W) is P independent
worlds on one shared obstacle layout, advanced by the same array
operations as a single lattice, which is the P = 1 case. Streaming with
bounce-back is one gather, precomputed once per obstacle layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

EX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
EY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
WEIGHTS = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])

RHO_FLOOR = 1e-9  # below this density the velocity is defined as zero
U_MAX = 0.3  # beyond low-Mach validity; the step aborts
NEGATIVE_TOL = -1e-12
#: At or below this max|u| the outflow limiter of ``advect_scalar`` cannot
#: bind (see its proof, which needs a value below 1/4).
LIMITER_IDLE_SPEED = 0.24

# Moments use matmul with float vectors: on a batch it gives the same bits
# per member as a single lattice's tensordot, where a stacked tensordot or
# a (2, 9) matrix product does not.
_EX_FLOAT = EX.astype(np.float64)
_EY_FLOAT = EY.astype(np.float64)


class FluidInstability(RuntimeError):
    """The lattice left its stable regime; identifies where and when."""

    def __init__(self, reason: str, x: int, y: int, step: int | None = None):
        super().__init__(str(FluidFailure(reason, x, y, step)))
        self.reason, self.x, self.y, self.step = reason, x, y, step


@dataclass(frozen=True)
class FluidFailure:
    """Why, where and at which step one lattice of a batch became unstable."""

    reason: str
    x: int
    y: int
    step: int | None = None

    def __str__(self) -> str:
        at = f" at step {self.step}" if self.step is not None else ""
        return f"{self.reason} at cell ({self.x}, {self.y}){at}"


@dataclass
class Lattice:
    """Distribution functions f (9, H, W), or a batch (P, 9, H, W) of
    worlds sharing one obstacle layout, plus the BGK relaxation time."""

    f: np.ndarray
    tau: float = 0.8

    def __post_init__(self):
        if self.tau <= 0.5:
            raise ValueError(f"tau must exceed 0.5 for BGK stability, got {self.tau}")
        if self.f.ndim not in (3, 4) or self.f.shape[-3] != 9:
            raise ValueError(f"f must have shape (9, H, W) or (P, 9, H, W), got {self.f.shape}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.f.shape[-2:]

    def total(self) -> float:
        return float(self.f.sum())

    def copy(self) -> "Lattice":
        return Lattice(self.f.copy(), self.tau)


@dataclass
class MacroscopicFields:
    rho: np.ndarray
    u: np.ndarray  # (2, H, W): u[0] = ux, u[1] = uy; (P, 2, H, W) for a batch


class _Walls:
    """One obstacle layout and the arrays streaming and advection derive from it."""

    def __init__(self, solid: np.ndarray):
        self.solid = solid
        self.any_solid = bool(solid.any())

    @cached_property
    def stream_gather(self) -> np.ndarray:
        """Flat source index of every post-streaming population of one
        (9, H, W) lattice: streamed.flat[k] = f.flat[stream_gather[k]].

        A free cell receives direction i from its upstream neighbour
        (cell - e_i) when that neighbour is in the grid and free; otherwise
        it receives its own opposite population, bounced back in place. An
        obstacle cell reads its own population, which collision zeroed.
        Each destination thus takes exactly one population, so the gather
        is exact: shifting and adding would only add zeros to it.
        """
        h, w = self.solid.shape
        size = h * w
        ys, xs = np.mgrid[0:h, 0:w]
        cell = ys * w + xs
        up_y, up_x = ys - EY[:, None, None], xs - EX[:, None, None]
        blocked = np.pad(self.solid, 1, constant_values=True)[up_y + 1, up_x + 1]  # off-grid blocks too
        direction = np.arange(9)[:, None, None]
        gather = np.where(blocked, OPPOSITE[:, None, None] * size + cell, direction * size + up_y * w + up_x)
        gather = np.where(self.solid, direction * size + cell, gather)
        return gather.ravel()

    @cached_property
    def closed_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Faces between x-neighbours (H, W-1) and y-neighbours (H-1, W)
        with an obstacle on either side."""
        s = self.solid
        return s[:, :-1] | s[:, 1:], s[:-1, :] | s[1:, :]


@lru_cache(maxsize=8)
def _walls_of_layout(shape: tuple[int, int], layout: bytes) -> _Walls:
    return _Walls(np.frombuffer(layout, dtype=bool).reshape(shape))


def _walls(obstacles) -> _Walls:
    """The derived arrays of an obstacle layout, built once per distinct
    layout (a moved obstacle makes a new one) and then reused."""
    solid = np.asarray(obstacles) > 0.5
    return _walls_of_layout(solid.shape, solid.tobytes())


def equilibrium(rho, u) -> np.ndarray:
    """Second-order equilibrium distributions for density rho, velocity u.

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


def uniform_lattice(width: int, height: int, obstacles: np.ndarray | None = None,
                    rho0: float = 1.0, tau: float = 0.8) -> Lattice:
    """Fluid at rest at density rho0 on free cells, empty on obstacles."""
    f = np.ones((9, height, width)) * (WEIGHTS[:, None, None] * rho0)
    if obstacles is not None:
        f[:, np.asarray(obstacles) > 0.5] = 0.0
    return Lattice(f, tau)


def _moments(f: np.ndarray) -> MacroscopicFields:
    """Moments of a batch f (P, 9, H, W)."""
    n, _, h, w = f.shape
    flat = f.reshape(n, 9, h * w)
    rho = f.sum(axis=1)
    mom = np.stack([np.matmul(_EX_FLOAT, flat), np.matmul(_EY_FLOAT, flat)], axis=1)
    u = mom.reshape(n, 2, h, w) / np.maximum(rho, RHO_FLOOR)[:, None]
    np.copyto(u, 0.0, where=(rho < RHO_FLOOR)[:, None])
    return MacroscopicFields(rho=rho, u=u)


def macroscopic(lat: Lattice) -> MacroscopicFields:
    """Density and velocity moments; u = 0 wherever rho < 1e-9."""
    if lat.f.ndim == 4:
        return _moments(lat.f)
    fields = _moments(lat.f[None])
    return MacroscopicFields(rho=fields.rho[0], u=fields.u[0])


def step(lat: Lattice, obstacles: np.ndarray, sources: np.ndarray | None = None,
         step_index: int | None = None):
    """One inject -> collide -> stream -> bounce-back cycle.

    ``sources`` is a per-cell density source (already capped by the
    caller, zero on obstacle cells), one grid per member of a batch; it is
    distributed isotropically as f_i += w_i * rho_src. Populations
    streaming into an obstacle cell or off the grid reverse direction in
    place (no-slip).

    A lattice fails on negative/non-finite populations or |u| > 0.3. A
    single lattice then raises FluidInstability and otherwise returns the
    stepped Lattice. A batch never raises for it: it returns
    ``(lattice, failures)``, where ``failures[p]`` is member p's
    FluidFailure or None, and a failed member's populations come back
    unchanged.
    """
    walls = _walls(obstacles)
    single = lat.f.ndim == 3
    f = lat.f[None] if single else lat.f
    src = None
    if sources is not None:
        src = np.asarray(sources, dtype=np.float64)
        expected = lat.f.shape[:-3] + tuple(lat.grid_shape)
        if src.shape != expected:
            raise ValueError(f"sources shape {src.shape} does not match grid {expected}")
        src = src.reshape(f.shape[:1] + f.shape[2:])
        if walls.any_solid and (np.abs(src[:, walls.solid]) > 0).any():
            raise ValueError("sources must be zero on obstacle cells")
    new, failures = _step_batch(f, walls, src, lat.tau, step_index)
    if single:
        if failures[0] is not None:
            fail = failures[0]
            raise FluidInstability(fail.reason, fail.x, fail.y, fail.step)
        return Lattice(new[0], lat.tau)
    return Lattice(new, lat.tau), failures


def _collide(f: np.ndarray, fields: MacroscopicFields, usq: np.ndarray, tau: float) -> None:
    """BGK relaxation of a batch, in place: f_i += (feq_i - f_i) / tau.

    Directions relax in opposite pairs, two pairs per array operation:
    the axis directions 1, 2 against 3, 4 and the diagonals 5, 6 against
    7, 8, each a (P, 2, H, W) slice of f sharing one e.u. Each feq_i is the
    float expression ``equilibrium`` evaluates, so the bits agree: negating
    e.u is exact, and a zero term of e.u changes at most the sign of a
    zero, which does not reach feq. ``usq`` is |u|^2 as ``equilibrium``
    computes it, ux * ux + uy * uy.
    """
    u, rho = fields.u, fields.rho
    usq_term = 1.5 * usq

    def relax(directions, bracket: np.ndarray, w_rho: np.ndarray) -> None:
        bracket *= w_rho
        bracket -= f[:, directions]
        bracket /= tau
        f[:, directions] += bracket

    relax(0, 1.0 - usq_term, WEIGHTS[0] * rho)
    diagonal = np.empty_like(u)  # e.u of directions 5 and 6
    np.add(u[:, 0], u[:, 1], out=diagonal[:, 0])
    np.subtract(u[:, 1], u[:, 0], out=diagonal[:, 1])
    usq_term = usq_term[:, None]
    for eu, forward, backward, weight in ((u, slice(1, 3), slice(3, 5), WEIGHTS[1]),
                                         (diagonal, slice(5, 7), slice(7, 9), WEIGHTS[5])):
        w_rho = (weight * rho)[:, None]
        linear = 3.0 * eu
        square = 4.5 * eu
        square *= eu
        for bracket, directions in ((1.0 + linear, forward), (1.0 - linear, backward)):
            bracket += square
            bracket -= usq_term
            relax(directions, bracket, w_rho)


def _step_batch(f0: np.ndarray, walls: _Walls, src, tau: float, step_index):
    n = len(f0)
    f = f0 + WEIGHTS[:, None, None] * src[:, None] if src is not None else f0.copy()

    fields = _moments(f)
    ux, uy = fields.u[:, 0], fields.u[:, 1]
    usq = ux * ux + uy * uy
    failures: list[FluidFailure | None] = [None] * n
    # sqrt is monotone: a member's fastest cell exceeds U_MAX exactly when
    # some cell does (fmax skips NaN, as the comparison does)
    for p in np.flatnonzero(np.sqrt(np.fmax.reduce(usq, axis=(1, 2))) > U_MAX):
        speed = np.sqrt(usq[p])
        y, x = np.unravel_index(int(np.argmax(speed)), speed.shape)
        failures[p] = FluidFailure(f"velocity {speed[y, x]:.3f} exceeds {U_MAX}", int(x), int(y), step_index)

    _collide(f, fields, usq, tau)
    if walls.any_solid:
        f[:, :, walls.solid] = 0.0
    new = np.take(f.reshape(n, -1), walls.stream_gather, axis=1).reshape(f.shape)

    flat = new.reshape(n, -1)
    lo, hi = flat.min(axis=1), flat.max(axis=1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    for p in np.flatnonzero(~finite | (lo < NEGATIVE_TOL)):
        if failures[p] is not None:
            continue
        if not finite[p]:
            _, y, x = np.unravel_index(int(np.argmax(~np.isfinite(new[p]))), new[p].shape)
            failures[p] = FluidFailure("non-finite population", int(x), int(y), step_index)
        else:
            _, y, x = np.unravel_index(int(np.argmin(new[p])), new[p].shape)
            failures[p] = FluidFailure(f"negative population {lo[p]:.3e}", int(x), int(y), step_index)
    failed = [p for p, fail in enumerate(failures) if fail is not None]
    if failed:
        new[failed] = f0[failed]
    return new, failures


def advect_scalar(n: np.ndarray, u: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """Donor-cell upwind transport of a nonnegative scalar field over one
    lattice time step.

    Face velocity is the mean of the two adjacent cell velocities; the
    upwind cell donates. Faces touching an obstacle or the grid edge carry
    no flux. Each cell's total outflow is limited to its content, which
    preserves nonnegativity without breaking conservation (the receiving
    fluxes are scaled identically). ``n`` (H, W) and ``u`` (2, H, W) may
    carry a leading batch axis.

    Requires the CFL bound max(|ux|, |uy|) <= 0.5.

    The limiter runs only when max|u| exceeds B = LIMITER_IDLE_SPEED. At
    or below it, a nonnegative n never has ``out > n``, so every scale is
    1.0, ``flux * 1.0`` is ``flux`` bit for bit, and skipping the limiter
    keeps every bit. With e = 2^-53 and s = 2^-1074, the smallest
    subnormal, a rounded sum has relative error at most e; a product or a
    halving may also have absolute error s/2, where it lands among the
    subnormals.

    * A face speed is at most B: |a + b| <= 2B rounds to at most 2B.
    * A cell donates through both faces of an axis only when the left one
      is negative and the right one positive; their speeds then sum to at
      most (1 + e) (v_right - v_left) / 2 + s <= B (1 + e) + s.
    * Its outflow is at most 4 rounded products summed with 3 roundings:
      out <= [2 n (B (1 + e) + s) (1 + e) + 2 s] (1 + e)^3, which is at
      most n once n >= 4 s, since 2B = 0.48 leaves n a 52% margin.
    * Below that, n = k s with k <= 3, and a product rounds to s only when
      its face speed exceeds 1 / (2k), else to 0. No face speed exceeds
      1/4, and at most one per axis exceeds 1/6, so out <= 2 s < 3 s.
    * A zero donor gives zero fluxes, and NaN compares false.
    """
    n = np.asarray(n, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    walls = _walls(obstacles)
    u_max = float(np.max(np.abs(u), initial=0.0))
    if u_max > 0.5 + 1e-12:
        raise ValueError(f"CFL violated: max|u| = {u_max:.3f} > 0.5")

    ux, uy = u[..., 0, :, :], u[..., 1, :, :]
    # Face-normal velocities; zero where either side is solid.
    ufx = 0.5 * (ux[..., :, :-1] + ux[..., :, 1:])
    ufy = 0.5 * (uy[..., :-1, :] + uy[..., 1:, :])
    if walls.any_solid:
        closed_x, closed_y = walls.closed_faces
        ufx[..., closed_x] = 0.0
        ufy[..., closed_y] = 0.0

    # The upwind cell donates: the lower-index side of a face when its
    # velocity is positive, the higher-index side otherwise.
    flux_x = ufx * np.where(ufx > 0, n[..., :, :-1], n[..., :, 1:])
    flux_y = ufy * np.where(ufy > 0, n[..., :-1, :], n[..., 1:, :])

    # Limit each donor's total outflow to what it holds, unless it cannot bind.
    if not u_max <= LIMITER_IDLE_SPEED:  # NaN included
        out = np.zeros_like(n)
        out[..., :, :-1] += np.maximum(flux_x, 0.0)
        out[..., :, 1:] -= np.minimum(flux_x, 0.0)
        out[..., :-1, :] += np.maximum(flux_y, 0.0)
        out[..., 1:, :] -= np.minimum(flux_y, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(out > n, n / np.maximum(out, 1e-300), 1.0)
        flux_x *= np.where(flux_x > 0, scale[..., :, :-1], scale[..., :, 1:])
        flux_y *= np.where(flux_y > 0, scale[..., :-1, :], scale[..., 1:, :])

    result = n.copy()
    result[..., :, :-1] -= flux_x
    result[..., :, 1:] += flux_x
    result[..., :-1, :] -= flux_y
    result[..., 1:, :] += flux_y
    return np.maximum(result, 0.0)
