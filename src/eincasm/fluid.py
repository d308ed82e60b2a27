"""D2Q9 lattice-Boltzmann fluid and the passive nutrient transport it drives.

Single-relaxation-time (BGK) collision, bounce-back no-slip walls at
obstacle cells and the grid boundary, and pressure coupling by isotropic
density injection: each cell's reservoir change adds w_i * rho_src to its
distributions instead of moving any boundary. Obstacle cells hold no
fluid (f = 0 there, always). Collision relaxes towards the equilibrium
f_eq_i = w_i rho (1 + 3 e_i.u + 4.5 (e_i.u)^2 - 1.5 |u|^2), which only the
step computes.

Direction set (ex, ey), matching the (x, y)/[y, x] convention used by the
rest of the package:

    0:( 0, 0)  1:( 1, 0)  2:( 0, 1)  3:(-1, 0)  4:( 0,-1)
    5:( 1, 1)  6:(-1, 1)  7:(-1,-1)  8:( 1,-1)

Nutrient is not an LBM species: it is advected as a conservative,
positivity-preserving donor-cell scalar by the velocity field, which keeps
its total exactly fixed and its values nonnegative by construction.

A lattice may also hold a batch: f of shape (P, 9, H, W) is P independent
worlds on one shared obstacle layout, advanced by the same array
operations as a single lattice, which is the P = 1 case. A step advances
f in place. Neither a step nor advection raises for an unstable member:
each returns its failure record, with the member stepped or (above the
CFL bound) unmoved, and knows no step numbers: the simulation stamps the
step and decides what a failure ends.

Walls: an obstacle layout is resolved once into a ``Walls`` (``walls_of``
caches it per distinct layout), and ``step`` and ``advect_scalar`` take
either the obstacle grid or its ``Walls``, so a caller that keeps its
``Walls`` resolves the layout only when it changes. Advection's closed
faces are one array of flat face indices per axis, which ``Walls``
builds once per layout from the ``substrate.neighbours`` table.
Streaming with bounce-back is one gather over the whole batch, which the
step's work arrays build from the same table and the layout's ``solid``
mask. The batch's post-collision populations are followed by one zero
slot, and every obstacle cell's destinations gather from that slot, so
obstacle cells of a stepped lattice are exactly 0.0 whatever the input
held there, with no masked write.

Work arrays: a step's intermediates (the injected and collided lattice
with its zero slot, the moments and the collision terms) live in scratch
arrays that belong to the stepped ``Lattice``. Its first step builds
them, and later steps reuse them until f changes shape. The scratch also
builds and holds the batch's streaming gather, until the layout changes.
Streaming gathers from the collided scratch straight back into f, so a
step allocates no lattice, and two lattices never share work arrays,
in one thread or in two. What a step still allocates is numpy's: the
buffer, up to ``np.getbufsize()`` elements, through which numpy runs
each broadcasting or transposing operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .substrate import neighbours

EX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
EY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
WEIGHTS = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])

RHO_FLOOR = 1e-9  # below this density the velocity is defined as zero
U_MAX = 0.3  # beyond low-Mach validity; the step aborts
CFL_LIMIT = 0.5 + 1e-12  # advect_scalar's bound on max(|ux|, |uy|), with rounding slack
NEGATIVE_TOL = -1e-12
#: At or below this max|u| the outflow limiter of ``advect_scalar`` cannot
#: bind (see its proof): the largest double B with B (1 + 2^-53) + 2^-1074
#: below 1/3.
LIMITER_IDLE_SPEED = float(np.nextafter(1 / 3, 0.0))

_EX_FLOAT = EX.astype(np.float64)
_EY_FLOAT = EY.astype(np.float64)
# The weight of each direction group of the collision: rest, axes, diagonals.
_GROUP_WEIGHTS = np.array([WEIGHTS[0], WEIGHTS[1], WEIGHTS[5]]).reshape(3, 1, 1, 1)
# No float64 at or above this bit pattern, read as uint64, is finite and
# nonnegative: +inf, NaN and every value with the sign bit set.
_INF_BITS = np.float64(np.inf).view(np.uint64)


@dataclass(frozen=True)
class FluidFailure:
    """Why, where and at which step (the simulation's stamp) a lattice became unstable."""

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
    worlds sharing one obstacle layout, plus the BGK relaxation time.
    ``step`` writes f in place, through work arrays that this lattice
    keeps from its first step for as long as f keeps its shape."""

    f: np.ndarray
    tau: float = 0.8
    _scratch: _Scratch | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.5 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and exceed 0.5 for BGK stability, got {self.tau}")
        if self.f.ndim not in (3, 4) or self.f.shape[-3] != 9:
            raise ValueError(f"f must have shape (9, H, W) or (P, 9, H, W), got {self.f.shape}")


@dataclass
class MacroscopicFields:
    rho: np.ndarray
    u: np.ndarray  # (2, H, W): u[0] = ux, u[1] = uy; (P, 2, H, W) for a batch


class Walls:
    """One obstacle layout, ``solid`` (H, W), its complement ``free``, and
    advection's ``closed_faces``, built by ``walls_of``. Streaming's gather
    depends on the batch shape too, so the step's scratch builds and holds
    it (``_Scratch.stream_gather``)."""

    def __init__(self, solid: np.ndarray):
        self.solid = solid
        self.free = ~solid
        self.free.flags.writeable = False  # shared by every simulation on this layout, as solid is
        self.any_solid = bool(solid.any())

    @cached_property
    def closed_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the closed x-faces (cell k to k + 1, the table's
        row 5) and y-faces (cell k to k + W, row 7): an obstacle on either
        side, or the virtual slot on the far one, where an x-face wraps."""
        h, w = self.solid.shape
        blocked = np.append(self.solid.ravel(), True)
        faces = tuple(np.flatnonzero(blocked[: h * w - k] | blocked[neighbours(h, w)[row, : h * w - k]])
                      for row, k in ((5, 1), (7, w)))
        for closed in faces:
            closed.flags.writeable = False  # shared by every simulation on this layout
        return faces


@lru_cache(maxsize=8)
def _walls_of_layout(shape: tuple[int, int], layout: bytes) -> Walls:
    return Walls(np.frombuffer(layout, dtype=bool).reshape(shape))


def walls_of(obstacles: np.ndarray | Walls) -> Walls:
    """The derived arrays of an obstacle layout, built once per distinct
    layout (a moved obstacle makes a new one) and then reused. A ``Walls``
    is returned as it is."""
    if isinstance(obstacles, Walls):
        return obstacles
    solid = np.asarray(obstacles) > 0.5
    return _walls_of_layout(solid.shape, solid.tobytes())


def uniform_lattice(obstacles: np.ndarray) -> np.ndarray:
    """The (9, H, W) populations of fluid at rest at unit density on free cells, empty on obstacles."""
    return WEIGHTS[:, None, None] * ~(np.asarray(obstacles) > 0.5)


def _moments(f: np.ndarray, rho: np.ndarray, u: np.ndarray, den: np.ndarray) -> None:
    """Moments of a batch f (P, 9, H, W) into rho (P, H, W) and u
    (P, 2, H, W); den (P, H, W) is work space."""
    n, _, h, w = f.shape
    flat = f.reshape(n, 9, h * w)
    np.add.reduce(f, axis=1, out=rho)
    np.matmul(_EX_FLOAT, flat, out=u[:, 0].reshape(n, h * w))
    np.matmul(_EY_FLOAT, flat, out=u[:, 1].reshape(n, h * w))
    u /= np.maximum(rho, RHO_FLOOR, out=den)[:, None]
    if np.fmin.reduce(rho, axis=None) < RHO_FLOOR:  # fmin skips NaN, as the comparison does
        np.copyto(u, 0.0, where=(rho < RHO_FLOOR)[:, None])


def macroscopic(lat: Lattice) -> MacroscopicFields:
    """Density and velocity moments; u = 0 wherever rho < 1e-9."""
    f = lat.f if lat.f.ndim == 4 else lat.f[None]
    n, _, h, w = f.shape
    rho, u = np.empty((n, h, w)), np.empty((n, 2, h, w))
    _moments(f, rho, u, np.empty((n, h, w)))
    if lat.f.ndim == 4:
        return MacroscopicFields(rho=rho, u=u)
    return MacroscopicFields(rho=rho[0], u=u[0])


def step(lat: Lattice, obstacles: np.ndarray | Walls, sources: np.ndarray) -> list[FluidFailure | None]:
    """One inject -> collide -> stream -> bounce-back cycle, advancing
    ``lat.f`` in place.

    ``obstacles`` is the obstacle grid or its ``Walls``. ``sources`` is the
    per-cell density source (already capped by the caller, exactly zero
    on obstacle cells), one grid per member of a batch; it is distributed
    isotropically as f_i += w_i * rho_src. Populations streaming into an
    obstacle cell or off the grid reverse direction in place (no-slip).
    ``lat.f`` must be a writeable float64 array; a bad argument raises
    ValueError before anything is written.

    Returns the failures: a lattice fails on negative or non-finite
    populations or |u| > 0.3; ``failures[p]`` is member p's FluidFailure
    or None (one entry for a single lattice), with ``step`` None. A
    failed member's populations are left as stepped.
    """
    if lat.f.dtype != np.float64:
        raise ValueError(f"f must be float64 to be stepped in place, got {lat.f.dtype}")
    if not lat.f.flags.writeable:
        raise ValueError("f is read-only and cannot be stepped in place")
    walls = walls_of(obstacles)
    grid = lat.f.shape[-2:]
    if walls.solid.shape != grid:
        raise ValueError(f"obstacle layout {walls.solid.shape} does not match grid {grid}")
    f = lat.f[None] if lat.f.ndim == 3 else lat.f
    src = np.asarray(sources, dtype=np.float64)
    if src.shape != lat.f.shape[:-3] + grid:
        raise ValueError(f"sources shape {src.shape} does not match grid {lat.f.shape[:-3] + grid}")
    src = src.reshape(f.shape[:1] + grid)
    # true for every value but +-0.0, NaN included
    if walls.any_solid and np.logical_or.reduce(src, axis=None, where=walls.solid):
        raise ValueError("sources must be zero on obstacle cells")
    if lat._scratch is None or lat._scratch.shape != f.shape:
        lat._scratch = _Scratch(f.shape)
    return _step_batch(f, walls, src, lat.tau, lat._scratch)


class _Scratch:
    """The work arrays of one lattice's step, for its (P, 9, H, W) batch
    shape, laid out direction-major, (9, P, H, W), so that each collision
    operation runs over whole contiguous arrays, and the batch's streaming
    gather, built from the layout of the last step and rebuilt when it
    changes. The gather is a writeable array of the scratch's own:
    ``np.take`` copies a read-only index array on every call."""

    def __init__(self, shape: tuple[int, int, int, int]):
        self.shape = shape
        n, _, h, w = shape
        # the batch's lattice by direction, then its zero slot
        self.lattice = np.zeros(9 * n * h * w + 1)
        self.f = self.lattice[:-1].reshape(9, n, h, w)
        self.rho, self.usq, self.usq_term, self.tmp = np.empty((4, n, h, w))
        self.eu = np.empty((2, 2, n, h, w))  # e.u by (group, k); group 0 holds u itself
        self.u = self.eu[0]
        self.square = np.empty((2, 2, n, h, w))
        self.relax = np.empty((9, n, h, w))  # built up to (feq - f) / tau
        self.w_rho = np.empty((3, n, h, w))
        self.walls: Walls | None = None
        self.gather = np.empty(0, dtype=np.intp)

    def stream_gather(self, walls: Walls) -> np.ndarray:
        """The (P, 9, H, W) index in ``lattice`` of each post-streaming
        population of the batch, member-major; built for ``walls`` and kept.

        A free cell takes direction i from its upstream neighbour (cell -
        e_i, the neighbour table's row for offset -e_i) when that one is in
        the grid and free, else its own opposite population, bounced back in
        place; an obstacle cell reads the zero slot. Each destination takes
        exactly one population, so the gather is exact, and no free cell
        reads an obstacle cell's population, whatever collision left there.
        """
        if self.walls is not walls:
            _, n, h, w = self.f.shape
            size, plane = h * w, n * h * w
            solid = walls.solid.reshape(size)
            upstream = neighbours(h, w)[(1 - EY) * 3 + 1 - EX]  # the neighbour at -e_i, per direction
            blocked = np.append(solid, True)[upstream]  # off-grid blocks too
            bounced = OPPOSITE[:, None] * plane + np.arange(size)  # each cell's own opposite population
            first = np.where(blocked, bounced, np.arange(9)[:, None] * plane + upstream)  # member 0's sources
            gather = first + np.arange(n)[:, None, None] * size  # member p's cells sit p H W into each plane
            gather[:, :, solid] = 9 * plane
            self.gather = gather.reshape(n, 9, h, w)
            self.walls = walls
        return self.gather


def _collide(s: _Scratch, tau: float) -> None:
    """BGK relaxation of the batch in ``s.f``, in place:
    f_i += (feq_i - f_i) / tau, from the moments ``s.rho``, ``s.u`` and
    |u|^2 ``s.usq`` (computed as ux * ux + uy * uy).

    All nine directions relax in one pass per operation once their
    brackets (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 |u|^2) are built: the rest
    direction's is 1 - 1.5 |u|^2, and directions 1-8 are built as a
    (2, 2, 2, P, H, W) view by (group, sign, k). Group 0 is the axis
    directions (1, 2 forward, 3, 4 backward), group 1 the diagonals (5, 6
    forward, 7, 8 backward). ``s.eu`` holds e.u of the forward directions:
    u itself and (ux + uy, uy - ux). 3 e.u and (4.5 e.u) e.u are computed
    once per forward/backward pair; 1 + 3 e.u goes to the forward half and
    1 - 3 e.u to the backward one.

    Each feq_i is, bit for bit, the float expression w_i * rho * (1.0 +
    3.0 * eu + 4.5 * eu * eu - 1.5 * usq) with eu = ex_i * ux + ey_i * uy,
    evaluated left to right. A backward direction's e.u is the negated
    forward one there: -ux + 0 uy, and -ux - uy = -(ux + uy) since
    rounding is symmetric. Negation is exact, so 3 (-a) = -(3 a),
    1 + (-(3 a)) = 1 - 3 a and (4.5 (-a)) (-a) = (4.5 a) a, bit for bit. A
    zero term of e.u changes at most the sign of a zero, which adds to 1
    and squares to +0, so it does not reach feq; for the same reason the
    rest direction's 1 + 0 + 0 - 1.5 |u|^2 is 1 - 1.5 |u|^2. The weights
    multiply rho first, as in w_i * rho * bracket, and products commute
    exactly.
    """
    f, relax = s.f, s.relax
    rest, bracket = relax[0], relax[1:].reshape((2, 2, 2) + f.shape[1:])
    np.multiply(s.usq, 1.5, out=s.usq_term)
    np.subtract(1.0, s.usq_term, out=rest)

    u, eu = s.u, s.eu
    np.add(u[0], u[1], out=eu[1, 0])
    np.subtract(u[1], u[0], out=eu[1, 1])
    forward, backward = bracket[:, 0], bracket[:, 1]
    np.multiply(eu, 3.0, out=backward)
    np.add(1.0, backward, out=forward)
    np.subtract(1.0, backward, out=backward)
    square = np.multiply(eu, 4.5, out=s.square)
    square *= eu
    bracket += square[:, None]
    bracket -= s.usq_term

    w_rho = np.multiply(s.rho, _GROUP_WEIGHTS, out=s.w_rho)
    rest *= w_rho[0]
    bracket *= w_rho[1:, None, None]
    relax -= f
    relax /= tau
    f += relax


def _step_batch(f0: np.ndarray, walls: Walls, src, tau: float, s: _Scratch) -> list[FluidFailure | None]:
    n = len(f0)
    f = s.f
    np.multiply(WEIGHTS[:, None, None, None], src, out=f)
    f += f0.transpose(1, 0, 2, 3)  # f0 + w * src: addition commutes exactly

    # member-major views, as the moments of a (P, 9, H, W) batch
    _moments(f.transpose(1, 0, 2, 3), s.rho, s.u.transpose(1, 0, 2, 3), s.tmp)
    ux, uy = s.u
    usq = np.multiply(ux, ux, out=s.usq)
    usq += np.multiply(uy, uy, out=s.tmp)
    failures: list[FluidFailure | None] = [None] * n
    # sqrt is monotone: a member's fastest cell exceeds U_MAX exactly when
    # some cell does (fmax skips NaN, as the comparison does)
    for p in (np.sqrt(np.fmax.reduce(usq, axis=(1, 2))) > U_MAX).nonzero()[0]:
        speed = np.sqrt(usq[p])
        y, x = np.unravel_index(int(np.argmax(speed)), speed.shape)
        failures[p] = FluidFailure(f"velocity {speed[y, x]:.3f} exceeds {U_MAX}", int(x), int(y))

    _collide(s, tau)
    # Stream back into f0. With mode "raise" numpy would buffer all of
    # out; "clip" writes it directly and changes no value, since every
    # gather index is in range by construction.
    np.take(s.lattice, s.stream_gather(walls), out=f0, mode="clip")

    # One pass flags every member holding a negative or non-finite
    # population (and -0.0 or a negative above NEGATIVE_TOL, which the
    # diagnosis then clears); only flagged members are diagnosed.
    for p in (f0.reshape(n, -1).view(np.uint64).max(axis=1) >= _INF_BITS).nonzero()[0]:
        if failures[p] is not None:
            continue
        member = f0[p]
        lo = member.min()
        if not (np.isfinite(lo) and np.isfinite(member.max())):
            _, y, x = np.unravel_index(int(np.argmax(~np.isfinite(member))), member.shape)
            failures[p] = FluidFailure("non-finite population", int(x), int(y))
        elif lo < NEGATIVE_TOL:
            _, y, x = np.unravel_index(int(np.argmin(member)), member.shape)
            failures[p] = FluidFailure(f"negative population {lo:.3e}", int(x), int(y))
    return failures


def advect_scalar(n: np.ndarray, u: np.ndarray, obstacles: np.ndarray | Walls):
    """Donor-cell upwind transport of a nonnegative scalar field over one
    lattice time step. ``n`` (H, W) and ``u`` (2, H, W) may carry a
    leading batch axis; ``obstacles`` is the obstacle grid or its ``Walls``.
    Face velocity is the mean of the two adjacent cell velocities; the
    upwind cell donates. Faces touching an obstacle or the grid edge carry
    no flux. Each cell's total outflow is limited to its content, which
    preserves nonnegativity without breaking conservation (the receiving
    fluxes are scaled identically). Returns ``(field, failures)`` as ``step``
    does: a member whose max(|ux|, |uy|) breaks the CFL bound 0.5 fails at
    its first fastest cell, row-major, and stays unmoved; NaN is no failure.

    Faces are numbered over the row-major cell axis (..., H W): x-face k
    joins cell k to k + 1 and y-face k cell k to k + W, one pass over the
    strides (1, W) serving both axes, x first. The x-faces that wrap from a
    row's end to the next row's start are closed (flux +0.0), so each cell's
    sums are the 2-D form's, in order, plus terms +0.0: the same bits where
    ``n`` holds no -0.0. Nutrient never does: it starts at +0.0 or a positive
    seed, and every later write is a rounded-to-nearest sum (-0.0 only if
    both terms are) or difference a - b (only if a is), a product of
    nonnegatives or a maximum with 0.0.

    The limiter runs only when max|u| exceeds B = LIMITER_IDLE_SPEED. At
    or below it, a nonnegative n never has ``out > n``, so every scale is
    1.0, ``flux * 1.0`` is ``flux`` bit for bit, and skipping the limiter
    keeps every bit. With e = 2^-53 and s = 2^-1074, the smallest
    subnormal, a rounded sum has relative error at most e and is exact
    among the subnormals; a product or a halving may also have absolute
    error s/2, where it lands among the subnormals.

    * A face speed is at most B: |a + b| <= 2B rounds to at most 2B.
    * A cell donates through both faces of an axis only when the left one
      is negative and the right one positive; their speeds then sum to at
      most (1 + e) (v_right - v_left) / 2 + s <= B (1 + e) + s = B' < 1/3,
      which is how B is chosen. So per axis a cell donates at speeds
      a, b >= 0 with a + b <= B'.
    * n >= 2^-1022 (normal): each product has error at most e a n + s/2
      <= e a n + 2^-53 n, so an axis gives at most
      n (B' (1 + e) + 2^-52), and the outflow, summed with 3 roundings,
      is at most n (2 B' (1 + e) + 2^-51) (1 + e)^3 < 0.67 n.
    * n < 2^-1022 (subnormal): n = k s, every product a n is below
      2^-1022, where the spacing is s, so it rounds to round(a k) s, and
      the outflow is the exact integer sum of those multiples of s. Per
      axis round(a k) + round(b k) <= (a + b) k + 1 < k / 3 + 1. For
      k >= 6 both axes give less than 2 k / 3 + 2 <= k. For k = 5 an
      axis gives at most 2 (less than 8/3), so 4 < 5. For k = 4 a face
      gives at most 1 (4 a < 4/3 < 3/2), so 4 <= 4. For k = 3 a face
      gives 1 only above speed 1/6 and both faces of an axis cannot be
      (a + b < 1/3), so 2 < 3. For k = 2 a face gives 1 only above 1/4,
      again at most one per axis, so 2 <= 2. For k = 1 no face gives
      anything (a < 1/2).
    * A zero donor gives zero fluxes, and NaN compares false.
    """
    n, u = (np.asarray(a, dtype=np.float64) for a in (n, u))
    size = n.shape[-2] * n.shape[-1]
    cells, velocity = n.reshape(-1, size), u.reshape(-1, 2, size)  # a row per member, one if unbatched

    fastest = np.abs(velocity).max(axis=(1, 2), initial=0.0)  # per member, for the CFL screen and the limiter
    failures: list[FluidFailure | None] = [None] * len(fastest)
    broken = (fastest > CFL_LIMIT).nonzero()[0]  # NaN compares false
    for p in broken:
        y, x = divmod(int(np.argmax(np.abs(velocity[p]).max(axis=0))), n.shape[-1])
        failures[p] = FluidFailure(f"velocity component {fastest[p]:.3f} exceeds the CFL bound 0.5", x, y)

    # Per axis, the face velocity (zero where closed) times the upwind content.
    faces = []
    for axis, (stride, closed) in enumerate(zip((1, n.shape[-1]), walls_of(obstacles).closed_faces)):
        face_u = 0.5 * (velocity[..., axis, :-stride] + velocity[..., axis, stride:])
        face_u[..., closed] = 0.0
        face_u[broken] = 0.0  # a member beyond the CFL bound stays where it is
        faces.append((stride, face_u * np.where(face_u > 0, cells[..., :-stride], cells[..., stride:])))

    # Limit each donor's total outflow to what it holds, unless it cannot bind.
    if not fastest.max() <= LIMITER_IDLE_SPEED:  # NaN included
        out = np.zeros_like(cells)
        for stride, flux in faces:
            out[..., :-stride] += np.maximum(flux, 0.0)
            out[..., stride:] -= np.minimum(flux, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(out > cells, cells / np.maximum(out, 1e-300), 1.0)
        for stride, flux in faces:
            flux *= np.where(flux > 0, scale[..., :-stride], scale[..., stride:])

    result = cells.copy()
    for stride, flux in faces:
        result[..., :-stride] -= flux
        result[..., stride:] += flux
    return np.maximum(result, 0.0).reshape(n.shape), failures
