"""Arena generation: the static channels of every arena kind, and the
chemoattractant field diffused outward from food.

One pipeline, ``generate``, builds every arena, deterministic in (spec,
seed); a kind only lays out its own walls, food and marked cells. Every
bundle's seed cell is free and reaches every food cell through free
space (8-connected, matching both the 3x3 update neighborhood and the
diffusion stencil). ``arena_chemo`` is the one chemoattractant rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .fileio import read_value
from .substrate import RING_NEIGHBOURS, GridShape, Statics, flood_fill, neighbours


class EnvError(ValueError):
    """Unsatisfiable or malformed environment specification."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned cell rectangle: origin (x, y), extent (w, h), inclusive of origin."""

    x: int
    y: int
    w: int = 1
    h: int = 1

    def slices(self) -> tuple[slice, slice]:
        return slice(self.y, self.y + self.h), slice(self.x, self.x + self.w)

    def within(self, shape: GridShape) -> bool:
        return (
            0 <= self.x
            and 0 <= self.y
            and self.w >= 1
            and self.h >= 1
            and self.x + self.w <= shape.width
            and self.y + self.h <= shape.height
        )


@dataclass(frozen=True)
class EnvSpec:
    """Declarative arena description, read and written by ``fileio``'s rule.

    ``obstacles`` are fixed wall rectangles, placed on every kind's own
    walls before food, poison and the chemoattractant. ``params`` carries
    the kind-specific knobs (``KINDS``): obstacle_field ``density`` of
    random walls; maze ``cell_size``; coordination ``cluster_offset``,
    ``cluster_radius`` and ``cluster_amount``; deceptive_chemo
    ``false_peak_amplitude`` and ``false_peak``, a food-free peak that
    survives every perturbation. Any kind may carry a ``goal`` rect ([x,
    y, w, h]) for the pathfinding test; it overrides the kind's own goal
    (the maze's far corner). ``generate`` rejects any other key. A value
    is a JSON scalar or a flat array of them.
    """

    kind: str
    shape: GridShape
    food: tuple[tuple[Rect, float], ...] = ()
    poison: tuple[tuple[Rect, float], ...] = ()
    obstacles: tuple[Rect, ...] = ()
    seed: int = 0
    seed_cell: Optional[tuple[int, int]] = None
    chemo_decay: float = 0.9
    chemo_iters: int = 0      # 0 = auto: 2 * max(width, height)
    params: tuple = ()        # kind-specific, as a sorted (key, value) tuple

    def __post_init__(self):
        for name in ("seed", "chemo_iters"):
            if getattr(self, name) < 0:
                raise EnvError(f"{name} must be >= 0, got {getattr(self, name)}")
        # a list param ([x, y] or a rect) is kept as a tuple, so the spec hashes
        frozen = tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in self.params)
        for key, value in frozen:
            items = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(item, (int, float, str, type(None))) for item in items):  # bool is an int
                raise EnvError(f"param {key!r} must be a scalar or a flat array of scalars, got {value!r}")
        object.__setattr__(self, "params", frozen)

    def param(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def resolved_chemo_iters(self) -> int:
        return self.chemo_iters if self.chemo_iters > 0 else 2 * max(self.shape.width, self.shape.height)


@dataclass
class EnvBundle:
    """Generated statics plus the layout metadata tests and the harness use."""

    spec: EnvSpec
    statics: Statics
    seed_cell: tuple[int, int]
    start: Optional[Rect] = None
    goal: Optional[Rect] = None
    cluster_a: Optional[Rect] = None
    cluster_b: Optional[Rect] = None


def chemoattractant_field(food: np.ndarray, obstacles: np.ndarray, n_iters: int, decay: float) -> np.ndarray:
    """Diffuse a gradient field outward from food through free space.

    Iterates C <- max(F, decay * avg8(C)) where blocked or off-grid
    neighbors mirror the center value (zero-flux walls). The result is
    monotone non-increasing with distance from food along free space and
    exactly zero wherever food cannot reach.

    Each cell's eight neighbor indices are taken once per call from the
    ``neighbours`` table (a blocked or off-grid neighbor is the cell
    itself; an obstacle cell reads a slot that holds 0), so an iteration
    is one gather, the eight terms summed in the fixed offset order and
    one maximum.
    """
    if n_iters < 1:
        raise EnvError(f"n_iters must be >= 1, got {n_iters}")
    if not 0.0 < decay < 1.0:
        raise EnvError(f"chemo_decay must lie in (0, 1), got {decay}")
    solid = np.asarray(obstacles) > 0.5
    h, w = solid.shape
    size = h * w
    f = np.where(solid, 0.0, np.asarray(food, dtype=np.float64)).reshape(size)
    ring = neighbours(h, w)[list(RING_NEIGHBOURS)]
    blocked = np.append(solid.reshape(size), True)  # the off-grid slot blocks too
    gather = np.where(blocked[ring], np.arange(size), ring)
    gather[:, solid.reshape(size)] = size
    c = np.zeros(size + 1)  # the last slot stays 0
    c[:size] = f
    terms, acc = np.empty((8, size)), np.empty(size)
    for _ in range(n_iters):
        c.take(gather, out=terms)
        np.add(terms[0], terms[1], out=acc)
        for term in terms[2:]:
            acc += term
        acc /= 8.0
        acc *= decay
        np.maximum(f, acc, out=c[:size])
    return c[:size].reshape(h, w)


def reachable_from(obstacles: np.ndarray, x: int, y: int) -> np.ndarray:
    """8-connected free-space flood fill from one cell."""
    free = ~(np.asarray(obstacles) > 0.5)
    return flood_fill(free, RING_NEIGHBOURS, [y * free.shape[1] + x]) > 0


def _carve_maze(logical_w: int, logical_h: int, rng: np.random.Generator) -> np.ndarray:
    """Recursive-backtracker perfect maze on a (2w+1, 2h+1) wall grid.

    Returns a binary array where 1 = wall. Perfect mazes are connected by
    construction, so any two corridor cells have a path.
    """
    walls = np.ones((2 * logical_h + 1, 2 * logical_w + 1))
    visited = np.zeros((logical_h, logical_w), dtype=bool)
    stack = [(0, 0)]
    visited[0, 0] = True
    walls[1, 1] = 0
    while stack:
        cx, cy = stack[-1]
        options = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < logical_w and 0 <= ny < logical_h and not visited[ny, nx]:
                options.append((nx, ny))
        if not options:
            stack.pop()
            continue
        nx, ny = options[rng.integers(len(options))]
        visited[ny, nx] = True
        walls[2 * ny + 1, 2 * nx + 1] = 0
        walls[cy + ny + 1, cx + nx + 1] = 0  # knock out the wall between
        stack.append((nx, ny))
    return walls


def generate_cached(spec: EnvSpec) -> EnvBundle:
    """generate() behind an LRU cache, for tight evaluation loops.

    The cached statics are read-only and shared: each call returns a fresh
    bundle around them, and ``create_world`` copies them into each world.
    """
    cached = _generate_memo(spec)
    return replace(cached, statics=replace(cached.statics))


@lru_cache(maxsize=64)
def _generate_memo(spec: EnvSpec) -> EnvBundle:
    bundle = generate(spec)
    for array in bundle.statics.arrays():
        array.flags.writeable = False
    return bundle


def generate(spec: EnvSpec) -> EnvBundle:
    """Build the static channels for a spec. Deterministic in (spec, seed).

    The params are checked against their types in ``KINDS``, the spec's
    seed cell and ``goal`` against the grid. The kind's layout gives its
    walls, food and marks, and ``_place`` adds the spec's walls, food and
    poison. The seed cell must be free and reach every food cell; only the
    obstacle field redraws its layout, up to 100 times, until it does.
    ``arena_chemo`` gives the chemoattractant; the spec's ``goal``
    overrides the kind's.
    """
    if spec.kind not in KINDS:
        raise EnvError(f"unknown environment kind {spec.kind!r}")
    layout, kind_params = KINDS[spec.kind]
    kinds = {"goal": Rect, **kind_params}
    for key, value in spec.params:
        if key not in kinds:
            raise EnvError(f"environment kind {spec.kind!r} does not read param {key!r}")
        try:
            read_value(key, value, kinds[key])
        except (TypeError, ValueError) as exc:
            raise EnvError(f"malformed param {key!r}: {exc}") from exc
    shape = spec.shape
    if spec.seed_cell is not None and not shape.contains(*spec.seed_cell):
        raise EnvError(f"organism seed cell {tuple(spec.seed_cell)} is blocked or out of bounds")
    goal = spec.param("goal")
    if goal is not None:
        goal = Rect(*goal)
        if not goal.within(shape):
            raise EnvError(f"goal {goal} out of bounds")
    attempts = 100 if spec.kind == "obstacle_field" else 1
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 17]))
    for _ in range(attempts):
        walls, food_rects, marks = layout(spec, rng)
        marks = {"seed_cell": _seed_cell(spec), **marks}
        obstacles, food, poison = _place(spec, walls, food_rects)
        seed_x, seed_y = marks["seed_cell"]
        if obstacles[seed_y, seed_x] > 0.5:
            raise EnvError(f"organism seed cell ({seed_x}, {seed_y}) is blocked or out of bounds")
        if not ((food > 0) & ~reachable_from(obstacles, seed_x, seed_y)).any():
            break
    else:
        raise EnvError("some food is unreachable from the organism seed cell" if attempts == 1
                       else f"could not place obstacles without cutting off food ({attempts} attempts)")
    if goal is not None:
        marks["goal"] = goal
    statics = Statics(obstacles, poison, food, arena_chemo(spec, food, obstacles))
    return EnvBundle(spec=spec, statics=statics, **marks)


def arena_chemo(spec: EnvSpec, food: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """The arena's chemoattractant over its current food and obstacles:
    ``chemoattractant_field`` with the spec's iterations and decay and, on
    a deceptive_chemo arena, the false peak's cone on top: amplitude *
    decay**(Chebyshev distance to the peak) over the free space the peak
    reaches. The simulation calls it again whenever food or obstacles
    change, so the false peak survives every perturbation.
    """
    chemo = chemoattractant_field(food, obstacles, spec.resolved_chemo_iters(), spec.chemo_decay)
    if spec.kind != "deceptive_chemo":
        return chemo
    amplitude = spec.param("false_peak_amplitude", 2.0)
    if amplitude <= 0:
        raise EnvError(f"false peak amplitude must be positive, got {amplitude}")
    w, h = spec.shape.width, spec.shape.height
    px, py = spec.param("false_peak") or (w // 4, h // 4)
    if not spec.shape.contains(px, py):
        raise EnvError(f"false peak ({px}, {py}) out of bounds")
    if food[py, px] > 0:
        raise EnvError(f"false peak ({px}, {py}) must sit on a food-free cell")
    yy, xx = np.mgrid[0:h, 0:w]
    bump = amplitude * spec.chemo_decay ** np.maximum(np.abs(xx - px), np.abs(yy - py))
    bump[~reachable_from(obstacles, px, py)] = 0.0
    chemo = np.maximum(chemo, bump)
    chemo[obstacles > 0.5] = 0.0
    return chemo


def _place(spec: EnvSpec, walls: np.ndarray, food_rects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(obstacles, food, poison): the spec's fixed wall rects on top of a
    layout's walls (in place), then ``food_rects`` and the spec's poison
    rects laid on the free cells."""
    for rect in spec.obstacles:
        if not rect.within(spec.shape):
            raise EnvError(f"obstacle {rect} out of bounds")
        walls[rect.slices()] = 1.0
    solid = walls > 0.5
    food, poison = np.zeros(spec.shape.yx), np.zeros(spec.shape.yx)
    for name, rects, field in (("food", food_rects, food), ("poison", spec.poison, poison)):
        for rect, amount in rects:
            if not 0 < amount < np.inf:
                raise EnvError(f"{name} amount must be {'finite' if amount == np.inf else 'positive'}, got {amount}")
            if not rect.within(spec.shape):
                raise EnvError(f"{name} region {rect} out of bounds")
            sl = rect.slices()
            if field is food and solid[sl].all():
                raise EnvError(f"food region {rect} lies entirely inside obstacles")
            field[sl] = np.where(solid[sl], 0.0, amount)
    return walls, food, poison


# -- layouts: (spec, rng) -> (own walls, food rects, marks) -------------------
# The seed_cell mark defaults to ``_seed_cell``.


def _seed_cell(spec: EnvSpec) -> tuple[int, int]:
    return spec.seed_cell or (spec.shape.width // 2, spec.shape.height // 2)


def _open_layout(spec: EnvSpec, rng):
    return np.zeros(spec.shape.yx), spec.food, {}


def _obstacle_layout(spec: EnvSpec, rng):
    """Random walls of the given density, never on the seed cell or food."""
    density = spec.param("density", 0.15)
    if not 0.0 <= density < 1.0:
        raise EnvError(f"obstacle density must lie in [0, 1), got {density}")
    seed_x, seed_y = _seed_cell(spec)
    protected = np.zeros(spec.shape.yx, dtype=bool)
    protected[seed_y, seed_x] = True
    for rect, _ in spec.food:
        if rect.within(spec.shape):
            protected[rect.slices()] = True
    return ((rng.random(spec.shape.yx) < density) & ~protected).astype(np.float64), spec.food, {}


def _maze_layout(spec: EnvSpec, rng):
    """A perfect maze scaled by cell_size: start in the near corner block,
    the goal (and food, unless the spec gives some) in the far one."""
    cell_size = spec.param("cell_size", 1)
    if cell_size < 1:
        raise EnvError(f"maze cell_size must be >= 1, got {cell_size}")
    shape = spec.shape
    logical_w = (shape.width // cell_size - 1) // 2
    logical_h = (shape.height // cell_size - 1) // 2
    if logical_w < 2 or logical_h < 2:
        raise EnvError(f"grid {shape.width}x{shape.height} too small for a maze with cell_size {cell_size}")
    walls = np.ones(shape.yx)
    scaled = np.kron(_carve_maze(logical_w, logical_h, rng), np.ones((cell_size, cell_size)))
    walls[: scaled.shape[0], : scaled.shape[1]] = scaled

    def block(lx: int, ly: int) -> Rect:
        return Rect((2 * lx + 1) * cell_size, (2 * ly + 1) * cell_size, cell_size, cell_size)

    start, goal = block(0, 0), block(logical_w - 1, logical_h - 1)
    marks = {"seed_cell": spec.seed_cell or (start.x, start.y), "start": start, "goal": goal}
    return walls, spec.food or ((goal, 8.0),), marks


def _coordination_layout(spec: EnvSpec, rng):
    """Two equal food clusters, offset left and right of the seed cell."""
    offset = spec.param("cluster_offset", max(2, spec.shape.width // 2 - 3))
    radius = spec.param("cluster_radius", 1)
    amount = spec.param("cluster_amount", 4.0)
    cx, cy = _seed_cell(spec)
    side = 2 * radius + 1
    cluster_a = Rect(cx - offset - radius, cy - radius, side, side)
    cluster_b = Rect(cx + offset - radius, cy - radius, side, side)
    for rect, name in ((cluster_a, "A"), (cluster_b, "B")):
        if not rect.within(spec.shape):
            raise EnvError(f"coordination cluster {name} {rect} out of bounds")
    food = spec.food + ((cluster_a, amount), (cluster_b, amount))
    return np.zeros(spec.shape.yx), food, {"cluster_a": cluster_a, "cluster_b": cluster_b}


#: Kind -> (its layout, the ``params`` keys it reads and the type each is
#: read as, by the typing rule of ``fileio``). ``goal``, a ``Rect`` [x, y,
#: w, h], is allowed for every kind.
KINDS = {
    "open_arena": (_open_layout, {}),
    "obstacle_field": (_obstacle_layout, {"density": float}),
    "maze": (_maze_layout, {"cell_size": int}),
    "coordination": (_coordination_layout, {"cluster_offset": int, "cluster_radius": int, "cluster_amount": float}),
    "deceptive_chemo": (_open_layout, {"false_peak_amplitude": float, "false_peak": tuple[int, int]}),
}
