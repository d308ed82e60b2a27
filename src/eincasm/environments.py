"""Static-channel generators: arenas, obstacle fields, mazes, and the
chemoattractant field diffused outward from food.

Every generator is deterministic in (spec, seed). Generated bundles
guarantee that the organism's seed cell is free and that every food cell
is reachable from it through free space (8-connected, matching both the
3x3 update neighborhood and the diffusion stencil).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .substrate import GridShape, Statics

#: Kind -> the ``params`` keys its builder reads. ``goal`` is allowed for every kind.
KIND_PARAMS = {
    "open_arena": (),
    "obstacle_field": ("density",),
    "maze": ("cell_size",),
    "coordination": ("cluster_offset", "cluster_radius", "cluster_amount"),
    "deceptive_chemo": ("false_peak_amplitude", "false_peak"),
}


class EnvError(ValueError):
    """Unsatisfiable or malformed environment specification."""


_SCALAR_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def json_scalar(key: str, value, kind: type):
    """A JSON value checked against one scalar type, raising TypeError that
    names ``key``: an int takes an integer, a float an integer or a float
    (stored as a float), a str a string; a bool or null is never a number."""
    accepted, noun = _SCALAR_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"{key!r} must be {noun}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned cell rectangle: origin (x, y), extent (w, h), inclusive of origin."""

    x: int
    y: int
    w: int = 1
    h: int = 1

    def slices(self) -> tuple[slice, slice]:
        return slice(self.y, self.y + self.h), slice(self.x, self.x + self.w)

    def contains(self, x: int, y: int) -> bool:
        return self.x <= x < self.x + self.w and self.y <= y < self.y + self.h

    def within(self, shape: GridShape) -> bool:
        return (
            0 <= self.x
            and 0 <= self.y
            and self.w >= 1
            and self.h >= 1
            and self.x + self.w <= shape.width
            and self.y + self.h <= shape.height
        )

    def to_list(self) -> list[int]:
        return [self.x, self.y, self.w, self.h]

    @staticmethod
    def from_list(v) -> "Rect":
        x, y, w, h = (json_scalar("rect", t, int) for t in v)
        return Rect(x, y, w, h)


@dataclass(frozen=True)
class EnvSpec:
    """Declarative arena description, serialized into the run config.

    ``obstacles`` are fixed wall rectangles, placed by every kind before
    food, poison and the chemoattractant field. ``params`` carries the
    kind-specific knobs (``KIND_PARAMS``): obstacle_field ``density`` of
    random walls; maze ``cell_size``; coordination ``cluster_offset``,
    ``cluster_radius`` and ``cluster_amount``; deceptive_chemo
    ``false_peak_amplitude`` and ``false_peak`` position. Any kind may
    carry a ``goal`` rect ([x, y, w, h]) for the pathfinding test; it
    overrides the goal a kind sets itself (the maze's far corner).
    ``generate`` rejects any other key.
    """

    kind: str
    shape: GridShape
    food: tuple = ()          # ((Rect, amount), ...)
    poison: tuple = ()        # ((Rect, amount), ...)
    obstacles: tuple = ()     # (Rect, ...)
    seed: int = 0
    seed_cell: Optional[tuple[int, int]] = None
    chemo_decay: float = 0.9
    chemo_iters: int = 0      # 0 = auto: 2 * max(width, height)
    params: tuple = ()        # kind-specific, as a sorted (key, value) tuple

    def __post_init__(self):
        if self.seed_cell is not None and len(self.seed_cell) != 2:
            raise EnvError(f"seed_cell must be [x, y], got {list(self.seed_cell)}")

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def resolved_chemo_iters(self) -> int:
        return self.chemo_iters if self.chemo_iters > 0 else 2 * max(self.shape.width, self.shape.height)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shape": [self.shape.width, self.shape.height],
            "food": [[r.to_list(), amount] for r, amount in self.food],
            "poison": [[r.to_list(), amount] for r, amount in self.poison],
            "obstacles": [r.to_list() for r in self.obstacles],
            "seed": self.seed,
            "seed_cell": list(self.seed_cell) if self.seed_cell else None,
            "chemo_decay": self.chemo_decay,
            "chemo_iters": self.chemo_iters,
            "params": {k: v for k, v in self.params},
        }

    @staticmethod
    def from_dict(data: dict) -> "EnvSpec":
        """Read a spec by the ``json_scalar`` rule; an unknown key is an error."""
        known = [f.name for f in fields(EnvSpec)]
        if not isinstance(data, dict) or set(data) - set(known):
            raise EnvError(f"environment spec must be an object of the keys {known}, got {data!r}")
        cell = data.get("seed_cell")
        try:
            return EnvSpec(
                kind=json_scalar("kind", data["kind"], str),
                shape=GridShape(*[json_scalar("shape", v, int) for v in data["shape"]]),
                food=tuple((Rect.from_list(r), json_scalar("food", a, float)) for r, a in data.get("food", ())),
                poison=tuple((Rect.from_list(r), json_scalar("poison", a, float)) for r, a in data.get("poison", ())),
                obstacles=tuple(Rect.from_list(r) for r in data.get("obstacles", ())),
                seed=json_scalar("seed", data.get("seed", 0), int),
                seed_cell=tuple(json_scalar("seed_cell", v, int) for v in cell) if cell else None,
                chemo_decay=json_scalar("chemo_decay", data.get("chemo_decay", 0.9), float),
                chemo_iters=json_scalar("chemo_iters", data.get("chemo_iters", 0), int),
                params=tuple(sorted((str(k), v) for k, v in dict(data.get("params", {})).items())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EnvError(f"malformed environment spec: {exc}") from exc


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

    Each cell's eight neighbor indices are built once per call (a blocked
    or off-grid neighbor is the cell itself; an obstacle cell reads a slot
    that holds 0), so an iteration is one gather, the eight terms summed
    in the fixed offset order and one maximum.
    """
    if n_iters < 1:
        raise EnvError(f"n_iters must be >= 1, got {n_iters}")
    if not 0.0 < decay < 1.0:
        raise EnvError(f"decay must lie in (0, 1), got {decay}")
    solid = np.asarray(obstacles) > 0.5
    h, w = solid.shape
    size = h * w
    f = np.where(solid, 0.0, np.asarray(food, dtype=np.float64)).reshape(size)
    cell = np.arange(size).reshape(h, w)
    neighbor = np.pad(cell, 1, constant_values=-1)
    blocked = np.pad(solid, 1, constant_values=True)
    gather = np.empty((8, size), dtype=np.intp)
    offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]
    for row, (dx, dy) in enumerate(offsets):
        window = (slice(1 + dy, 1 + dy + h), slice(1 + dx, 1 + dx + w))
        gather[row] = np.where(blocked[window], cell, neighbor[window]).reshape(size)
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
    solid = np.asarray(obstacles) > 0.5
    h, w = solid.shape
    seen = np.zeros((h, w), dtype=bool)
    if solid[y, x]:
        return seen
    stack = [(x, y)]
    seen[y, x] = True
    while stack:
        cx, cy = stack.pop()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < w and 0 <= ny < h and not seen[ny, nx] and not solid[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((nx, ny))
    return seen


def _place_obstacles(spec: EnvSpec, obstacles: np.ndarray) -> np.ndarray:
    """Wall off the spec's fixed obstacle rects on top of a kind's own layout."""
    for rect in spec.obstacles:
        if not rect.within(spec.shape):
            raise EnvError(f"obstacle {rect} out of bounds")
        obstacles[rect.slices()] = 1.0
    return obstacles


def _place_fields(spec: EnvSpec, obstacles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    food = np.zeros(spec.shape.yx)
    poison = np.zeros(spec.shape.yx)
    for rect, amount in spec.food:
        if amount <= 0:
            raise EnvError(f"food amount must be positive, got {amount}")
        if not rect.within(spec.shape):
            raise EnvError(f"food region {rect} out of bounds")
        sl = rect.slices()
        if (obstacles[sl] > 0.5).all():
            raise EnvError(f"food region {rect} lies entirely inside obstacles")
        food[sl] = np.where(obstacles[sl] > 0.5, 0.0, amount)
    for rect, amount in spec.poison:
        if amount <= 0:
            raise EnvError(f"poison amount must be positive, got {amount}")
        if not rect.within(spec.shape):
            raise EnvError(f"poison region {rect} out of bounds")
        sl = rect.slices()
        poison[sl] = np.where(obstacles[sl] > 0.5, 0.0, amount)
    return food, poison


def _default_seed_cell(spec: EnvSpec) -> tuple[int, int]:
    return spec.shape.width // 2, spec.shape.height // 2


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

    The bundle's goal is the spec's ``goal`` param, else the kind's own.
    """
    if spec.kind not in KIND_PARAMS:
        raise EnvError(f"unknown environment kind {spec.kind!r}")
    for key, _ in spec.params:
        if key != "goal" and key not in KIND_PARAMS[spec.kind]:
            raise EnvError(f"environment kind {spec.kind!r} does not read param {key!r}")
    rng = np.random.default_rng(np.random.SeedSequence([max(spec.seed, 0), 17]))
    shape = spec.shape
    builder = {
        "open_arena": _gen_open,
        "obstacle_field": _gen_obstacle_field,
        "maze": _gen_maze,
        "coordination": _gen_coordination,
        "deceptive_chemo": _gen_deceptive,
    }[spec.kind]
    bundle = builder(spec, rng)
    goal = spec.param("goal")
    if goal is not None:
        try:
            bundle.goal = Rect.from_list(goal)
        except (TypeError, ValueError) as exc:
            raise EnvError(f"malformed goal {goal!r}: {exc}") from exc
        if not bundle.goal.within(shape):
            raise EnvError(f"goal {bundle.goal} out of bounds")

    seed_x, seed_y = bundle.seed_cell
    obstacles = bundle.statics.obstacle
    if not shape.contains(seed_x, seed_y) or obstacles[seed_y, seed_x] > 0.5:
        raise EnvError(f"organism seed cell ({seed_x}, {seed_y}) is blocked or out of bounds")
    reach = reachable_from(obstacles, seed_x, seed_y)
    if ((bundle.statics.food > 0) & ~reach).any():
        raise EnvError("some food is unreachable from the organism seed cell")
    return bundle


def _gen_open(spec: EnvSpec, rng) -> EnvBundle:
    obstacles = _place_obstacles(spec, np.zeros(spec.shape.yx))
    food, poison = _place_fields(spec, obstacles)
    chemo = chemoattractant_field(food, obstacles, spec.resolved_chemo_iters(), spec.chemo_decay)
    return EnvBundle(
        spec=spec,
        statics=Statics(obstacles, poison, food, chemo),
        seed_cell=spec.seed_cell or _default_seed_cell(spec),
    )


def _gen_obstacle_field(spec: EnvSpec, rng) -> EnvBundle:
    density = float(spec.param("density", 0.15))
    if not 0.0 <= density < 1.0:
        raise EnvError(f"obstacle density must lie in [0, 1), got {density}")
    seed_cell = spec.seed_cell or _default_seed_cell(spec)
    protected = np.zeros(spec.shape.yx, dtype=bool)
    protected[seed_cell[1], seed_cell[0]] = True
    for rect, _ in spec.food:
        if rect.within(spec.shape):
            protected[rect.slices()] = True
    # Rejection loop: redraw until every food cell stays reachable.
    for _ in range(100):
        obstacles = _place_obstacles(spec, ((rng.random(spec.shape.yx) < density) & ~protected).astype(np.float64))
        food, poison = _place_fields(spec, obstacles)
        reach = reachable_from(obstacles, *seed_cell)
        if not ((food > 0) & ~reach).any():
            chemo = chemoattractant_field(food, obstacles, spec.resolved_chemo_iters(), spec.chemo_decay)
            return EnvBundle(
                spec=spec,
                statics=Statics(obstacles, poison, food, chemo),
                seed_cell=seed_cell,
            )
    raise EnvError("could not place obstacles without cutting off food (100 attempts)")


def _gen_maze(spec: EnvSpec, rng) -> EnvBundle:
    cell_size = int(spec.param("cell_size", 1))
    if cell_size < 1:
        raise EnvError(f"maze cell_size must be >= 1, got {cell_size}")
    shape = spec.shape
    logical_w = (shape.width // cell_size - 1) // 2
    logical_h = (shape.height // cell_size - 1) // 2
    if logical_w < 2 or logical_h < 2:
        raise EnvError(f"grid {shape.width}x{shape.height} too small for a maze with cell_size {cell_size}")
    walls = _carve_maze(logical_w, logical_h, rng)
    obstacles = np.ones(shape.yx)
    scaled = np.kron(walls, np.ones((cell_size, cell_size)))
    obstacles[: scaled.shape[0], : scaled.shape[1]] = scaled
    _place_obstacles(spec, obstacles)

    def block(lx: int, ly: int) -> Rect:
        return Rect((2 * lx + 1) * cell_size, (2 * ly + 1) * cell_size, cell_size, cell_size)

    start = block(0, 0)
    goal = block(logical_w - 1, logical_h - 1)
    food_spec = spec.food or ((goal, 8.0),)
    enriched = replace(spec, food=tuple(food_spec))
    food, poison = _place_fields(enriched, obstacles)
    chemo = chemoattractant_field(food, obstacles, spec.resolved_chemo_iters(), spec.chemo_decay)
    return EnvBundle(
        spec=spec,
        statics=Statics(obstacles, poison, food, chemo),
        seed_cell=spec.seed_cell or (start.x, start.y),
        start=start,
        goal=goal,
    )


def _gen_coordination(spec: EnvSpec, rng) -> EnvBundle:
    offset = int(spec.param("cluster_offset", max(2, spec.shape.width // 2 - 3)))
    radius = int(spec.param("cluster_radius", 1))
    amount = float(spec.param("cluster_amount", 4.0))
    cx, cy = spec.seed_cell or _default_seed_cell(spec)
    side = 2 * radius + 1
    cluster_a = Rect(cx - offset - radius, cy - radius, side, side)
    cluster_b = Rect(cx + offset - radius, cy - radius, side, side)
    for rect, name in ((cluster_a, "A"), (cluster_b, "B")):
        if not rect.within(spec.shape):
            raise EnvError(f"coordination cluster {name} {rect} out of bounds")
    enriched = replace(spec, food=spec.food + ((cluster_a, amount), (cluster_b, amount)))
    obstacles = _place_obstacles(spec, np.zeros(spec.shape.yx))
    food, poison = _place_fields(enriched, obstacles)
    chemo = chemoattractant_field(food, obstacles, spec.resolved_chemo_iters(), spec.chemo_decay)
    return EnvBundle(
        spec=spec,
        statics=Statics(obstacles, poison, food, chemo),
        seed_cell=(cx, cy),
        cluster_a=cluster_a,
        cluster_b=cluster_b,
    )


def _gen_deceptive(spec: EnvSpec, rng) -> EnvBundle:
    amplitude = float(spec.param("false_peak_amplitude", 2.0))
    if amplitude <= 0:
        raise EnvError(f"false peak amplitude must be positive, got {amplitude}")
    base = _gen_open(spec, rng)
    food = base.statics.food
    w, h = spec.shape.width, spec.shape.height
    peak = spec.param("false_peak")
    px, py = (int(peak[0]), int(peak[1])) if peak else (w // 4, h // 4)
    if food[py, px] > 0:
        raise EnvError(f"false peak ({px}, {py}) must sit on a food-free cell")
    # Cone bump with the same decay profile as the true gradient, masked to
    # space reachable from the peak so unreachable pockets stay at zero.
    yy, xx = np.mgrid[0:h, 0:w]
    cheb = np.maximum(np.abs(xx - px), np.abs(yy - py))
    bump = amplitude * spec.chemo_decay**cheb
    bump[~reachable_from(base.statics.obstacle, px, py)] = 0.0
    chemo = np.maximum(base.statics.chemo, bump)
    chemo[base.statics.obstacle > 0.5] = 0.0
    base.statics.chemo = chemo
    return base
