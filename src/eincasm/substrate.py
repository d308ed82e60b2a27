"""Grid world: channel storage, perception extraction, aggregate queries.

The world is a square tile grid of per-cell channels, split into three
groups:

* static channels, fixed by the environment: obstacle ``O`` (binary),
  poison ``P``, food ``F``, chemoattractant ``C``;
* dynamic channels, governed by the economy and the fluid: cell mass ``M``,
  reservoir ``R``, nutrient ``N``;
* ``K`` hidden channels ``H0..H(K-1)``, freely writable signalling fields
  clamped to [-1, 1].

Conventions used across the whole package:

* cells are addressed as ``(x, y)``; arrays are indexed ``[y, x]`` and
  hold float64;
* every world lives in a ``WorldStack``, whose one flat store of planes
  (each the H*W cells row-major, then one virtual obstacle slot) holds
  all its members' channels; a ``WorldState`` is one member's view, so a
  one-member stack stands where one world is meant. The named channels
  of both are grid views of the store, written in place, so every write
  lands where perception reads;
* the perception channel order is ``[O, P, F, C, M, R, N, H0..H(K-1)]``
  and the 3x3 neighborhood is scanned row-major from ``(x-1, y-1)`` to
  ``(x+1, y+1)``; genome input indices depend on this order, so it is
  frozen;
* reads outside the grid see a virtual obstacle cell: ``O=1``, every other
  channel 0. There is no wraparound. ``neighbours`` is the one table of
  the neighborhood: its off-grid entries point at the virtual slot, and
  perception, the chemoattractant diffusion, fluid streaming, advection's
  closed faces and the flood fills all index through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Channel names in perception order. Hidden channels follow these seven.
BASE_CHANNELS = ("obstacle", "poison", "food", "chemo", "mass", "reservoir", "nutrient")
N_BASE_CHANNELS = len(BASE_CHANNELS)
#: Mass, reservoir, nutrient and the hidden channels change as the world runs.
FIRST_DYNAMIC_CHANNEL = BASE_CHANNELS.index("mass")
#: The channel fields of a WorldState, in order: the hidden stack last.
CHANNELS = BASE_CHANNELS + ("hidden",)

#: Offsets of the 3x3 neighborhood in scan order (dx, dy), row-major.
NEIGHBORHOOD = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


class WorldError(ValueError):
    """Invalid world construction or access."""


@dataclass(frozen=True)
class GridShape:
    """Grid dimensions. A 3x3 neighborhood must fit, so both sides are >= 3."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise WorldError(f"grid must be at least 3x3, got {self.width}x{self.height}")

    @property
    def yx(self) -> tuple[int, int]:
        """Numpy array shape (rows, cols)."""
        return (self.height, self.width)

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass
class Statics:
    """The environment-defined channel bundle: obstacle, poison, food, chemo."""

    obstacle: np.ndarray
    poison: np.ndarray
    food: np.ndarray
    chemo: np.ndarray

    def arrays(self):
        return (self.obstacle, self.poison, self.food, self.chemo)


class _StoreViews:
    """What a WorldStack and its member views share: named channels that
    are views of one store. They are written in place; rebinding one would
    detach it from what perception reads, so it raises."""

    def __setattr__(self, name: str, value) -> None:
        if name in CHANNELS and name in vars(self):
            raise AttributeError(f"{type(self).__name__}.{name} is a view of the store: write it in place")
        super().__setattr__(name, value)

    @property
    def k_hidden(self) -> int:
        return self.hidden.shape[-3]

    @property
    def n_channels(self) -> int:
        """Channels per cell as seen by perception."""
        return N_BASE_CHANNELS + self.k_hidden


class WorldState(_StoreViews):
    """One world: member ``index`` of the WorldStack ``stack``, made only by
    ``stack.member``. Its channels are (H, W) grids, hidden (K, H, W), that
    view the stack's store, the statics shared with the other members;
    ``copy`` gives a world its own store. Mutated in place by the
    lifecycle; everything else treats it as read-only.
    """

    def __init__(self, stack: "WorldStack", index: int):
        self.stack, self.index, self.shape = stack, index, stack.shape
        self.obstacle, self.poison, self.food, self.chemo = stack.obstacle, stack.poison, stack.food, stack.chemo
        self.mass, self.reservoir, self.nutrient = stack.mass[index], stack.reservoir[index], stack.nutrient[index]
        self.hidden = stack.hidden[index]

    def copy(self) -> "WorldState":
        """This world as member 0 of a new one-member stack."""
        return self.stack.select([self.index]).member(0)

    def validate(self, kappa: float | None = None, atol: float = 1e-9):
        """Check every invariant of the channel values; raise WorldError on
        violation.

        With ``kappa`` given, also checks the reservoir capacity bound
        R <= kappa * M. Used by tests after every mutating operation.
        """
        if not np.isin(self.obstacle, (0.0, 1.0)).all():
            raise WorldError("obstacle channel must be binary")
        for name in ("poison", "food", "chemo", "mass", "reservoir", "nutrient"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all() or (arr < -atol).any():
                raise WorldError(f"channel {name} must be finite and nonnegative")
        if (np.abs(self.hidden) > 1.0 + atol).any():
            raise WorldError("hidden channels must stay in [-1, 1]")
        blocked = self.obstacle > 0.5
        for name in CHANNELS[FIRST_DYNAMIC_CHANNEL:]:
            if (np.abs(getattr(self, name)[..., blocked]) > atol).any():
                raise WorldError(f"channel {name} must be zero on obstacle cells")
        if kappa is not None:
            if (self.reservoir > kappa * self.mass + atol).any():
                raise WorldError("reservoir exceeds kappa * mass")


def create_world(shape: GridShape, statics: Statics, k_hidden: int) -> WorldState:
    """Build a world from environment statics with zeroed dynamic state, as
    member 0 of a new one-member WorldStack. Static fields are copied into
    its store, so the caller's bundle stays untouched by the simulation.
    Raises WorldError on shape mismatch or ``k_hidden < 1``.
    """
    if k_hidden < 1:
        raise WorldError(f"k_hidden must be >= 1, got {k_hidden}")
    world = WorldStack(shape, 1, k_hidden).member(0)
    for name, arr in zip(CHANNELS, statics.arrays()):
        if np.shape(arr) != shape.yx:
            raise WorldError(f"static field {name} has shape {np.shape(arr)}, expected {shape.yx}")
        getattr(world, name)[...] = arr
    world.validate()
    return world


@lru_cache(maxsize=16)
def neighbours(h: int, w: int) -> np.ndarray:
    """The 3x3 neighbour table of an H x W grid: (9, H*W), row k holding
    each cell's neighbour at ``NEIGHBORHOOD[k]`` as a flat row-major cell
    index, or H*W, the virtual obstacle slot, where that neighbour is off
    the grid. Read-only and shared."""
    ys, xs = np.divmod(np.arange(h * w), w)
    table = np.empty((9, h * w), dtype=np.intp)
    for row, (dx, dy) in enumerate(NEIGHBORHOOD):
        ny, nx = ys + dy, xs + dx
        table[row] = np.where((0 <= ny) & (ny < h) & (0 <= nx) & (nx < w), ny * w + nx, h * w)
    table.setflags(write=False)
    return table


#: Rows of the neighbour table: the four edge neighbours, and all eight.
EDGE_NEIGHBOURS = (1, 3, 5, 7)
RING_NEIGHBOURS = (0, 1, 2, 3, 5, 6, 7, 8)


def flood_fill(inside: np.ndarray, rows, starts) -> np.ndarray:
    """Label the components of the (H, W) mask ``inside`` that connect
    through the neighbour-table ``rows``: grown from each flat cell of
    ``starts`` in turn and numbered 1, 2, ... in that order, as an int32
    (H, W) grid with 0 elsewhere. A start outside the mask or already
    labelled opens no component."""
    h, w = inside.shape
    steps = neighbours(h, w)[list(rows)].T.tolist()
    open_ = inside.ravel().tolist() + [False]  # the virtual slot is never inside
    labels = [0] * len(open_)
    current = 0
    for start in starts:
        if not open_[start] or labels[start]:
            continue
        current += 1
        labels[start] = current
        stack = [start]
        while stack:
            for cell in steps[stack.pop()]:
                if open_[cell] and not labels[cell]:
                    labels[cell] = current
                    stack.append(cell)
    return np.array(labels[:-1], dtype=np.int32).reshape(h, w)


class WorldStack(_StoreViews):
    """P worlds on one arena, stacked so that each step is one set of
    array operations for all of them.

    Every channel lives in one flat float64 ``store`` of planes: first the
    four static planes (obstacle, poison, food, chemo), shared by every
    member, then per member its mass, reservoir, nutrient and K hidden
    planes. A plane holds the H*W cells row-major and ends in one virtual
    obstacle slot (O = 1, every other channel 0) that off-grid neighbours
    of ``neighbours`` point at, so the boundary rule is stored once and
    perception reads the store directly. The named channels are grid views
    of the store: the statics (H, W), mass, reservoir and nutrient
    (P, H, W), hidden (P, K, H, W), and ``member`` hands out each member's
    WorldState view.
    """

    def __init__(self, shape: GridShape, n_members: int, k_hidden: int):
        h, w = shape.yx
        self.shape = shape
        self.store = np.zeros((4 + n_members * (3 + k_hidden)) * (h * w + 1))
        planes = self.store.reshape(-1, h * w + 1)
        planes[0, -1] = 1.0  # the obstacle plane's virtual slot
        grids = planes[:, :-1].reshape(-1, h, w)
        self.obstacle, self.poison, self.food, self.chemo = grids[:4]
        self._statics = planes[:4]
        self._members = planes[4:].reshape(n_members, 3 + k_hidden, h * w + 1)
        members = grids[4:].reshape(n_members, 3 + k_hidden, h, w)
        self.mass, self.reservoir, self.nutrient = members[:, 0], members[:, 1], members[:, 2]
        self.hidden = members[:, 3:]

    @property
    def n_members(self) -> int:
        return len(self.mass)

    def member(self, i: int) -> WorldState:
        """Member i as a WorldState of views: writes to it write the stack."""
        return WorldState(self, i)

    def select(self, keep) -> "WorldStack":
        """The members ``keep`` indexes, copied into a new stack."""
        stack = WorldStack(self.shape, len(keep), self.k_hidden)
        stack._statics[...] = self._statics
        stack._members[...] = self._members[keep]
        return stack


@lru_cache(maxsize=64)
def _slot_offsets(n_channels: int, size: int, slots: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per perception slot: its row's offset into the flat neighbour table
    of a ``size``-cell grid, its channel's plane offset in a store, and
    whether that channel is a member's own (dynamic) one."""
    slots = np.frombuffer(slots, dtype=np.intp)
    neighbour, channel = np.divmod(slots, n_channels)
    plans = neighbour * size, channel * (size + 1), (channel >= FIRST_DYNAMIC_CHANNEL).astype(np.intp)
    for array in plans:
        array.setflags(write=False)  # the cache hands them to every caller
    return plans


def perceive_cells(
    world: WorldState | WorldStack,
    ys: np.ndarray,
    xs: np.ndarray,
    members: np.ndarray | None = None,
    slots: np.ndarray | None = None,
) -> np.ndarray:
    """Perception vectors for many cells at once: (n, len(slots)).

    ``world`` is a WorldStack with ``members`` giving each cell's member,
    or one WorldState, read in place as member ``world.index`` of its
    stack. The full vector (``slots`` None) has 9 * n_channels columns:
    per cell, the 9 neighborhood cells in scan order, each contributing its
    channels in perception order. ``slots`` picks columns of that vector,
    in the order given. Only they are gathered, in one take from the
    stack's store through ``neighbours``, so every value is the one the
    world holds now.
    """
    if isinstance(world, WorldState):
        world, members = world.stack, world.index
    h, w = world.shape.yx
    c = world.n_channels
    if slots is None:
        slots = np.arange(9 * c)
    neighbour, plane, dynamic = _slot_offsets(c, h * w, np.asarray(slots, dtype=np.intp).tobytes())
    index = neighbours(h, w).take((ys * w + xs)[:, None] + neighbour)
    index += plane
    if world.n_members > 1:  # member 0's dynamic planes need no offset
        index += np.multiply.outer(members * world._members[0].size, dynamic)
    return world.store.take(index)


def total_mass(world: WorldState) -> float:
    """Sum of the mass channel over all cells — the fitness quantity."""
    return float(world.mass.sum())


def total_nutrient(world: WorldState) -> float:
    return float(world.nutrient.sum())


def dilate3x3(footprint: np.ndarray) -> np.ndarray:
    """Binary 3x3 dilation with zero (no wrap) boundary, over the last two
    axes (so a stack of footprints dilates member by member)."""
    h, w = footprint.shape[-2:]
    padded = np.zeros(footprint.shape[:-2] + (h + 2, w + 2), dtype=bool)
    padded[..., 1:-1, 1:-1] = footprint
    rows = padded[..., :, :-2] | padded[..., :, 1:-1] | padded[..., :, 2:]
    return rows[..., :-2, :] | rows[..., 1:-1, :] | rows[..., 2:, :]
