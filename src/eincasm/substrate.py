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

* cells are addressed as ``(x, y)``; arrays are indexed ``[y, x]`` and are
  C-contiguous float64, one array per channel (channel-major layout);
* the perception channel order is ``[O, P, F, C, M, R, N, H0..H(K-1)]``
  and the 3x3 neighborhood is scanned row-major from ``(x-1, y-1)`` to
  ``(x+1, y+1)``; genome input indices depend on this order, so it is
  frozen;
* reads outside the grid see a virtual obstacle cell: ``O=1``, every other
  channel 0. There is no wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Channel names in perception order. Hidden channels follow these seven.
BASE_CHANNELS = ("obstacle", "poison", "food", "chemo", "mass", "reservoir", "nutrient")
N_BASE_CHANNELS = len(BASE_CHANNELS)
#: Mass, reservoir, nutrient and the hidden channels change as the world runs.
FIRST_DYNAMIC_CHANNEL = BASE_CHANNELS.index("mass")

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


@dataclass
class WorldState:
    """All channels of one simulated world. Single source of truth per run.

    Mutated in place by the lifecycle; everything else treats it as
    read-only. Distinct WorldStates share no storage.
    """

    shape: GridShape
    obstacle: np.ndarray
    poison: np.ndarray
    food: np.ndarray
    chemo: np.ndarray
    mass: np.ndarray
    reservoir: np.ndarray
    nutrient: np.ndarray
    hidden: np.ndarray  # (K, height, width)

    @property
    def k_hidden(self) -> int:
        return self.hidden.shape[0]

    @property
    def n_channels(self) -> int:
        """Channels per cell as seen by perception."""
        return N_BASE_CHANNELS + self.k_hidden

    def channel_stack(self) -> np.ndarray:
        """(C, H, W) view-copy of all channels in perception order."""
        return np.concatenate(
            [
                np.stack(
                    [
                        self.obstacle,
                        self.poison,
                        self.food,
                        self.chemo,
                        self.mass,
                        self.reservoir,
                        self.nutrient,
                    ]
                ),
                self.hidden,
            ]
        )

    def copy(self) -> "WorldState":
        return WorldState(
            shape=self.shape,
            obstacle=self.obstacle.copy(),
            poison=self.poison.copy(),
            food=self.food.copy(),
            chemo=self.chemo.copy(),
            mass=self.mass.copy(),
            reservoir=self.reservoir.copy(),
            nutrient=self.nutrient.copy(),
            hidden=self.hidden.copy(),
        )

    def validate(self, kappa: float | None = None, atol: float = 1e-9):
        """Check every structural invariant; raise WorldError on violation.

        With ``kappa`` given, also checks the reservoir capacity bound
        R <= kappa * M. Used by tests after every mutating operation.
        """
        yx = self.shape.yx
        for name in BASE_CHANNELS:
            arr = getattr(self, name)
            if arr.shape != yx:
                raise WorldError(f"channel {name} has shape {arr.shape}, expected {yx}")
        if self.hidden.shape[1:] != yx:
            raise WorldError(f"hidden channels have shape {self.hidden.shape[1:]}, expected {yx}")
        if not np.isin(self.obstacle, (0.0, 1.0)).all():
            raise WorldError("obstacle channel must be binary")
        for name in ("poison", "food", "chemo", "mass", "reservoir", "nutrient"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all() or (arr < -atol).any():
                raise WorldError(f"channel {name} must be finite and nonnegative")
        if (np.abs(self.hidden) > 1.0 + atol).any():
            raise WorldError("hidden channels must stay in [-1, 1]")
        blocked = self.obstacle > 0.5
        for name in ("mass", "reservoir", "nutrient"):
            if (np.abs(getattr(self, name)[blocked]) > atol).any():
                raise WorldError(f"channel {name} must be zero on obstacle cells")
        if (np.abs(self.hidden[:, blocked]) > atol).any():
            raise WorldError("hidden channels must be zero on obstacle cells")
        if kappa is not None:
            if (self.reservoir > kappa * self.mass + atol).any():
                raise WorldError("reservoir exceeds kappa * mass")


def create_world(shape: GridShape, statics: Statics, k_hidden: int) -> WorldState:
    """Build a world from environment statics with zeroed dynamic state.

    Static fields are copied, so the caller's bundle stays untouched by the
    simulation. Raises WorldError on shape mismatch or ``k_hidden < 1``.
    """
    if k_hidden < 1:
        raise WorldError(f"k_hidden must be >= 1, got {k_hidden}")
    yx = shape.yx
    for name, arr in zip(("obstacle", "poison", "food", "chemo"), statics.arrays()):
        if np.asarray(arr).shape != yx:
            raise WorldError(f"static field {name} has shape {np.asarray(arr).shape}, expected {yx}")
    world = WorldState(
        shape=shape,
        obstacle=np.array(statics.obstacle, dtype=np.float64),
        poison=np.array(statics.poison, dtype=np.float64),
        food=np.array(statics.food, dtype=np.float64),
        chemo=np.array(statics.chemo, dtype=np.float64),
        mass=np.zeros(yx),
        reservoir=np.zeros(yx),
        nutrient=np.zeros(yx),
        hidden=np.zeros((k_hidden,) + yx),
    )
    world.validate()
    return world


@dataclass
class WorldStack:
    """P worlds on one arena, stacked so that each step is one set of
    array operations for all of them.

    The static channels (H, W) are shared by every member; mass, reservoir
    and nutrient are (P, H, W) and hidden is (P, K, H, W). ``padded`` is
    the perception buffer (C, P, H+2, W+2), one plane per channel in
    perception order, with a one-cell virtual-obstacle border (O=1,
    everything else 0) that realizes the boundary rule once. Its static
    channels are written by ``write_statics``; ``perceive_cells`` refreshes
    the dynamic ones it reads.
    """

    shape: GridShape
    obstacle: np.ndarray
    poison: np.ndarray
    food: np.ndarray
    chemo: np.ndarray
    mass: np.ndarray
    reservoir: np.ndarray
    nutrient: np.ndarray
    hidden: np.ndarray
    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h, w = self.shape.yx
        self.padded = np.zeros((N_BASE_CHANNELS + self.k_hidden, len(self.mass), h + 2, w + 2))
        self.padded[0] = 1.0  # virtual obstacle border; interior overwritten below
        self.write_statics()

    @staticmethod
    def of(worlds: list[WorldState]) -> "WorldStack":
        """Stack worlds that share the first one's static channels. The
        dynamic channels are copied; the statics are taken by reference."""
        first = worlds[0]
        return WorldStack(
            shape=first.shape,
            obstacle=first.obstacle,
            poison=first.poison,
            food=first.food,
            chemo=first.chemo,
            mass=np.stack([w.mass for w in worlds]),
            reservoir=np.stack([w.reservoir for w in worlds]),
            nutrient=np.stack([w.nutrient for w in worlds]),
            hidden=np.stack([w.hidden for w in worlds]),
        )

    @property
    def n_members(self) -> int:
        return len(self.mass)

    @property
    def k_hidden(self) -> int:
        return self.hidden.shape[1]

    def member(self, i: int) -> WorldState:
        """Member i as a WorldState of views: writes to it write the stack."""
        return WorldState(
            shape=self.shape,
            obstacle=self.obstacle,
            poison=self.poison,
            food=self.food,
            chemo=self.chemo,
            mass=self.mass[i],
            reservoir=self.reservoir[i],
            nutrient=self.nutrient[i],
            hidden=self.hidden[i],
        )

    def select(self, keep: np.ndarray) -> "WorldStack":
        """The stack of the members ``keep`` indexes, as new arrays."""
        return WorldStack(
            self.shape, self.obstacle, self.poison, self.food, self.chemo,
            self.mass[keep], self.reservoir[keep], self.nutrient[keep], self.hidden[keep],
        )

    def write_statics(self) -> None:
        """Copy the static channels into the perception buffer."""
        for c, arr in enumerate((self.obstacle, self.poison, self.food, self.chemo)):
            self.padded[c, :, 1:-1, 1:-1] = arr

    def _write_dynamics(self, channels) -> None:
        """Copy the given dynamic channels' current values into the
        perception buffer."""
        for c in channels:
            if c < N_BASE_CHANNELS:
                source = (self.mass, self.reservoir, self.nutrient)[c - FIRST_DYNAMIC_CHANNEL]
            else:
                source = self.hidden[:, c - N_BASE_CHANNELS]
            self.padded[c, :, 1:-1, 1:-1] = source


@lru_cache(maxsize=64)
def _slot_plan(n_channels: int, plane: int, row: int, slots: bytes) -> tuple[tuple[int, ...], np.ndarray]:
    """The dynamic channels a set of perception slots reads, and each
    slot's offset from a cell's centre in the flat perception buffer."""
    slots = np.frombuffer(slots, dtype=np.intp)
    neighbor, channel = np.divmod(slots, n_channels)
    dx, dy = np.array(NEIGHBORHOOD, dtype=np.intp).T
    offsets = channel * plane + dy[neighbor] * row + dx[neighbor]
    offsets.setflags(write=False)  # the cache hands it to every caller
    dynamic = tuple(sorted({int(c) for c in channel if c >= FIRST_DYNAMIC_CHANNEL}))
    return dynamic, offsets


def perceive_cells(
    world: WorldState | WorldStack,
    ys: np.ndarray,
    xs: np.ndarray,
    members: np.ndarray | None = None,
    slots: np.ndarray | None = None,
) -> np.ndarray:
    """Perception vectors for many cells at once: (n, len(slots)).

    ``world`` is one WorldState, or a WorldStack with ``members`` giving
    each cell's member. The full vector (``slots`` None) has 9 * n_channels
    columns: per cell, the 9 neighborhood cells in scan order, each
    contributing its channels in perception order. ``slots`` picks columns
    of that vector, in the order given; only they are gathered, and only the
    dynamic channels they read are refreshed from the world.
    """
    if isinstance(world, WorldState):
        world, members = WorldStack.of([world]), np.zeros(len(ys), dtype=np.intp)
    c, p, hp, wp = world.padded.shape
    if slots is None:
        slots = np.arange(9 * c)
    dynamic, offsets = _slot_plan(c, p * hp * wp, wp, np.asarray(slots, dtype=np.intp).tobytes())
    world._write_dynamics(dynamic)
    centre = (members * hp + ys + 1) * wp + xs + 1
    return world.padded.reshape(-1).take(centre[:, None] + offsets)


def perception_vector(world: WorldState, x: int, y: int) -> np.ndarray:
    """Flat perception vector of length 9 * (7 + K) for one in-bounds cell.

    Out-of-grid neighbors read as virtual obstacle cells. Pure read: never
    modifies the world.
    """
    if not world.shape.contains(x, y):
        raise WorldError(f"cell ({x}, {y}) out of bounds for {world.shape.width}x{world.shape.height}")
    return perceive_cells(world, np.array([y]), np.array([x]))[0]


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
