"""File formats and atomic persistence.

Every file the package writes is born in ``atomic_write_bytes``: it makes
the directory, creates a temporary file exclusively, with a plain ``open``'s
mode, and renames it over the target, so an interrupted run never leaves a
half-written file behind. All formats carry a ``schema_version`` so
downstream regression suites notice drift instead of silently absorbing it.

Formats:

* evolution log CSV: schema_version, generation, best_fitness,
  mean_fitness, n_species, best_genome_nodes, best_genome_connections;
* checkpoint JSON: {schema_version, config, generation, registry, genomes},
  a write-only snapshot for inspection: it omits species state, so no
  run resumes from it. It is compact one-line JSON, because ``json``
  encodes in C only without ``indent``, and a checkpoint of a whole
  population is the largest file a run writes, once per checkpoint
  interval. The small files a person reads (config, best genome, test
  report, trajectory) keep ``indent=2`` through ``write_json``;
* genome JSON (``cppn.genome_to_dict``): it lists every fixed input node
  and each node's kind, which follow from the node ids and which a
  ``Genome`` does not store; the reader checks them. Dropping them changes
  the format, so it waits for a schema bump (ROADMAP item 4);
* trajectory JSON: per-step records plus a SHA-256 over their canonical
  serialization — replay recomputes the hash, which catches an edit made
  to the records after the run wrote them; it does not re-simulate the
  run, so it cannot tell a nondeterministic run from a deterministic one;
* frames: binary PPM (P6), 8-bit, mass/chemoattractant/reservoir mapped
  to R/G/B with obstacles white.

Every config, arena and event record is read by ``read_value`` and
``read_record`` and written by ``write_value``, in a JSON form that follows
from its dataclass field hints alone. Every error is a TypeError or
ValueError that names the innermost key.

* a scalar is read by ``json_scalar``; ``X | None`` is null or an X;
* ``tuple[X, ...]`` is an array of X, ``tuple[X, Y]`` one of exactly an X
  and a Y, and a record of ints only (``Rect``, ``GridShape``) one of its
  fields in order, such as [x, y, w, h];
* any other record is an object of its fields, in field order: an unknown
  or a missing required key is an error, and an omitted key keeps its value
  in the base record, or else its default;
* a union of records (``PerturbationEvent``) is the member whose
  ``ClassVar`` ``kind`` is the object's "kind", written first;
* a bare ``tuple`` (``EnvSpec.params``) is an object of free values, kept
  as (key, value) pairs in key order.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import types
import typing

import numpy as np

from .substrate import WorldState

SCHEMA_VERSION = 1

LOG_COLUMNS = (
    "schema_version",
    "generation",
    "best_fitness",
    "mean_fitness",
    "n_species",
    "best_genome_nodes",
    "best_genome_connections",
)


_SCALAR_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
                 bool: (bool, "true or false")}


def json_scalar(key: str, value, kind: type):
    """A JSON value checked against one scalar type, raising TypeError that
    names ``key``: an int takes an integer, a float an integer or a float
    that is finite as a float (stored as a float), a str a string, a bool
    only true or false. True, false and null are never numbers, and nothing
    is truncated or parsed from a string."""
    accepted, noun = _SCALAR_KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{key!r} must be {noun}, got {value!r}")
    if kind is not float:
        return kind(value)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise TypeError(f"{key!r} must be a finite number, got {value!r:.40}")
    return number


@functools.cache
def _hints(cls) -> dict:
    """The type hint of each field of the dataclass ``cls``, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _int_record(hint) -> bool:
    return dataclasses.is_dataclass(hint) and set(_hints(hint).values()) == {int}


def read_value(key: str, value, hint):
    """The JSON value ``value`` read as the type ``hint`` by the rule in the
    module docstring, found under ``key``."""
    if hint in _SCALAR_KINDS:
        return json_scalar(key, value, hint)
    if hint is tuple:
        if not isinstance(value, dict):
            raise TypeError(f"{key!r} must be an object, got {value!r}")
        return tuple(sorted(value.items()))
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = {getattr(member, "kind", None): member for member in args if member is not type(None)}
        if len(members) == 1:  # X | None
            return read_value(key, value, *members.values())
        kind = value.get("kind") if isinstance(value, dict) else None
        if kind not in members:
            raise ValueError(f"{key!r} must be an object whose \"kind\" is one of {sorted(members)}, got {value!r}")
        return read_record(members[kind], {k: v for k, v in value.items() if k != "kind"}, key)
    if dataclasses.is_dataclass(hint) and not _int_record(hint):
        return read_record(hint, value, key)
    items = args or (int,) * len(_hints(hint))
    many = items[-1] is Ellipsis
    if not isinstance(value, (list, tuple)) or not many and len(value) != len(items):
        count = "a pair of" if len(items) == 2 else f"an array of {len(items)}"
        noun = "an array" if many else f"{count} {'integers' if set(items) == {int} else 'values'}"
        raise TypeError(f"{key!r} must be {noun}, got {value!r}")
    read = tuple(read_value(key, item, items[0] if many else items[i]) for i, item in enumerate(value))
    return read if args else hint(*read)


def read_record(cls, data, name: str, base=None):
    """The dataclass ``cls`` read from the JSON object ``data`` found under
    ``name``; a field ``data`` omits keeps its value in ``base``, if given."""
    if not isinstance(data, dict):
        raise TypeError(f"{name!r} must be an object, got {data!r}")
    hints = _hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    missing = base is None and [f.name for f in dataclasses.fields(cls) if f.name not in data
                                and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    values = {key: read_value(key, data[key], hint) for key, hint in hints.items() if key in data}
    return cls(**values) if base is None else dataclasses.replace(base, **values)


def write_value(value):
    """The JSON form that ``read_value`` reads back into ``value``."""
    if isinstance(value, (list, tuple)):
        return [write_value(item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value
    hints = _hints(type(value))
    if _int_record(type(value)):
        return [getattr(value, key) for key in hints]
    data = {} if "kind" in hints or not hasattr(value, "kind") else {"kind": value.kind}
    for key, hint in hints.items():
        item = write_value(getattr(value, key))
        data[key] = dict(item) if hint is tuple else item  # params: [[key, value], ...] as an object
    return data


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to a new temporary file beside ``path``, making the
    directory if need be, and rename it over ``path``. The kernel gives the
    file the mode of a plain ``open``, 0o666 less the file-creation mask. A
    name clash raises; a later failure removes the file this call created."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}{name}")
    handle = open(tmp, "xb")  # exclusive: never opens a file it did not create
    try:
        with handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def log_rows_to_csv(records: list) -> str:
    """The evolution log: the LOG_COLUMNS header, then those fields of each
    generation's record (a dataclass), a float as its repr."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=LOG_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow({**dataclasses.asdict(record), "schema_version": SCHEMA_VERSION})
    return buf.getvalue()


# -- trajectory logs ---------------------------------------------------------


def trajectory_digest(steps: list[dict]) -> str:
    canonical = json.dumps(steps, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trajectory_payload(meta: dict, steps: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "steps": steps,
        "sha256": trajectory_digest(steps),
    }


def verify_trajectory(payload: dict) -> bool:
    """True iff the embedded hash matches the recomputed one."""
    steps = payload.get("steps")
    if not isinstance(steps, list) or "sha256" not in payload:
        raise ValueError("trajectory log carries no steps or no hash")
    return trajectory_digest(steps) == payload["sha256"]


# -- frames ------------------------------------------------------------------


def render_frame(world: WorldState, display_max: float = 1.0) -> bytes:
    """Encode one world snapshot as binary PPM.

    R = mass, G = chemoattractant, B = reservoir, each quantized as
    round(255 * clamp(value / display_max, 0, 1)); obstacle cells render
    white.
    """
    h, w = world.shape.yx

    def quantize(channel: np.ndarray) -> np.ndarray:
        return np.round(255.0 * np.clip(channel / display_max, 0.0, 1.0)).astype(np.uint8)

    rgb = np.stack([quantize(world.mass), quantize(world.chemo), quantize(world.reservoir)], axis=-1)
    rgb[world.obstacle > 0.5] = 255
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def frame_name(index: int) -> str:
    return f"frame_{index:06d}.ppm"
