"""Run configuration: one JSON document wiring every subsystem together.

Layout:

    {
      "evolution":   {... EvolutionConfig fields ...},
      "physics":     {... PhysicsParams fields ...},
      "lifecycle":   {... LifecycleConfig fields ...},
      "environment": {... EnvSpec ...} | [{...}, ...],
      "io":          {"output_dir": str, "frame_every": int, "log_level": str},
      "generations": int,
      "k_hidden":    int,
      "checkpoint_every": int
    }

This module is the one place that knows the JSON form of the sections
(``EvolutionConfig``, ``PhysicsParams``, ``LifecycleConfig``,
``IoConfig``): ``read_section`` reads and ``write_section`` writes each one
from its dataclass fields, in field order. The typing rule, shared with
environment specs (``environments.json_scalar``): an unknown key is an
error; an int field takes a JSON integer; a float field takes an integer
or a float and stores a float; a str field takes a string; true, false and
null are never numbers, and nothing is truncated or parsed from a string.
Only the lifecycle's ``seed_cell`` (null or [x, y]) and ``schedule``
([[step, event], ...], events as ``event_to_dict`` writes them) have forms
of their own. The top-level counts take the int rule and must be >= 1.

Every omitted key takes its documented default and the fully resolved
document is echoed to ``resolved_config.json`` so a run can always be
reproduced from its output directory alone. Without an "environment" key
the arena is ``DEFAULT_ENVIRONMENT``: a 16x16 open arena with a 3x3 food
patch at (10, 7), so evolution has something to select on (an arena
without food caps fitness at the seed energy).
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields, replace

from .environments import EnvSpec, json_scalar
from .lifecycle import LifecycleConfig, event_from_dict, event_to_dict
from .neat import EvolutionConfig
from .physics import PhysicsParams


#: The arena a config without an "environment" key gets: a 16x16 open
#: arena with one food patch, so fitness can grow past the seed energy.
DEFAULT_ENVIRONMENT = {"kind": "open_arena", "shape": [16, 16], "food": [[[10, 7, 3, 3], 1.0]]}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass
class IoConfig:
    output_dir: str = "out"
    frame_every: int = 0  # 0 = no frames
    log_level: str = "info"


_SECTIONS = {"evolution": EvolutionConfig, "physics": PhysicsParams, "lifecycle": LifecycleConfig, "io": IoConfig}
_COUNTS = ("generations", "k_hidden", "checkpoint_every")


@dataclass
class RunConfig:
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    environments: list[EnvSpec] = field(default_factory=list)
    io: IoConfig = field(default_factory=IoConfig)
    generations: int = 20
    k_hidden: int = 4
    checkpoint_every: int = 10

    def __post_init__(self):
        for key in _COUNTS:
            if getattr(self, key) < 1:
                raise ValueError(f"{key!r} must be >= 1, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        envs = [e.to_dict() for e in self.environments]
        return {
            "evolution": write_section(self.evolution),
            "physics": write_section(self.physics),
            "lifecycle": write_section(self.lifecycle),
            "environment": envs[0] if len(envs) == 1 else envs,
            "io": write_section(self.io),
            "generations": self.generations,
            "k_hidden": self.k_hidden,
            "checkpoint_every": self.checkpoint_every,
        }


def read_section(name: str, cls, data):
    """The dataclass ``cls`` read from its JSON object ``data`` by the
    typing rule; an omitted field takes its default. Raises ConfigError
    naming the section and the key."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {data!r}")
    types = typing.get_type_hints(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown keys {sorted(unknown)}")
    try:
        return cls(**{key: _read_field(key, types[key], value) for key, value in data.items()})
    except KeyError as exc:  # an event without one of its keys
        raise ConfigError(f"config section {name!r}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def _read_field(key: str, kind, value):
    if key == "seed_cell":  # null or [x, y]
        return None if value is None else tuple(json_scalar(key, v, int) for v in value)
    if key == "schedule":  # [[step, event], ...]
        return tuple((json_scalar(key, step, int), event_from_dict(event)) for step, event in value)
    return json_scalar(key, value, kind)


def write_section(section) -> dict:
    """The JSON object ``read_section`` reads back into ``section``: its
    fields in field order."""
    data = {f.name: getattr(section, f.name) for f in fields(section)}
    if "seed_cell" in data:
        data["seed_cell"] = list(data["seed_cell"]) if data["seed_cell"] else None
    if "schedule" in data:
        data["schedule"] = [[step, event_to_dict(event)] for step, event in data["schedule"]]
    return data


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {*_SECTIONS, "environment", *_COUNTS}
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
    sections = {name: read_section(name, cls, data.get(name, {})) for name, cls in _SECTIONS.items()}

    env_data = data.get("environment", DEFAULT_ENVIRONMENT)
    env_list = env_data if isinstance(env_data, list) else [env_data]
    try:
        environments = [EnvSpec.from_dict(e) for e in env_list]
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"config section 'environment': {exc}") from exc
    if not environments:
        raise ConfigError("config section 'environment': need at least one environment")

    counts = read_section("top level", RunConfig, {key: data[key] for key in _COUNTS if key in data})
    return replace(counts, environments=environments, **sections)


def read_json(path: str, what: str):
    """The JSON document in a file. A ConfigError names the file, and a
    syntax error its line and column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path: str) -> RunConfig:
    """Read and validate a config file; semantic errors name the key."""
    return parse_config(read_json(path, "config"))
