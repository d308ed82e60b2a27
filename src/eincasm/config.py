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

Each section is a dataclass (``EvolutionConfig``, ``PhysicsParams``,
``LifecycleConfig``, ``IoConfig``, and an ``EnvSpec`` per environment), read
and written by the typing rule of ``fileio``. Each ``schedule`` step must
lie in [0, t_max). The top-level counts take the int rule and must be >= 1.
``io.log_level`` is "info" or "quiet"; ``io.frame_every`` is read and echoed
but nothing uses it.

``parse_config`` checks each section on its own; ``check_arenas`` checks
them together by building the simulation of every arena a run evaluates
on, so the seed cell and the schedule are checked by the code that uses them.
``evolve`` writes its command-line overrides into the JSON document and
then parses it once, so a flag's value passes the checks a file's value
does, and a file value that a flag replaces is never read.

Every omitted key takes its documented default and the fully resolved
document is echoed to ``resolved_config.json`` so a run can always be
reproduced from its output directory alone. Without an "environment" key
the arena is ``DEFAULT_ENVIRONMENT``: a 16x16 open arena with a 3x3 food
patch at (10, 7), so evolution has something to select on (an arena
without food caps fitness at the seed energy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .cppn import empty_genome
from .environments import EnvError, EnvSpec, generate_cached
from .fileio import read_record, write_value
from .lifecycle import LifecycleConfig, LifecycleError, build_simulation, env_evaluations
from .neat import EvolutionConfig
from .physics import PhysicsParams


#: The arena a config without an "environment" key gets: a 16x16 open
#: arena with one food patch, so fitness can grow past the seed energy.
DEFAULT_ENVIRONMENT = {"kind": "open_arena", "shape": [16, 16], "food": [[[10, 7, 3, 3], 1.0]]}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass
class IoConfig:
    """Where a run writes and what it prints: ``log_level`` "info" prints a
    line per generation, "quiet" does not. ``frame_every`` is read and
    echoed to ``resolved_config.json``, but nothing uses it: ``render``
    takes its own ``--frame-every``."""

    output_dir: str = "out"
    frame_every: int = 0
    log_level: str = "info"

    def __post_init__(self):
        if self.log_level not in ("info", "quiet"):
            raise ValueError(f"log_level must be 'info' or 'quiet', got {self.log_level!r}")


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
        """The document ``parse_config`` reads back; one environment is an object."""
        data = {("environment" if key == "environments" else key): value for key, value in write_value(self).items()}
        if len(self.environments) == 1:
            data["environment"] = data["environment"][0]
        return data


def read_section(name: str, base, data):
    """The dataclass ``base`` with the fields its JSON object ``data``
    gives, read by ``fileio.read_record``; an omitted field keeps its value
    in ``base``. Raises ConfigError naming the section and the key."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {data!r}")
    try:
        return read_record(type(base), data, name, base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {*_SECTIONS, "environment", *_COUNTS}
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
    sections = {name: read_section(name, cls(), data.get(name, {})) for name, cls in _SECTIONS.items()}

    env_data = data.get("environment", DEFAULT_ENVIRONMENT)
    env_list = env_data if isinstance(env_data, list) else [env_data]
    try:
        environments = [read_record(EnvSpec, env, "environment") for env in env_list]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section 'environment': {exc}") from exc
    if not environments:
        raise ConfigError("config section 'environment': need at least one environment")

    counts = read_section("top level", RunConfig(), {key: data[key] for key in _COUNTS if key in data})
    return replace(counts, environments=environments, **sections)


def check_arenas(cfg: RunConfig) -> None:
    """Build the simulation of every environment evaluation a run makes,
    with one empty genome: its arena, seed cell and schedule. A config that
    would otherwise fail mid-run fails here, as a ConfigError naming the
    section, the arena seed and the key."""
    for spec in (spec for env in cfg.environments for spec in env_evaluations(env, cfg.lifecycle)):
        try:
            build_simulation(empty_genome(cfg.k_hidden), generate_cached(spec), cfg.physics, cfg.lifecycle, 0)
        except EnvError as exc:
            raise ConfigError(f"config section 'environment' (arena seed {spec.seed}): {exc}") from exc
        except LifecycleError as exc:
            raise ConfigError(f"config section 'lifecycle' (arena seed {spec.seed}): {exc}") from exc


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
