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

Unknown keys are rejected; every omitted key takes its documented default
and the fully resolved document is echoed to ``resolved_config.json`` so
a run can always be reproduced from its output directory alone. Without
an "environment" key the arena is ``DEFAULT_ENVIRONMENT``: a 16x16 open
arena with a 3x3 food patch at (10, 7), so evolution has something to
select on (an arena without food caps fitness at the seed energy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .environments import EnvSpec
from .lifecycle import LifecycleConfig
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

    def to_dict(self) -> dict:
        return {"output_dir": self.output_dir, "frame_every": self.frame_every, "log_level": self.log_level}


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

    def to_dict(self) -> dict:
        envs = [e.to_dict() for e in self.environments]
        return {
            "evolution": self.evolution.to_dict(),
            "physics": self.physics.to_dict(),
            "lifecycle": self.lifecycle.to_dict(),
            "environment": envs[0] if len(envs) == 1 else envs,
            "io": self.io.to_dict(),
            "generations": self.generations,
            "k_hidden": self.k_hidden,
            "checkpoint_every": self.checkpoint_every,
        }


_SECTION_KEYS = {
    "evolution",
    "physics",
    "lifecycle",
    "environment",
    "io",
    "generations",
    "k_hidden",
    "checkpoint_every",
}


def _build_section(section: str, cls, data: dict, valid_keys: set[str]):
    unknown = set(data) - valid_keys
    if unknown:
        raise ConfigError(f"config section {section!r}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {section!r}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _SECTION_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")

    evolution = _build_section(
        "evolution", EvolutionConfig, data.get("evolution", {}), set(EvolutionConfig().to_dict())
    )
    physics = _build_section("physics", PhysicsParams, data.get("physics", {}), set(PhysicsParams().to_dict()))
    lc_data = data.get("lifecycle", {})
    lc_unknown = set(lc_data) - set(LifecycleConfig().to_dict())
    if lc_unknown:
        raise ConfigError(f"config section 'lifecycle': unknown keys {sorted(lc_unknown)}")
    try:
        lifecycle = LifecycleConfig.from_dict(lc_data)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"config section 'lifecycle': {exc}") from exc

    env_data = data.get("environment", DEFAULT_ENVIRONMENT)
    env_list = env_data if isinstance(env_data, list) else [env_data]
    try:
        environments = [EnvSpec.from_dict(e) for e in env_list]
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"config section 'environment': {exc}") from exc
    if not environments:
        raise ConfigError("config section 'environment': need at least one environment")

    io_data = dict(data.get("io", {}))
    io_cfg = _build_section("io", IoConfig, io_data, {"output_dir", "frame_every", "log_level"})

    return RunConfig(
        evolution=evolution,
        physics=physics,
        lifecycle=lifecycle,
        environments=environments,
        io=io_cfg,
        generations=_count(data, "generations", 20),
        k_hidden=_count(data, "k_hidden", 4),
        checkpoint_every=_count(data, "checkpoint_every", 10),
    )


def _count(data: dict, key: str, default: int) -> int:
    """A top-level integer >= 1; a float, string, bool or null is an error,
    never truncated."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{key!r} must be >= 1")
    return value


def load_config(path: str) -> RunConfig:
    """Read and validate a config file. JSON syntax errors surface with
    their line and column; semantic errors name the key path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(data)
