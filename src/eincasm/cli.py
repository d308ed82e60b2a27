"""Command-line surface: evolve | test | render | replay.

Batch commands over files — no live steering. Every command is
deterministic given (config, seed): rerunning produces byte-identical
logs, checkpoints, and frames. Exit codes: 0 success, 1 runtime failure
(including a failed replay hash check), 2 invalid configuration or input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio, harness
from .config import ConfigError, RunConfig, check_arenas, parse_config, read_json, read_section
from .cppn import GenomeError, genome_from_dict, genome_to_dict
from .driver import evolve_run
from .environments import EnvError, EnvSpec
from .fileio import SCHEMA_VERSION, json_scalar, read_record, read_value
from .lifecycle import LifecycleError, start_evaluation
from .neat import Population
from .substrate import total_mass, total_nutrient

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2

BUILTIN_ARENAS = {
    "corridor": harness.corridor_spec,
    "detour": harness.detour_spec,
    "coordination": harness.coordination_spec,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GenomeError, EnvError, LifecycleError, harness.HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eincasm", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p_evolve = sub.add_parser("evolve", help="run the evolution loop from a config file")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--seed", type=int, default=None)
    p_evolve.add_argument("--generations", type=int, default=None)
    p_evolve.add_argument("--pop", type=int, default=None)
    p_evolve.add_argument("--out", default=None)
    p_evolve.set_defaults(func=cmd_evolve)

    p_test = sub.add_parser("test", help="score a genome on the intelligence-test battery")
    p_test.add_argument("genome")
    p_test.add_argument("--battery", default="standard")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--out", default=None)
    p_test.set_defaults(func=cmd_test)

    p_render = sub.add_parser("render", help="run one lifecycle, writing PPM frames and a trajectory log")
    p_render.add_argument("genome")
    p_render.add_argument("--env", default="corridor", help="builtin arena name or an EnvSpec JSON path")
    p_render.add_argument("--seed", type=int, default=0)
    p_render.add_argument("--steps", type=int, default=400)
    p_render.add_argument("--out", default="render_out")
    p_render.add_argument("--frame-every", type=int, default=10)
    p_render.add_argument("--display-max", type=float, default=1.0)
    p_render.set_defaults(func=cmd_render)

    p_replay = sub.add_parser("replay", help="verify a trajectory log's embedded hash")
    p_replay.add_argument("log")
    p_replay.set_defaults(func=cmd_replay)
    return parser


# -- evolve -------------------------------------------------------------------


def cmd_evolve(args) -> int:
    data = read_json(args.config, "config")
    # overrides join the document before its one parse, so the file's own
    # values and the flags pass the same validation
    for section, key, value in (
        ("evolution", "seed", args.seed),
        ("evolution", "population_size", args.pop),
        ("io", "output_dir", args.out),
        (None, "generations", args.generations),
    ):
        if value is not None and isinstance(data, dict):
            target = data if section is None else data.setdefault(section, {})
            if isinstance(target, dict):  # else parse_config names the malformed section
                target[key] = value
    cfg = parse_config(data)
    check_arenas(cfg)

    out = cfg.io.output_dir
    fileio.write_json(os.path.join(out, "resolved_config.json"), cfg.to_dict())

    logged = []

    def on_generation(stats, pop: Population):
        logged.append(stats)
        if cfg.io.log_level != "quiet":
            print(
                f"gen {stats.generation:4d}  best {stats.best_fitness:10.4f}  "
                f"mean {stats.mean_fitness:10.4f}  species {stats.n_species}  failed {stats.n_failed}"
            )
        if (stats.generation + 1) % cfg.checkpoint_every == 0:
            write_checkpoint(os.path.join(out, f"checkpoint_{stats.generation:04d}.json"), cfg, pop)

    try:
        result = evolve_run(cfg, on_generation=on_generation)
    except Exception as exc:  # runtime failure: report it; the log keeps the finished generations
        print(f"error: evolution failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        fileio.atomic_write_text(os.path.join(out, "log.csv"), fileio.log_rows_to_csv(logged))
    if result.best_genome is not None:
        fileio.write_json(os.path.join(out, "best_genome.json"), genome_to_dict(result.best_genome))
    write_checkpoint(os.path.join(out, "checkpoint_final.json"), cfg, result.final_population)
    print(f"done: best fitness {result.best_fitness:.6f} after {cfg.generations} generations -> {out}")
    return EXIT_OK


def write_checkpoint(path: str, cfg: RunConfig, pop: Population) -> None:
    """The population as compact one-line JSON: without ``indent``, ``json``
    encodes it in C, several times faster than its indenting Python encoder."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "generation": pop.generation,
        "registry": pop.registry.counters(),
        "genomes": [genome_to_dict(g) for g in pop.members],
    }
    fileio.atomic_write_text(path, json.dumps(payload, separators=(",", ":")) + "\n")


# -- test ---------------------------------------------------------------------


def cmd_test(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    genome = genome_from_dict(read_json(args.genome, "genome"))
    seed = args.seed

    if args.battery == "standard":
        params, cfg, k_expected, tests = harness.harness_physics(), None, genome.k_hidden, None
    else:
        params, cfg, k_expected, tests = load_battery(args.battery)
    if genome.k_hidden != k_expected:
        raise ConfigError(f"genome has {genome.k_hidden} hidden channels, battery expects {k_expected}")
    for name, spec in tests or ():  # a battery file's tests all start before the first one runs
        harness.start_test(name, genome, params, spec, seed, cfg)

    report = harness.run_battery(genome, params, seed, cfg, tests)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "genome_id": os.path.basename(args.genome),
        "seed": seed,
        **report.to_dict(),
    }
    out_path = args.out or "test_report.json"
    fileio.write_json(out_path, payload)
    for score in report.tests:
        steps = score.steps_to_completion if score.completed else "-"
        failure = score.metrics.get("fluid_failure")
        print(
            f"{score.name:22s} completed={str(score.completed):5s} steps={steps} iq={score.iq_component:.3f}"
            + (f" fluid failure: {failure}" if failure else "")
        )
    print(f"IQ {report.iq:.4f} -> {out_path}")
    return EXIT_OK


def load_battery(path: str):
    """Read a battery file, {"physics": {...}, "lifecycle": {...}, "k_hidden":
    int, "tests": [{"name": str, "env": {...}}, ...]}, by the typing rule of
    ``fileio``; a key a section omits keeps the harness's own, and ``tests``
    is a non-empty array."""
    data = read_json(path, "battery")
    if not isinstance(data, dict) or set(data) - {"physics", "lifecycle", "k_hidden", "tests"}:
        raise ConfigError(f"battery {path} must be an object of 'physics', 'lifecycle', 'k_hidden' and 'tests'")
    params = read_section("physics", harness.harness_physics(), data.get("physics", {}))
    cfg = read_section("lifecycle", harness.harness_lifecycle(), data.get("lifecycle", {}))
    if cfg.n_env_evals != 1:  # a harness test scores evaluation 1 of its seed alone
        raise ConfigError(f"battery {path}: 'n_env_evals' must be 1, got {cfg.n_env_evals}")
    entries = data.get("tests")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"battery {path}: 'tests' must be a non-empty array, got {entries!r}")
    try:
        k_expected = json_scalar("k_hidden", data.get("k_hidden", harness.DEFAULT_K_HIDDEN), int)
        if k_expected < 1:
            raise ConfigError(f"'k_hidden' must be >= 1, got {k_expected}")
        tests = []
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) - {"name", "env"}:
                raise ConfigError(f"battery test {entry!r} must be an object of 'name' and optional 'env'")
            name = json_scalar("name", entry["name"], str)
            spec = read_value("env", entry.get("env"), EnvSpec | None)
            if name == "coordination" and spec is not None and spec.kind != "coordination":
                raise ConfigError(f"battery test {name!r} needs an env of kind 'coordination', got {spec.kind!r}")
            if name != "coordination" and spec is None:
                raise ConfigError(f"battery test {name!r} needs an env")
            tests.append((name, spec))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed battery {path}: {exc}") from exc
    return params, cfg, k_expected, tests


# -- render -------------------------------------------------------------------


def resolve_arena(name_or_path: str) -> EnvSpec:
    if name_or_path in BUILTIN_ARENAS:
        return BUILTIN_ARENAS[name_or_path]()
    data = read_json(name_or_path, "arena")
    try:
        return read_record(EnvSpec, data, "arena")
    except (TypeError, ValueError) as exc:
        raise EnvError(f"malformed arena {name_or_path}: {exc}") from exc


def cmd_render(args) -> int:
    for flag, value in (("--steps", args.steps), ("--frame-every", args.frame_every)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 0 < args.display_max < np.inf:  # NaN fails too
        raise ConfigError(f"--display-max must be finite and > 0, got {args.display_max}")
    genome = genome_from_dict(read_json(args.genome, "genome"))
    spec = resolve_arena(args.env)
    params = harness.harness_physics()
    cfg = harness.harness_lifecycle(t=args.steps)
    bundle = harness.build_arena(spec)
    sim, steps = start_evaluation(genome, bundle, params, cfg, args.seed, 1)

    out = args.out
    trajectory: list[dict] = []
    written = 0

    def observe(sim):
        nonlocal written
        world = sim.world
        trajectory.append({
            "step": sim.step_index,
            "total_mass": repr(total_mass(world)),
            "total_nutrient": repr(total_nutrient(world)),
        })
        if sim.step_index % args.frame_every == 0 or sim.step_index == steps:
            frame = fileio.render_frame(world, args.display_max)
            fileio.atomic_write_bytes(os.path.join(out, fileio.frame_name(written)), frame)
            written += 1

    observe(sim)
    sim.run(steps, observe)
    failure = sim.failures[0]
    if failure is not None:
        print(f"error: simulation failed: {failure}", file=sys.stderr)
        return EXIT_RUNTIME

    meta = {"genome": os.path.basename(args.genome), "env": args.env, "seed": args.seed, "steps": steps}
    fileio.write_json(os.path.join(out, "trajectory.json"), fileio.trajectory_payload(meta, trajectory))
    print(f"wrote {written} frames and trajectory.json -> {out}")
    return EXIT_OK


# -- replay -------------------------------------------------------------------


def cmd_replay(args) -> int:
    payload = read_json(args.log, "trajectory log")
    try:
        steps = payload["steps"]
        if steps:
            ok = fileio.verify_trajectory(payload)
            masses = [float(s["total_mass"]) for s in steps]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed trajectory log: {exc}") from exc
    if not steps:
        raise ConfigError("trajectory log has no steps")

    print(
        f"steps={len(steps) - 1} initial_mass={masses[0]:.6f} final_mass={masses[-1]:.6f} "
        f"peak_mass={max(masses):.6f}"
    )
    if not ok:
        print("hash mismatch: the trajectory log was changed after the run wrote it", file=sys.stderr)
        return EXIT_RUNTIME
    print("hash verified")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
