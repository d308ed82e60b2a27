"""Command-line surface: evolve, test, render, replay; file formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eincasm
from eincasm import cli, fileio, harness, neat
from eincasm.cli import load_battery, main
from eincasm.config import DEFAULT_ENVIRONMENT, parse_config
from eincasm.cppn import GenomeError, empty_genome, genome_from_dict, genome_to_dict, io_sizes
from eincasm.driver import evolve_run
from eincasm.environments import EnvSpec
from eincasm.fileio import read_record, write_value
from eincasm.harness import chemotaxis_baseline, detour_spec
from eincasm.substrate import GridShape, Statics, WorldState, create_world


DETOUR_TESTS = [{"name": "detour", "env": write_value(detour_spec())}]

PAIR = "must be a pair of integers"
FLAT = "must be a scalar or a flat array of scalars"
# An arena whose [x, y] pair or params object is malformed: (updates, message).
ENV_PAIR_CASES = [
    pytest.param({"shape": [12]}, f"'shape' {PAIR}", id="shape-one"),
    pytest.param({"shape": "12"}, f"'shape' {PAIR}", id="shape-string"),
    pytest.param({"seed_cell": []}, f"'seed_cell' {PAIR}", id="seed_cell-empty"),
    pytest.param({"seed_cell": False}, f"'seed_cell' {PAIR}", id="seed_cell-false"),
    pytest.param({"seed_cell": 0}, f"'seed_cell' {PAIR}", id="seed_cell-0"),
    pytest.param({"seed_cell": [1, 2, 3]}, f"'seed_cell' {PAIR}", id="seed_cell-three"),
    pytest.param({"params": [["goal", [1, 1, 2, 2]]]}, "'params' must be an object", id="params-pairs"),
    pytest.param({"params": {"goal": [[1, 2], 3, 4, 5]}}, f"'goal' {FLAT}", id="goal-nested-array"),
    pytest.param({"params": {"goal": {"a": 1}}}, f"'goal' {FLAT}", id="goal-object"),
    pytest.param({"kind": "deceptive_chemo", "params": {"false_peak": [3]}}, f"'false_peak' {PAIR}",
                 id="false_peak-one"),
    pytest.param({"kind": "deceptive_chemo", "params": {"false_peak": True}}, f"'false_peak' {PAIR}",
                 id="false_peak-true"),
]


def move_obstacle(displacement):
    return {"schedule": [[2, {"kind": "move_obstacle", "obstacle_id": 1, "displacement": displacement}]]}


EVOLVE_PAIR_CASES = [
    pytest.param({"environment": case.values[0]}, case.values[1], id=f"environment-{case.id}")
    for case in ENV_PAIR_CASES
] + [
    pytest.param({"lifecycle": {"seed_cell": []}}, f"'seed_cell' {PAIR}", id="lifecycle-seed_cell-empty"),
    pytest.param({"lifecycle": {"seed_cell": False}}, f"'seed_cell' {PAIR}", id="lifecycle-seed_cell-false"),
    pytest.param({"lifecycle": {"seed_cell": 0}}, f"'seed_cell' {PAIR}", id="lifecycle-seed_cell-0"),
    pytest.param({"lifecycle": move_obstacle([1])}, f"'displacement' {PAIR}", id="displacement-one"),
    pytest.param({"lifecycle": move_obstacle(True)}, f"'displacement' {PAIR}", id="displacement-true"),
    pytest.param({"lifecycle": move_obstacle([1, 0, 0])}, f"'displacement' {PAIR}", id="displacement-three"),
]


# A record whose form is wrong: (section, updates, the key the error names).
MALFORMED_RECORD_CASES = [
    pytest.param("lifecycle", {"schedule": [[2, {"kind": "remove_food", "region": [1, 1, 2, 2], "fraction": 0.5}]]},
                 "fraction", id="remove_food-fraction"),
    pytest.param("environment", {"food": [[[1, 1, 1], 2.0]]}, "food", id="food-rect-three"),
    pytest.param("environment", {"obstacles": [[1, 1, "a", 1]]}, "obstacles", id="obstacles-rect-string"),
    pytest.param("environment", {"obstacles": [5]}, "obstacles", id="obstacles-rect-5"),
    pytest.param("environment", {"obstacles": "abcd"}, "obstacles", id="obstacles-string"),
    pytest.param("lifecycle", {"schedule": [[1, 2, 3]]}, "schedule", id="schedule-entry-three"),
    pytest.param("lifecycle", {"schedule": [[2, {"kind": "remove_food", "region": [1, 1, 2]}]]}, "region",
                 id="region-three"),
]


def smoke_config(out_dir, pop=6, generations=2, seed=5):
    return {
        "evolution": {"population_size": pop, "seed": seed},
        "physics": {},
        "lifecycle": {"t_min": 10, "t_max": 10, "p_update": 0.5, "seed_nutrient": 2.0},
        "environment": {
            "kind": "open_arena",
            "shape": [12, 12],
            "food": [[[7, 5, 2, 2], 3.0]],
            "seed_cell": [6, 6],
        },
        "io": {"output_dir": out_dir, "log_level": "quiet"},
        "generations": generations,
        "k_hidden": 4,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_genome(tmp_path, genome, name="genome.json"):
    path = tmp_path / name
    path.write_text(json.dumps(genome_to_dict(genome)))
    return str(path)


class TestEvolveCommand:
    def test_produces_log_and_best_genome(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["evolve", "--config", write_config(tmp_path, smoke_config(out))])
        assert code == 0
        log = Path(out, "log.csv").read_text().splitlines()
        assert log[0].split(",") == list(fileio.LOG_COLUMNS)
        assert len(log) == 3  # header + 2 generations
        assert os.path.exists(os.path.join(out, "best_genome.json"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))
        resolved = json.loads(Path(out, "resolved_config.json").read_text())
        assert resolved["evolution"]["population_size"] == 6

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out_a))]) == 0
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out_b), "c2.json")]) == 0
        log_a = Path(out_a, "log.csv").read_bytes()
        log_b = Path(out_b, "log.csv").read_bytes()
        assert log_a == log_b
        best_a = Path(out_a, "best_genome.json").read_bytes()
        best_b = Path(out_b, "best_genome.json").read_bytes()
        assert best_a == best_b

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "evolution": {,}\n}')
        assert main(["evolve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err  # line-anchored message

    def test_unknown_key_rejected(self, tmp_path):
        cfg = smoke_config(str(tmp_path / "x"))
        cfg["evolutionn"] = {}
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2

    def test_overrides(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, smoke_config(str(tmp_path / "ignored")))
        code = main(["evolve", "--config", cfg, "--out", out, "--generations", "1", "--pop", "4", "--seed", "9"])
        assert code == 0
        resolved = json.loads(Path(out, "resolved_config.json").read_text())
        assert resolved["generations"] == 1
        assert resolved["evolution"]["population_size"] == 4
        assert resolved["evolution"]["seed"] == 9

    @pytest.mark.parametrize(
        "flags",
        [["--generations", "0"], ["--generations", "-2"], ["--pop", "1"]],
    )
    def test_invalid_override_exits_2(self, tmp_path, capsys, flags):
        out = str(tmp_path / "o")
        cfg = write_config(tmp_path, smoke_config(str(tmp_path / "ignored")))
        assert main(["evolve", "--config", cfg, "--out", out] + flags) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(os.path.join(out, "best_genome.json"))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param(None, "generations", "abc", id="generations-abc"),
            pytest.param(None, "generations", 2.9, id="generations-2.9"),
            pytest.param(None, "generations", 3.0, id="generations-3.0"),
            pytest.param(None, "generations", True, id="generations-True"),
            pytest.param(None, "k_hidden", None, id="k_hidden-None"),
            pytest.param(None, "k_hidden", "4", id="k_hidden-4"),
            pytest.param(None, "checkpoint_every", 1.5, id="checkpoint_every-1.5"),
            pytest.param(None, "checkpoint_every", [2], id="checkpoint_every-value7"),
            ("evolution", "population_size", 4.0),
            ("evolution", "seed", 1.5),
            ("lifecycle", "t_min", 2.9),
            ("lifecycle", "tau", "0.9"),
            ("lifecycle", "p_update", True),
            ("lifecycle", "seed_cell", [6.5, 6]),
            ("lifecycle", "seed_cell", [6, 6, 6]),
            ("lifecycle", "schedule", [[2.5, {"kind": "remove_food", "region": [7, 5, 1, 1]}]]),
            ("physics", "alpha", True),
            ("io", "output_dir", 5),
            pytest.param("lifecycle", "seed_cell", [40, 3], id="lifecycle-seed_cell-outside-arena"),
            pytest.param("physics", "alpha", 10**400, id="physics-alpha-1e400"),
            pytest.param("lifecycle", "tau", float("nan"), id="lifecycle-tau-NaN"),
            ("evolution", "seed", -1),
            ("lifecycle", "seed_mass", -1.0),
            ("lifecycle", "seed_nutrient", -2.0),
            ("environment", "seed", -1),
            ("environment", "chemo_iters", -5),
            pytest.param("environment", "chemo_decay", 1.5, id="environment-chemo_decay-above-1"),
            pytest.param("lifecycle", "schedule", [[2, {"kind": "remove_food", "region": [20, 20, 2, 2]}]],
                         id="lifecycle-schedule-region-outside-arena"),
            pytest.param("lifecycle", "schedule", [[10, {"kind": "remove_food", "region": [7, 5, 1, 1]}]],
                         id="lifecycle-schedule-step-at-t_max"),
            pytest.param("lifecycle", "schedule", [[50, {"kind": "remove_food", "region": [7, 5, 1, 1]}]],
                         id="lifecycle-schedule-step-beyond-t_max"),
            pytest.param("lifecycle", "schedule", [[-1, {"kind": "remove_food", "region": [7, 5, 1, 1]}]],
                         id="lifecycle-schedule-step-negative"),
            ("evolution", "weight_perturb_std", -0.5),
            ("evolution", "compatibility_threshold", -1),
            ("evolution", "c2", -1),
            ("physics", "v_min", 0),
            ("physics", "m_min", 0),
            ("io", "log_level", "quite"),
        ],
    )
    def test_non_integer_count_exits_2(self, tmp_path, capsys, section, key, value):
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        (cfg if section is None else cfg[section])[key] = value
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not os.path.exists(out)

    def test_seed_cell_on_an_obstacle_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        cfg["environment"]["obstacles"] = [[1, 1, 2, 2]]
        cfg["lifecycle"]["seed_cell"] = [2, 2]  # on the obstacle; the arena's own, (6, 6), is free
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed_cell'" in err and "obstacle" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed_cell", [[40, 3], [-1, 3]], ids=["40-3", "negative"])
    def test_obstacle_field_seed_cell_off_the_grid_exits_2(self, tmp_path, capsys, seed_cell):
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        cfg["environment"].update(kind="obstacle_field", seed_cell=seed_cell)
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"seed cell ({seed_cell[0]}, {seed_cell[1]})" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("updates, message", EVOLVE_PAIR_CASES)
    def test_malformed_pair_exits_2_naming_the_key(self, tmp_path, capsys, updates, message):
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        for section, values in updates.items():
            cfg[section].update(values)
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("section, updates, key", MALFORMED_RECORD_CASES)
    def test_malformed_record_exits_2_naming_the_key(self, tmp_path, capsys, section, updates, key):
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        cfg[section].update(updates)
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err
        assert not os.path.exists(out)

    def test_failed_run_keeps_the_log_of_its_finished_generations(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EINCASM_THREADS", "1")
        one = str(tmp_path / "one")
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(one, generations=1))]) == 0
        capsys.readouterr()

        def fail(*args):
            raise RuntimeError("no offspring")

        monkeypatch.setattr(neat, "next_generation", fail)
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out), "c2.json")]) == 1
        assert capsys.readouterr().err.startswith("error: evolution failed: no offspring")
        log = Path(out, "log.csv").read_bytes()
        assert len(log.splitlines()) == 2  # the header and generation 0
        assert log == Path(one, "log.csv").read_bytes()
        assert not os.path.exists(os.path.join(out, "best_genome.json"))
        assert not os.path.exists(os.path.join(out, "checkpoint_final.json"))

    def test_flag_replaces_a_faulty_file_value(self, tmp_path):
        """The config is parsed once, with the flags in it: a file value
        that a flag overrides is never read."""
        out = str(tmp_path / "o")
        cfg = smoke_config(out)
        cfg["evolution"]["population_size"] = 1
        assert main(["evolve", "--config", write_config(tmp_path, cfg), "--pop", "4"]) == 0
        resolved = json.loads(Path(out, "resolved_config.json").read_text())
        assert resolved["evolution"]["population_size"] == 4

    @pytest.mark.parametrize(
        "document, flags, message",
        [
            pytest.param([1, 2], ["--pop", "4"], "config root must be a JSON object", id="root-list"),
            pytest.param("text", ["--generations", "2"], "config root must be a JSON object", id="root-string"),
            pytest.param({"evolution": []}, ["--seed", "3"], "config section 'evolution' must be", id="evolution"),
            pytest.param({"io": "out"}, ["--out", "x"], "config section 'io' must be", id="io"),
        ],
    )
    def test_non_object_with_a_flag_exits_2(self, tmp_path, capsys, document, flags, message):
        path = write_config(tmp_path, document)
        assert main(["evolve", "--config", path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_resolved_config_bytes_are_pinned(self, tmp_path, monkeypatch):
        """resolved_config.json of a config with a seed cell and a two-event
        schedule, pinned byte for byte: a run is reproduced from this file,
        so its form must not drift."""
        monkeypatch.chdir(tmp_path)
        cfg = {
            "evolution": {"population_size": 6, "seed": 4},
            "lifecycle": {
                "t_min": 12, "t_max": 12, "p_update": 0.5, "seed_cell": [3, 3], "seed_nutrient": 2.0,
                "schedule": [
                    [4, {"kind": "move_obstacle", "obstacle_id": 1, "displacement": [0, 2]}],
                    [7, {"kind": "degrade_cells", "region": [2, 2, 3, 3], "fraction": 0.25}],
                ],
            },
            "environment": {
                "kind": "open_arena", "shape": [12, 12], "food": [[[7, 5, 2, 2], 3.0]], "obstacles": [[9, 1, 1, 2]],
            },
            "io": {"output_dir": "sched-out", "log_level": "quiet"},
            "generations": 2,
            "checkpoint_every": 1,
            "k_hidden": 4,
        }
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 0
        resolved = Path("sched-out", "resolved_config.json").read_bytes()
        assert hashlib.sha256(resolved).hexdigest() == "e57123f277c6a7470a885d2ea23454c9a126900eddbdc505211d82e394d5a6ca"

    def test_checkpoint_written_and_loadable(self, tmp_path, monkeypatch):
        """A checkpoint is one line of JSON that reads back into the run's
        config and the final population's genomes."""
        runs = []

        def recorded(cfg, on_generation=None):
            runs.append((cfg, evolve_run(cfg, on_generation)))
            return runs[-1][1]

        monkeypatch.setattr(cli, "evolve_run", recorded)
        out = str(tmp_path / "out")
        cfg = smoke_config(out)
        cfg["checkpoint_every"] = 1
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 0
        text = Path(out, "checkpoint_final.json").read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        checkpoint = json.loads(text)
        assert checkpoint["schema_version"] == fileio.SCHEMA_VERSION
        assert checkpoint["generation"] == 1  # the last of the two generations evaluated
        assert set(checkpoint["registry"]) == {"next_innovation", "next_node_id"}
        [(run_cfg, result)] = runs
        members = result.final_population.members
        assert len(checkpoint["genomes"]) == len(members) == 6
        for data, member in zip(checkpoint["genomes"], members):
            assert genome_to_dict(genome_from_dict(data)) == genome_to_dict(member)
        assert parse_config(checkpoint["config"]).to_dict() == run_cfg.to_dict()

    def test_no_stray_temp_files(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out))]) == 0
        stray = [f for f in os.listdir(out) if f.startswith(".tmp-")]
        assert stray == []

    def test_generation_line_reports_failed_lifecycles(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = smoke_config(out)
        cfg["io"]["log_level"] = "info"
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gen ")]
        assert len(lines) == 2
        assert all(line.endswith("failed 0") for line in lines)
        header = Path(out, "log.csv").read_text().splitlines()[0]
        assert "failed" not in header  # the count is not a log.csv column


class TestDefaultConfig:
    def test_default_arena_has_food_and_evolution_beats_seed_energy(self, monkeypatch):
        cfg = parse_config(
            {"evolution": {"population_size": 8}, "lifecycle": {"t_min": 20, "t_max": 20}, "generations": 2}
        )
        (env,) = cfg.environments
        assert write_value(env) == write_value(read_record(EnvSpec, DEFAULT_ENVIRONMENT, "environment"))
        assert len(env.food) == 1
        monkeypatch.setenv("EINCASM_THREADS", "1")
        result = evolve_run(cfg)
        seed_energy = cfg.lifecycle.seed_nutrient + cfg.physics.beta * cfg.lifecycle.seed_mass
        assert result.best_fitness > seed_energy

    def test_evolution_beats_its_founders(self, monkeypatch):
        cfg = parse_config(
            {"evolution": {"population_size": 8, "seed": 5}, "lifecycle": {"t_min": 20, "t_max": 20}, "generations": 3}
        )
        monkeypatch.setenv("EINCASM_THREADS", "1")
        stats = []
        evolve_run(cfg, on_generation=lambda generation_stats, pop: stats.append(generation_stats))
        assert [s.generation for s in stats] == [0, 1, 2]
        assert stats[-1].best_fitness > stats[0].best_fitness


class TestTestCommand:
    def test_baseline_battery_report(self, tmp_path):
        genome = write_genome(tmp_path, chemotaxis_baseline())
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--seed", "0", "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        names = {t["name"]: t for t in report["tests"]}
        assert names["pathfinding"]["completed"] is True
        assert report["iq"] > 0.0

    def test_fluid_failure_is_reported(self, tmp_path, capsys):
        """On 32x32 arenas the baseline's pumping breaks the fluid about 30
        steps into a 600-step life. Each test so cut short names the failure
        in its report entry and at the end of its stdout line; the command
        still exits 0."""
        genome = write_genome(tmp_path, chemotaxis_baseline())
        reach = {"kind": "open_arena", "shape": [32, 32], "food": [[[24, 16, 3, 3], 8.0]], "seed_cell": [4, 16],
                 "params": {"goal": [24, 16, 3, 3]}}
        wide = {**write_value(harness.coordination_spec()), "shape": [32, 32], "seed_cell": [16, 16]}
        battery = tmp_path / "battery.json"
        battery.write_text(json.dumps({"tests": [{"name": "reach", "env": reach},
                                                 {"name": "coordination", "env": wide}]}))
        out = tmp_path / "report.json"
        assert main(["test", genome, "--battery", str(battery), "--out", str(out)]) == 0
        failures = [
            "velocity 0.301 exceeds 0.3 at cell (11, 21) at step 27",
            "velocity 0.301 exceeds 0.3 at cell (9, 7) at step 32",
        ]
        assert [t["metrics"]["fluid_failure"] for t in json.loads(out.read_text())["tests"]] == failures
        lines = capsys.readouterr().out.splitlines()[:2]
        assert [line.split(" fluid failure: ")[1] for line in lines] == failures

    def test_a_velocity_above_the_cfl_bound_is_a_fluid_failure(self, tmp_path, capsys):
        """At rho_cap 5.0 the baseline drives a velocity above advection's
        CFL bound in the corridor: the test reports it as its fluid failure,
        in the report and on stdout, and the command exits 0."""
        genome = write_genome(tmp_path, chemotaxis_baseline())
        battery = tmp_path / "battery.json"
        battery.write_text(json.dumps({"physics": {"rho_cap": 5.0},
                                       "tests": [{"name": "corridor", "env": write_value(harness.corridor_spec())}]}))
        out = tmp_path / "report.json"
        assert main(["test", genome, "--battery", str(battery), "--out", str(out)]) == 0
        failure = "velocity component 0.516 exceeds the CFL bound 0.5 at cell (4, 2) at step 2"
        assert [t["metrics"]["fluid_failure"] for t in json.loads(out.read_text())["tests"]] == [failure]
        assert capsys.readouterr().out.splitlines()[0].endswith(f" fluid failure: {failure}")

    def test_inert_genome_scores_zero(self, tmp_path):
        genome = write_genome(tmp_path, empty_genome(4))
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--seed", "0", "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["iq"] == 0.0

    def test_corrupt_genome_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad_genome.json"
        path.write_text("{broken")
        assert main(["test", str(path)]) == 2
        data = genome_to_dict(chemotaxis_baseline())
        data["connections"][0]["enabled"] = "false"  # a string is not a bool
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["test", "render"])
    @pytest.mark.parametrize("gene", ["connection", "node"])
    def test_repeated_gene_exits_2(self, tmp_path, capsys, command, gene):
        data = genome_to_dict(chemotaxis_baseline())
        if gene == "connection":
            first = next(c for c in data["connections"] if c["innovation"] == 1)
            data["connections"].append({**first, "weight": 99.0})
            message = "innovation number 1 appears twice"
        else:
            output = next(n for n in data["nodes"] if n["kind"] == "output")
            data["nodes"].append({**output, "activation": "sine"})
            message = f"node id {output['id']} appears twice"
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "render"])
    @pytest.mark.parametrize("level, key", [("genome", "extra"), ("node", "weight"), ("connection", "gain")])
    def test_unknown_genome_key_exits_2(self, tmp_path, capsys, command, level, key):
        data = genome_to_dict(chemotaxis_baseline())
        entry = {"genome": data, "node": data["nodes"][0], "connection": data["connections"][0]}[level]
        entry[key] = 1.0
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {level} has unknown keys ['{key}']\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "render"])
    @pytest.mark.parametrize("k_hidden", [0, -1])
    def test_k_hidden_below_one_exits_2(self, tmp_path, capsys, command, k_hidden):
        """Sizes that agree with a k_hidden below 1 still make no world."""
        data = genome_to_dict(empty_genome(k_hidden))
        assert (data["n_inputs"], data["n_outputs"]) == io_sizes(k_hidden)
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: k_hidden must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("node, edge", [
        pytest.param({"id": -1, "kind": "hidden", "activation": "tanh", "bias": 0.0}, True, id="hidden-wired"),
        pytest.param({"id": -1, "kind": "hidden", "activation": "tanh", "bias": 0.0}, False, id="hidden-dead-end"),
        pytest.param({"id": -1, "kind": "input", "activation": "identity", "bias": 0.0}, False, id="input"),
    ])
    def test_negative_node_id_exits_2(self, tmp_path, capsys, node, edge):
        data = genome_to_dict(chemotaxis_baseline())
        data["nodes"].append(node)
        if edge:
            data["connections"].append({"innovation": 99, "from": -1, "to": data["n_inputs"], "weight": 1.0,
                                        "enabled": True})
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["test", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: node -1 is not an output or hidden id\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault, message", [
        pytest.param(lambda d: d["nodes"][3].update(activation="tanh"),
                     "input node 3 must be identity with zero bias", id="input-activation"),
        pytest.param(lambda d: d["nodes"][3].update(bias=0.5),
                     "input node 3 must be identity with zero bias", id="input-bias"),
        pytest.param(lambda d: d["nodes"].pop(3), "node 3 must be an input node", id="input-missing"),
        pytest.param(lambda d: d["nodes"][101].update(kind="hidden"),
                     "node 101 must be an output node", id="output-labelled-hidden"),
        pytest.param(lambda d: d["nodes"].append({"id": 106, "kind": "output", "activation": "tanh", "bias": 0.0}),
                     "node 106 outside io range must be hidden", id="hidden-labelled-output"),
        pytest.param(lambda d: d["connections"].append({"innovation": 8, "from": 5, "to": 3, "weight": 1.0,
                                                        "enabled": True}),
                     "connection 8 targets an input node", id="edge-into-input"),
        pytest.param(lambda d: d.update(n_inputs=99), "n_inputs/n_outputs inconsistent with k_hidden",
                     id="n_inputs"),
    ])
    def test_one_fault_in_a_genome_file_is_named(self, tmp_path, capsys, fault, message):
        """The reader checks the fixed input nodes and every node's kind a
        genome file lists: each single fault exits 2 with its own message."""
        data = genome_to_dict(chemotaxis_baseline())
        assert [n["id"] for n in data["nodes"]] == list(range(106))
        fault(data)
        with pytest.raises(GenomeError) as raised:
            genome_from_dict(data)
        assert str(raised.value) == message
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["test", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        genome = write_genome(tmp_path, chemotaxis_baseline(k_hidden=2))
        battery = tmp_path / "battery.json"
        battery.write_text(json.dumps({"k_hidden": 4, "tests": [{"name": "coordination"}]}))
        assert main(["test", genome, "--battery", str(battery)]) == 2
        assert capsys.readouterr().err == "error: genome has 2 hidden channels, battery expects 4\n"

    @pytest.mark.parametrize(
        "battery",
        [
            pytest.param({"tests": [{"name": "corridor"}]}, id="tests0"),
            pytest.param(
                {"tests": [{"name": "coordination", "env": {"kind": "open_arena", "shape": [8, 8]}}]}, id="tests1"
            ),
            pytest.param(
                {"tests": [{"name": "corridor", "env": {"kind": "open_arena", "shape": [8, 8]}}]}, id="tests2"
            ),  # no goal
            pytest.param({"tests": []}, id="tests3"),
            pytest.param({"lifecycle": {"tmin": 5}, "tests": [{"name": "coordination"}]}, id="lifecycle-unknown-key"),
            pytest.param({"lifecycle": {"t_min": 2.9}, "tests": [{"name": "coordination"}]}, id="lifecycle-t_min-2.9"),
            pytest.param({"physics": {"alpha": True}, "tests": [{"name": "coordination"}]}, id="physics-alpha-true"),
            pytest.param({"physics": {"alpha": 10**400}, "tests": [{"name": "coordination"}]}, id="physics-alpha-1e400"),
            pytest.param({"physics": {"v_min": 0}, "tests": [{"name": "coordination"}]}, id="physics-v_min-0"),
            pytest.param({"k_hidden": 4.0, "tests": [{"name": "coordination"}]}, id="k_hidden-4.0"),
            pytest.param({"lifecyle": {}, "tests": [{"name": "coordination"}]}, id="unknown-top-level-key"),
            pytest.param({"tests": [{"name": "coordination", "envv": {}}]}, id="unknown-test-key"),
            pytest.param([], id="not-an-object"),
            pytest.param({"lifecycle": {"seed_cell": [4, 3]}, "tests": DETOUR_TESTS},  # on the detour's bar
                         id="lifecycle-seed_cell-on-an-obstacle"),
            pytest.param({"lifecycle": {"schedule": [[2, {"kind": "remove_food", "region": [30, 3, 2, 2]}]]},
                          "tests": DETOUR_TESTS}, id="lifecycle-schedule-region-outside-arena"),
            pytest.param({"tests": [{"name": 5, "env": write_value(detour_spec())}]}, id="tests-name-5"),
            pytest.param({"lifecycle": {"t_min": 20, "t_max": 20,
                                        "schedule": [[20, {"kind": "remove_food", "region": [8, 3, 1, 1]}]]},
                          "tests": DETOUR_TESTS}, id="lifecycle-schedule-step-at-t_max"),
            # each harness test scores evaluation 1 of its seed alone
            pytest.param({"lifecycle": {"n_env_evals": 3}, "tests": [{"name": "coordination"}]},
                         id="lifecycle-n_env_evals-3"),
        ],
    )
    def test_malformed_battery_exits_2(self, tmp_path, capsys, battery):
        genome = write_genome(tmp_path, empty_genome(4))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(battery))
        out = tmp_path / "report.json"
        assert main(["test", genome, "--battery", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "n_env_evals" in err or "n_env_evals" not in json.dumps(battery)
        assert not out.exists()

    @pytest.mark.parametrize(
        "battery",
        [
            pytest.param({"tests": "ab"}, id="string"),
            pytest.param({"tests": {"name": "coordination"}}, id="object"),
            pytest.param({"k_hidden": 4}, id="missing"),
            pytest.param({"tests": []}, id="empty"),
        ],
    )
    def test_battery_tests_must_be_a_non_empty_array(self, tmp_path, capsys, monkeypatch, battery):
        monkeypatch.setattr(harness, "run_battery", lambda *args: pytest.fail("a test ran"))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(battery))
        out = tmp_path / "report.json"
        genome = write_genome(tmp_path, empty_genome(4))
        assert main(["test", genome, "--battery", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tests' must be a non-empty array" in err
        assert not out.exists()

    @pytest.mark.parametrize("env", [0, False, "", [], {}], ids=["0", "false", "empty-string", "empty-array",
                                                               "empty-object"])
    def test_falsy_battery_env_exits_2(self, tmp_path, capsys, monkeypatch, env):
        """A test's env is read whenever the key is present: only null means
        no env."""
        monkeypatch.setattr(harness, "run_battery", lambda *args: pytest.fail("a test ran"))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"tests": [{"name": "coordination", "env": env}]}))
        out = tmp_path / "report.json"
        assert main(["test", write_genome(tmp_path, empty_genome(4)), "--battery", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "battery, message",
        [
            ({"tests": [{"name": "coordination"},
                        {"name": "corridor", "env": {"kind": "open_arena", "shape": [8, 8]}}]},
             "error: arena spec carries no goal region"),
            ({"lifecycle": {"seed_cell": [4, 3]}, "tests": [{"name": "coordination"}] + DETOUR_TESTS},
             "error: 'seed_cell': seed cell (4, 3) is an obstacle"),
        ],
        ids=["goal", "seed_cell"],
    )
    def test_a_battery_test_that_cannot_start_fails_before_any_runs(self, tmp_path, capsys, monkeypatch, battery,
                                                                     message):
        """A later test's arena, goal, seed cell and schedule are checked
        before the first test runs, with the message its run would give."""
        monkeypatch.setattr(harness, "run_battery", lambda *args: pytest.fail("a test ran"))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(battery))
        out = tmp_path / "report.json"
        assert main(["test", write_genome(tmp_path, empty_genome(4)), "--battery", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_null_battery_env_runs_the_default_arena(self, tmp_path):
        path = tmp_path / "battery.json"
        tests = [{"name": "coordination", "env": None}]
        path.write_text(json.dumps({"lifecycle": {"t_min": 20, "t_max": 20}, "tests": tests}))
        out = tmp_path / "report.json"
        assert main(["test", write_genome(tmp_path, empty_genome(4)), "--battery", str(path), "--out", str(out)]) == 0
        assert [t["name"] for t in json.loads(out.read_text())["tests"]] == ["coordination"]

    @pytest.mark.parametrize(
        "lifecycle, message",
        [
            ({"seed_cell": [4, 3]}, "error: 'seed_cell': seed cell (4, 3) is an obstacle"),
            ({"schedule": [[2, {"kind": "remove_food", "region": [30, 3, 2, 2]}]]},
             "error: 'schedule': perturbation region Rect(x=30, y=3, w=2, h=2) out of bounds at step 2"),
        ],
        ids=["seed_cell", "schedule"],
    )
    def test_battery_lifecycle_errors_name_the_key(self, tmp_path, capsys, lifecycle, message):
        """A battery's lifecycle fails on a test arena with the message an
        evolve config gets, which names the key."""
        genome = write_genome(tmp_path, empty_genome(4))
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"lifecycle": lifecycle, "tests": DETOUR_TESTS}))
        assert main(["test", genome, "--battery", str(path), "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize(
        "key, battery",
        [
            ("--seed", None),
            ("seed_mass", {"lifecycle": {"seed_mass": -1.0}, "tests": [{"name": "coordination"}]}),
            ("seed_nutrient", {"lifecycle": {"seed_nutrient": -2.0}, "tests": [{"name": "coordination"}]}),
            ("seed", {"tests": [{"name": "detour", "env": {**write_value(detour_spec()), "seed": -1}}]}),
            ("chemo_iters", {"tests": [{"name": "detour", "env": {**write_value(detour_spec()), "chemo_iters": -5}}]}),
            ("m_min", {"physics": {"m_min": 0}, "tests": [{"name": "coordination"}]}),
            ("k_hidden", {"k_hidden": -1, "tests": [{"name": "coordination"}]}),
        ],
    )
    def test_negative_value_exits_2_naming_it(self, tmp_path, capsys, key, battery):
        argv = ["test", write_genome(tmp_path, empty_genome(4))]
        if battery is None:
            argv += ["--seed", "-1"]
        else:
            path = tmp_path / "battery.json"
            path.write_text(json.dumps(battery))
            argv += ["--battery", str(path)]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_custom_battery_runs(self, tmp_path):
        genome = write_genome(tmp_path, empty_genome(4))
        battery = tmp_path / "battery.json"
        env = write_value(detour_spec())
        tests = [{"name": "detour", "env": env}, {"name": "coordination"}]
        battery.write_text(json.dumps({"lifecycle": {"t_min": 20, "t_max": 20}, "tests": tests}))
        # the keys the lifecycle section omits keep the harness's values
        cfg = load_battery(str(battery))[1]
        assert (cfg.t_min, cfg.p_update, cfg.tau, cfg.seed_nutrient) == (20, 1.0, 1.2, 24.0)
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--battery", str(battery), "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert [t["name"] for t in report["tests"]] == ["detour", "coordination"]


class TestRenderCommand:
    def test_rejected_arena_exits_2(self, tmp_path):
        genome = write_genome(tmp_path, empty_genome(4))
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"kind": "open_arena", "shape": [8, 8], "food": [[[9, 1, 1, 1], 2.0]]}))
        assert main(["render", genome, "--env", str(env), "--steps", "2", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("updates, message", ENV_PAIR_CASES)
    def test_malformed_pair_exits_2_naming_the_key(self, tmp_path, capsys, updates, message):
        genome = write_genome(tmp_path, empty_genome(4))
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"kind": "open_arena", "shape": [12, 12], "food": [[[7, 5, 2, 2], 3.0]], **updates}))
        out = tmp_path / "r"
        assert main(["render", genome, "--env", str(env), "--steps", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--steps", "0"], id="0"),
            pytest.param(["--steps", "-5"], id="-5"),
            pytest.param(["--seed", "-1"], id="seed--1"),
            pytest.param(["--frame-every", "0"], id="frame-every-0"),
            pytest.param(["--frame-every", "-5"], id="frame-every--5"),
            pytest.param(["--display-max", "0"], id="display-max-0"),
            pytest.param(["--display-max", "-1"], id="display-max--1"),
            pytest.param(["--display-max", "nan"], id="display-max-nan"),
            pytest.param(["--display-max", "inf"], id="display-max-inf"),
        ],
    )
    def test_nonpositive_steps_exit_2(self, tmp_path, capsys, flags):
        genome = write_genome(tmp_path, empty_genome(4))
        out = str(tmp_path / "r")
        assert main(["render", genome, *flags, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0] in err
        assert not os.path.exists(out)

    def test_fluid_failure_exits_1(self, tmp_path, capsys):
        genome = write_genome(tmp_path, chemotaxis_baseline())
        env = tmp_path / "env.json"
        env.write_text(json.dumps({
            "kind": "open_arena", "shape": [32, 32], "food": [[[24, 16, 3, 3], 8.0]],
            "chemo_decay": 0.99, "chemo_iters": 64,
        }))
        out = tmp_path / "r"
        assert main(["render", genome, "--env", str(env), "--steps", "60", "--out", str(out)]) == 1
        failure = "velocity 0.304 exceeds 0.3 at cell (23, 11) at step 32"
        assert capsys.readouterr().err == f"error: simulation failed: {failure}\n"
        assert not (out / "trajectory.json").exists()

    def test_frames_and_trajectory(self, tmp_path):
        genome = write_genome(tmp_path, empty_genome(4))
        out = str(tmp_path / "frames")
        code = main(
            ["render", genome, "--env", "corridor", "--steps", "8", "--frame-every", "9", "--out", out]
        )
        assert code == 0
        frames = sorted(f for f in os.listdir(out) if f.endswith(".ppm"))
        assert frames == ["frame_000000.ppm", "frame_000001.ppm"]  # initial + final
        payload = json.loads(Path(out, "trajectory.json").read_text())
        assert len(payload["steps"]) == 9  # steps 0..8
        assert fileio.verify_trajectory(payload)

    def test_ppm_header_and_quantization(self):
        world = create_world(
            GridShape(3, 3),
            Statics(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))),
            1,
        )
        world.mass[1, 1] = 0.5
        world.obstacle[0, 0] = 1.0
        data = fileio.render_frame(world, display_max=1.0)
        assert data.startswith(b"P6\n3 3\n255\n")
        pixels = np.frombuffer(data[len(b"P6\n3 3\n255\n") :], dtype=np.uint8).reshape(3, 3, 3)
        assert tuple(pixels[0, 0]) == (255, 255, 255)  # obstacle renders white
        assert pixels[1, 1, 0] == 128  # round(255 * 0.5)
        assert pixels[1, 1, 1] == 0 and pixels[1, 1, 2] == 0

    def test_all_black_when_empty(self):
        world = create_world(
            GridShape(2, 2) if False else GridShape(3, 3),
            Statics(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))),
            1,
        )
        data = fileio.render_frame(world)
        pixels = np.frombuffer(data[len(b"P6\n3 3\n255\n") :], dtype=np.uint8)
        assert not pixels.any()


class TestReplayCommand:
    def make_log(self, tmp_path, tamper=False, empty=False):
        steps = [] if empty else [
            {"step": 0, "total_mass": "1.0", "total_nutrient": "2.0"},
            {"step": 1, "total_mass": "1.25", "total_nutrient": "1.75"},
        ]
        payload = fileio.trajectory_payload({"run": "x"}, steps)
        if tamper and steps:
            payload["steps"][1]["total_mass"] = "1.26"
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_untampered_log_verifies(self, tmp_path):
        assert main(["replay", self.make_log(tmp_path)]) == 0

    def test_flipped_byte_fails(self, tmp_path):
        assert main(["replay", self.make_log(tmp_path, tamper=True)]) == 1

    def test_empty_log_exits_2(self, tmp_path, capsys):
        assert main(["replay", self.make_log(tmp_path, empty=True)]) == 2
        assert capsys.readouterr().err == "error: trajectory log has no steps\n"

    @pytest.mark.parametrize(
        "steps",
        [[{"step": 0}], [{"step": 0, "total_mass": "abc", "total_nutrient": "1.0"}], [5]],
        ids=["no-total_mass", "total_mass-not-a-number", "step-not-an-object"],
    )
    def test_malformed_steps_with_a_matching_hash_exit_2(self, tmp_path, capsys, steps):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(fileio.trajectory_payload({"run": "x"}, steps)))
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed trajectory log")

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "none.json")]) == 2

    def test_render_then_replay_round_trip(self, tmp_path):
        genome = write_genome(tmp_path, empty_genome(4))
        out = str(tmp_path / "frames")
        assert main(["render", genome, "--steps", "5", "--out", out]) == 0
        assert main(["replay", os.path.join(out, "trajectory.json")]) == 0


def test_console_entry_point_runs():
    # exercise the script end to end in a subprocess that imports this package
    package_root = os.path.dirname(os.path.dirname(eincasm.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "eincasm.cli", "replay", "/nonexistent.json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2


def test_cli_import_loads_no_process_pool():
    """Only ``evolve`` opens a pool, so importing the CLI leaves the
    process-pool machinery unloaded for ``test``, ``render`` and ``replay``."""
    package_root = os.path.dirname(os.path.dirname(eincasm.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, eincasm.cli\n"
        "pool = ('concurrent.futures', 'concurrent.futures.process', 'multiprocessing')\n"
        "print([m for m in pool if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_atomic_write_replaces_content(tmp_path):
    path = str(tmp_path / "file.txt")
    fileio.atomic_write_text(path, "one")
    fileio.atomic_write_text(path, "two")
    assert Path(path).read_text() == "two"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    saved = os.umask(umask)
    try:
        fileio.atomic_write_text(str(tmp_path / "atomic.txt"), "text")
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("text")
    finally:
        os.umask(saved)
    mode = (tmp_path / "atomic.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert mode == (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert (tmp_path / "atomic.txt").read_text() == "text"


def test_writes_never_touch_the_umask(tmp_path, monkeypatch):
    """The umask is one per process, so a write leaves it alone; a report
    lands in a directory the write itself makes."""
    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    fileio.atomic_write_text(str(tmp_path / "a.txt"), "text")
    fileio.write_json(str(tmp_path / "b.json"), {"key": 1})
    genome = write_genome(tmp_path, empty_genome(4))
    out = tmp_path / "new" / "dir" / "report.json"
    assert main(["test", genome, "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["iq"] == 0.0
    assert (tmp_path / "a.txt").read_text() == "text"
    assert json.loads((tmp_path / "b.json").read_text()) == {"key": 1}


def test_failed_rename_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "file.txt"
    fileio.atomic_write_text(str(path), "old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        fileio.atomic_write_text(str(path), "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["file.txt"]


def test_every_public_name_resolves():
    for name in eincasm.__all__:
        assert hasattr(eincasm, name), name
