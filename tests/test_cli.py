"""Command-line surface: evolve, test, render, replay; file formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from eincasm import fileio
from eincasm.cli import main
from eincasm.config import DEFAULT_ENVIRONMENT, parse_config
from eincasm.cppn import genome_to_dict
from eincasm.driver import evolve_run
from eincasm.environments import EnvSpec
from eincasm.harness import chemotaxis_baseline, detour_spec, inert_genome
from eincasm.substrate import GridShape, Statics, WorldState, create_world


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
        log = open(os.path.join(out, "log.csv")).read().splitlines()
        assert log[0].split(",") == list(fileio.LOG_COLUMNS)
        assert len(log) == 3  # header + 2 generations
        assert os.path.exists(os.path.join(out, "best_genome.json"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))
        resolved = json.loads(open(os.path.join(out, "resolved_config.json")).read())
        assert resolved["evolution"]["population_size"] == 6

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out_a))]) == 0
        assert main(["evolve", "--config", write_config(tmp_path, smoke_config(out_b), "c2.json")]) == 0
        log_a = open(os.path.join(out_a, "log.csv"), "rb").read()
        log_b = open(os.path.join(out_b, "log.csv"), "rb").read()
        assert log_a == log_b
        best_a = open(os.path.join(out_a, "best_genome.json"), "rb").read()
        best_b = open(os.path.join(out_b, "best_genome.json"), "rb").read()
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
        resolved = json.loads(open(os.path.join(out, "resolved_config.json")).read())
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

    def test_checkpoint_written_and_loadable(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = smoke_config(out)
        cfg["checkpoint_every"] = 1
        assert main(["evolve", "--config", write_config(tmp_path, cfg)]) == 0
        with open(os.path.join(out, "checkpoint_final.json"), encoding="utf-8") as handle:
            checkpoint = json.load(handle)
        assert checkpoint["schema_version"] == fileio.SCHEMA_VERSION
        assert checkpoint["generation"] == 1  # the last of the two generations evaluated
        assert set(checkpoint["registry"]) == {"next_innovation", "next_node_id"}
        assert len(checkpoint["genomes"]) == 6

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
        header = open(os.path.join(out, "log.csv")).read().splitlines()[0]
        assert "failed" not in header  # the count is not a log.csv column


class TestDefaultConfig:
    def test_default_arena_has_food_and_evolution_beats_seed_energy(self):
        cfg = parse_config(
            {"evolution": {"population_size": 8}, "lifecycle": {"t_min": 20, "t_max": 20}, "generations": 2}
        )
        (env,) = cfg.environments
        assert env.to_dict() == EnvSpec.from_dict(DEFAULT_ENVIRONMENT).to_dict()
        assert len(env.food) == 1
        result = evolve_run(cfg, workers=1)
        seed_energy = cfg.lifecycle.seed_nutrient + cfg.physics.beta * cfg.lifecycle.seed_mass
        assert result.best_fitness > seed_energy

    def test_evolution_beats_its_founders(self):
        cfg = parse_config(
            {"evolution": {"population_size": 8, "seed": 5}, "lifecycle": {"t_min": 20, "t_max": 20}, "generations": 3}
        )
        stats = evolve_run(cfg, workers=1).stats
        assert [s.generation for s in stats] == [0, 1, 2]
        assert stats[-1].best_fitness > stats[0].best_fitness


class TestTestCommand:
    def test_baseline_battery_report(self, tmp_path):
        genome = write_genome(tmp_path, chemotaxis_baseline())
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--seed", "0", "--out", out]) == 0
        report = json.loads(open(out).read())
        names = {t["name"]: t for t in report["tests"]}
        assert names["pathfinding"]["completed"] is True
        assert report["iq"] > 0.0

    def test_inert_genome_scores_zero(self, tmp_path):
        genome = write_genome(tmp_path, inert_genome())
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--seed", "0", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["iq"] == 0.0

    def test_corrupt_genome_exits_2(self, tmp_path):
        path = tmp_path / "bad_genome.json"
        path.write_text("{broken")
        assert main(["test", str(path)]) == 2

    def test_dimension_mismatch_exits_2(self, tmp_path):
        genome = write_genome(tmp_path, chemotaxis_baseline(k_hidden=2))
        battery = tmp_path / "battery.json"
        battery.write_text(json.dumps({"k_hidden": 4, "tests": [{"name": "coordination"}]}))
        assert main(["test", genome, "--battery", str(battery)]) == 2

    @pytest.mark.parametrize(
        "tests",
        [
            [{"name": "corridor"}],
            [{"name": "coordination", "env": {"kind": "open_arena", "shape": [8, 8]}}],
            [{"name": "corridor", "env": {"kind": "open_arena", "shape": [8, 8]}}],  # no goal
            [],
        ],
    )
    def test_malformed_battery_exits_2(self, tmp_path, tests):
        genome = write_genome(tmp_path, inert_genome())
        battery = tmp_path / "battery.json"
        battery.write_text(json.dumps({"tests": tests}))
        assert main(["test", genome, "--battery", str(battery)]) == 2

    def test_custom_battery_runs(self, tmp_path):
        genome = write_genome(tmp_path, inert_genome())
        battery = tmp_path / "battery.json"
        env = detour_spec().to_dict()
        tests = [{"name": "detour", "env": env}, {"name": "coordination"}]
        battery.write_text(json.dumps({"lifecycle": {"t_min": 20, "t_max": 20}, "tests": tests}))
        out = str(tmp_path / "report.json")
        assert main(["test", genome, "--battery", str(battery), "--out", out]) == 0
        report = json.loads(open(out).read())
        assert [t["name"] for t in report["tests"]] == ["detour", "coordination"]


class TestRenderCommand:
    def test_rejected_arena_exits_2(self, tmp_path):
        genome = write_genome(tmp_path, inert_genome())
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"kind": "open_arena", "shape": [8, 8], "food": [[[9, 1, 1, 1], 2.0]]}))
        assert main(["render", genome, "--env", str(env), "--steps", "2", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_nonpositive_steps_exit_2(self, tmp_path, capsys, steps):
        genome = write_genome(tmp_path, inert_genome())
        out = str(tmp_path / "r")
        assert main(["render", genome, "--steps", steps, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(out)

    def test_frames_and_trajectory(self, tmp_path):
        genome = write_genome(tmp_path, inert_genome())
        out = str(tmp_path / "frames")
        code = main(
            ["render", genome, "--env", "corridor", "--steps", "8", "--frame-every", "9", "--out", out]
        )
        assert code == 0
        frames = sorted(f for f in os.listdir(out) if f.endswith(".ppm"))
        assert frames == ["frame_000000.ppm", "frame_000001.ppm"]  # initial + final
        payload = json.loads(open(os.path.join(out, "trajectory.json")).read())
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

    def test_empty_log_exits_2(self, tmp_path):
        assert main(["replay", self.make_log(tmp_path, empty=True)]) == 2

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "none.json")]) == 2

    def test_render_then_replay_round_trip(self, tmp_path):
        genome = write_genome(tmp_path, inert_genome())
        out = str(tmp_path / "frames")
        assert main(["render", genome, "--steps", "5", "--out", out]) == 0
        assert main(["replay", os.path.join(out, "trajectory.json")]) == 0


def test_console_entry_point_runs():
    # exercise the installed script end to end in a subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "eincasm.cli", "replay", "/nonexistent.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_atomic_write_replaces_content(tmp_path):
    path = str(tmp_path / "file.txt")
    fileio.atomic_write_text(path, "one")
    fileio.atomic_write_text(path, "two")
    assert open(path).read() == "two"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []
