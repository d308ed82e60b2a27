"""Every output of a scheduled ``eincasm evolve`` run, the report and
stdout of ``eincasm test`` on three batteries, and the frames, trajectory
and messages of two ``eincasm render`` runs, pinned byte for byte.

The config exercises what the benchmark's workloads leave out: two
environment evaluations, an obstacle, and a schedule with one event of
each kind (a food removal, an obstacle move and a cell degradation), with
a checkpoint every generation. The run writes into a relative ``out``
under the test's own directory, so no path reaches the files. Serial and
pooled evaluation must write the same bytes. The bytes do not depend on
the string-hash seed either.

The sha256 digests live in ``pins.json`` beside this file, keyed by test
id and output name, with the numpy version they were recorded under. A
digest recorded under another numpy is skipped, as the benchmark skips
its own, because numpy's SIMD ``exp`` and ``tanh`` may move fitness bits.
``python tests/record_pins.py`` re-records the file by running the
functions below, for a change meant to alter results.

A report is written without sorted keys, so its pin also holds each
metrics dict's key order, which the benchmark's sorted-key digest does not.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eincasm
from eincasm import cli
from eincasm.cppn import genome_to_dict
from eincasm.fileio import write_value
from eincasm.harness import STANDARD_BATTERY, chemotaxis_baseline, coordination_spec

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

CONFIG = {
    "evolution": {"population_size": 8, "seed": 4},
    "lifecycle": {
        "t_min": 40, "t_max": 80, "p_update": 0.5, "n_env_evals": 2,
        "schedule": [
            [10, {"kind": "remove_food", "region": [10, 7, 1, 1]}],
            [15, {"kind": "move_obstacle", "obstacle_id": 1, "displacement": [1, 0]}],
            [20, {"kind": "degrade_cells", "region": [0, 0, 6, 6], "fraction": 0.5}],
        ],
    },
    "environment": {
        "kind": "open_arena", "shape": [16, 16], "food": [[[10, 7, 3, 3], 1.0]], "obstacles": [[3, 3, 2, 2]],
    },
    "io": {"log_level": "quiet"},
    "generations": 3,
    "checkpoint_every": 1,
}


# Battery files for ``eincasm test``; None is the standard battery.
BATTERIES = {
    "standard": None,
    # the baseline's pumping breaks the fluid early in both tests
    "fluid_failure": {"tests": [
        {"name": "reach", "env": {"kind": "open_arena", "shape": [32, 32], "food": [[[24, 16, 3, 3], 8.0]],
                                  "seed_cell": [4, 16], "params": {"goal": [24, 16, 3, 3]}}},
        {"name": "coordination", "env": {**write_value(coordination_spec()), "shape": [32, 32], "seed_cell": [16, 16]}},
    ]},
    # drawn lifespans and stochastic selection: the seed matters
    "p_update_half": {
        "lifecycle": {"t_min": 200, "t_max": 400, "p_update": 0.5},
        "tests": [{"name": name, "env": write_value(make_spec())} for name, make_spec in STANDARD_BATTERY],
    },
}

#: The (battery, seed) pairs whose reports are pinned.
BATTERY_RUNS = [("standard", 0), ("fluid_failure", 0), ("p_update_half", 0), ("p_update_half", 3), ("p_update_half", 7)]

# Arguments of each ``eincasm render`` of the baseline genome, run in the
# test's own directory, and whether it succeeds. The 32x32 arena's fluid
# fails mid-run: the frames written before the failure stay, and no
# trajectory.json is written.
RENDERS = {
    "corridor": (["--env", "corridor", "--steps", "120", "--frame-every", "7"], 0),
    "fluid_failure": (["--env", "env.json", "--steps", "60"], 1),
}
FAILING_ARENA = {
    "kind": "open_arena", "shape": [32, 32], "food": [[[24, 16, 3, 3], 8.0]], "chemo_decay": 0.99, "chemo_iters": 64,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out: str, **streams: str) -> dict[str, str]:
    """The sha256 of every file in the directory ``out``, then of each
    named stream's text."""
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            digests[name] = sha256(handle.read())
    return digests | {name: sha256(text.encode("utf-8")) for name, text in streams.items()}


def write_baseline() -> None:
    with open("baseline.json", "w", encoding="utf-8") as handle:
        json.dump(genome_to_dict(chemotaxis_baseline()), handle)


# Each function below runs one pinned command in the current directory,
# which starts empty, and returns the digests of its outputs.


def scheduled_evolve() -> dict[str, str]:
    with open("config.json", "w", encoding="utf-8") as handle:
        json.dump(CONFIG, handle)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["evolve", "--config", "config.json", "--out", "out"]) == 0
    return output_digests("out", stdout=stdout.getvalue())


def battery_report(battery: str, seed: int) -> dict[str, str]:
    """The baseline genome, read from a relative path, on one battery."""
    write_baseline()
    argv = ["test", "baseline.json", "--seed", str(seed)]
    if BATTERIES[battery] is not None:
        with open("battery.json", "w", encoding="utf-8") as handle:
            json.dump(BATTERIES[battery], handle)
        argv += ["--battery", "battery.json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    with open("test_report.json", "rb") as handle:
        report = sha256(handle.read())
    return {"test_report.json": report, "stdout": sha256(stdout.getvalue().encode("utf-8"))}


def render_outputs(render: str) -> dict[str, str]:
    write_baseline()
    with open("env.json", "w", encoding="utf-8") as handle:
        json.dump(FAILING_ARENA, handle)
    flags, code = RENDERS[render]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(["render", "baseline.json", *flags, "--out", "out"]) == code
    return output_digests("out", stdout=stdout.getvalue(), stderr=stderr.getvalue())


#: Each pin's test id and the run that produces its digests.
PINNED_RUNS = {
    "test_scheduled_evolve_outputs_are_pinned": scheduled_evolve,
    **{f"test_battery_reports_are_pinned[{b}-{s}]": functools.partial(battery_report, b, s) for b, s in BATTERY_RUNS},
    **{f"test_render_outputs_are_pinned[{r}]": functools.partial(render_outputs, r) for r in RENDERS},
}


def pinned(test_id: str) -> dict[str, str]:
    """The digests pinned for ``test_id``; skipped under another numpy."""
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    if pins["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {pins['numpy']}, running numpy {np.__version__}")
    return pins["pins"][test_id]


@pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pooled"])
def test_scheduled_evolve_outputs_are_pinned(tmp_path, monkeypatch, threads):
    expected = pinned("test_scheduled_evolve_outputs_are_pinned")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EINCASM_THREADS", threads)
    assert scheduled_evolve() == expected


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path, hash_seed):
    """The same run, serial, in a fresh interpreter per PYTHONHASHSEED."""
    expected = pinned("test_scheduled_evolve_outputs_are_pinned")
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    package_root = os.path.dirname(os.path.dirname(eincasm.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed, "EINCASM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "eincasm.cli", "evolve", "--config", "config.json", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    assert output_digests(str(tmp_path / "out"), stdout=proc.stdout.decode("utf-8")) == expected


@pytest.mark.parametrize("battery, seed", BATTERY_RUNS, ids=[f"{b}-{s}" for b, s in BATTERY_RUNS])
def test_battery_reports_are_pinned(tmp_path, monkeypatch, battery, seed):
    expected = pinned(f"test_battery_reports_are_pinned[{battery}-{seed}]")
    monkeypatch.chdir(tmp_path)
    assert battery_report(battery, seed) == expected


@pytest.mark.parametrize("render", list(RENDERS))
def test_render_outputs_are_pinned(tmp_path, monkeypatch, render):
    expected = pinned(f"test_render_outputs_are_pinned[{render}]")
    monkeypatch.chdir(tmp_path)
    assert render_outputs(render) == expected
