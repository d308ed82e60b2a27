"""Every output of a scheduled ``eincasm evolve`` run, pinned byte for byte.

The config exercises what the benchmark's workloads leave out: two
environment evaluations, an obstacle, and a schedule with one event of
each kind (a food removal, an obstacle move and a cell degradation), with
a checkpoint every generation. The run writes into a relative ``out``
under the test's own directory, so no path reaches the files. Serial and
pooled evaluation must write the same bytes. A digest recorded under
another numpy than ``bench/reference.json``'s is skipped, as the
benchmark skips it, because numpy's SIMD ``exp`` and ``tanh`` may move
fitness bits. The bytes do not depend on the string-hash seed either.
"""

import contextlib
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

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "reference.json")

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

# sha256 of each file in ``out`` and of stdout.
DIGESTS = {
    "best_genome.json": "cdd7f345833364c8d91e095de530bf70ff3f11403ef7fbe6a5d135fb4b75d6ec",
    "checkpoint_0000.json": "7c1db48ac44e0cad4cbe43f729a87967fe74b478808333e5398f374a6d30f2b7",
    "checkpoint_0001.json": "dd963fa4a9dd61e13c2a12c7802cc3038036cdb754a78bee3b1805dc721ca971",
    "checkpoint_0002.json": "bd5eb673499fa27f517a132dbde89894e703a9bd59c7fd0483cd30267c7fbb93",
    "checkpoint_final.json": "bd5eb673499fa27f517a132dbde89894e703a9bd59c7fd0483cd30267c7fbb93",
    "log.csv": "ac04a8a24d2cc5f5a1bee91d4a4c7758e427f6ae4151b0b3b3448afe80b624c5",
    "resolved_config.json": "58ae69337b2d8bbc028928b3f1f1645dcc3370354ea82b6557e5621edd5fa8c7",
    "stdout": "9fa9554419138a9c3b3b8e698d65e818af9c77dbff43d314064306e8760fa1a9",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def skip_under_another_numpy():
    with open(REFERENCE, encoding="utf-8") as handle:
        recorded = json.load(handle).get("numpy")
    if recorded != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded}, running numpy {np.__version__}")


@pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pooled"])
def test_scheduled_evolve_outputs_are_pinned(tmp_path, monkeypatch, threads):
    skip_under_another_numpy()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EINCASM_THREADS", threads)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["evolve", "--config", "config.json", "--out", "out"]) == 0
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in sorted(os.listdir("out"))}
    got["stdout"] = sha256(stdout.getvalue().encode("utf-8"))
    assert got == DIGESTS


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path, hash_seed):
    """The same run, serial, in a fresh interpreter per PYTHONHASHSEED."""
    skip_under_another_numpy()
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    package_root = os.path.dirname(os.path.dirname(eincasm.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed, "EINCASM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "eincasm.cli", "evolve", "--config", "config.json", "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in sorted(os.listdir(tmp_path / "out"))}
    got["stdout"] = sha256(proc.stdout)
    assert got == DIGESTS
