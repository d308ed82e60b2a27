"""Every output of a scheduled ``eincasm evolve`` run, the report and
stdout of ``eincasm test`` on three batteries, and the frames, trajectory
and messages of two ``eincasm render`` runs, pinned byte for byte.

The config exercises what the benchmark's workloads leave out: two
environment evaluations, an obstacle, and a schedule with one event of
each kind (a food removal, an obstacle move and a cell degradation), with
a checkpoint every generation. The run writes into a relative ``out``
under the test's own directory, so no path reaches the files. Serial and
pooled evaluation must write the same bytes. A digest recorded under
another numpy than ``bench/reference.json``'s is skipped, as the
benchmark skips it, because numpy's SIMD ``exp`` and ``tanh`` may move
fitness bits. The bytes do not depend on the string-hash seed either.

A report is written without sorted keys, so its pin also holds each
metrics dict's key order, which the benchmark's sorted-key digest does not.
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
from eincasm.cppn import genome_to_dict
from eincasm.fileio import write_value
from eincasm.harness import STANDARD_BATTERY, chemotaxis_baseline, coordination_spec

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

# sha256 of (test_report.json, stdout) per (battery, seed).
REPORT_DIGESTS = {
    ("standard", 0): (
        "762560c27c4787acef03e36b26c64c4636fc45132221a9b98e88ec0bdc4a1e65",
        "6f8aac6e42abc32de71a4c49ec0f4644c689a3d086617019e39feb8698fe4174",
    ),
    ("fluid_failure", 0): (
        "9d1060565131896f360489cac13b01c799efcd34a57eda2174477bb9c74279a4",
        "df91dac4f525c0ff1318a31e10679b5585ebbd293c21bfeea21b614897315e94",
    ),
    ("p_update_half", 0): (
        "047365bf58e74e3d69ab2ffdf7830c77f5756ff28561a997f25fbf9c52d8a178",
        "0eea3cc721a98b0d55befb433642d99e4c40e2bd063791ac3e37cc3f38031149",
    ),
    ("p_update_half", 3): (
        "58791890fde083824676db1e6be787469e01c95b455c332dfb8f1d648465dd43",
        "d8d75f10b21bcf13f58e73d1b32096fe370c6e80831dc1b5c78927387e1b50ba",
    ),
    ("p_update_half", 7): (
        "6d7324625622c12222279c971e5f40daf0f27a3c421f70e3dbea63ef62ac68ad",
        "332523842b209c90643a491beb0135fe4a54363c059a8601942994761cf671d2",
    ),
}


@pytest.mark.parametrize("battery, seed", list(REPORT_DIGESTS), ids=[f"{b}-{s}" for b, s in REPORT_DIGESTS])
def test_battery_reports_are_pinned(tmp_path, monkeypatch, battery, seed):
    """The baseline genome, read from a relative path, on each battery."""
    skip_under_another_numpy()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "baseline.json").write_text(json.dumps(genome_to_dict(chemotaxis_baseline())))
    argv = ["test", "baseline.json", "--seed", str(seed)]
    if BATTERIES[battery] is not None:
        (tmp_path / "battery.json").write_text(json.dumps(BATTERIES[battery]))
        argv += ["--battery", "battery.json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    got = sha256((tmp_path / "test_report.json").read_bytes()), sha256(stdout.getvalue().encode("utf-8"))
    assert got == REPORT_DIGESTS[battery, seed]


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

# sha256 of each file in ``out``, and of stdout and stderr, per render.
RENDER_DIGESTS = {
    "corridor": {
        "frame_000000.ppm": "620756239705be1dfcf99bdc026ac633221e6bc51a59da3a853462f4fb3bde50",
        "frame_000001.ppm": "ef420f425b8bf2e36bee7d76f303beba659662dfa1950465f5dbcb27b6f0da0f",
        "frame_000002.ppm": "a468a0aa32582039476f053b5018135eb7821fa9061579a48e41bee65054017f",
        "frame_000003.ppm": "f1ddbc38f698868a838505471b144fcd8c84fb57cb34b551a1479d151c4af9b1",
        "frame_000004.ppm": "019c53974388f4fc0ec24e2c3dfd5fb752e2d25f89a15a8fade38d0aeff1bef1",
        "frame_000005.ppm": "43b29ead75cae85ac84fe0b4c02640451a72efd295de16b9c529880f824d27ae",
        "frame_000006.ppm": "12180e6cbe8bddbafdf2235a46857757226ec453c60ba63ca2c6f4733de25554",
        "frame_000007.ppm": "09ae8277d609d2c73e2a3c53ab5390438db9e2b6515c07f6e3e3e21a055a5ed0",
        "frame_000008.ppm": "6fc0de9b37a4d2115151ff8643702d27dcbfb07a50a9d8a891600ccdd391bd65",
        "frame_000009.ppm": "9cbe3bd77ce0beebaf7b5106dccff8de868bff7e5166e250ba10c5556397e6c4",
        "frame_000010.ppm": "d38da11a6cf5656bce15576e535c9bd134e7560c3623bdce70682803f9dd1778",
        "frame_000011.ppm": "b2fec149de2e09d24c71a59e4c22b09a162d22c5dbaed3292434b852035bc091",
        "frame_000012.ppm": "42c3a464720ae5c63e68d9503d7ffbd1e9d97b996b8fb420fd1d9b8ccae79b5d",
        "frame_000013.ppm": "9d67134802aac2385fdca13a0154d9435fbcac4a74bdd216b98ed56eb87d5bf0",
        "frame_000014.ppm": "9c2b344e8d74f9dac8d3fb176d0c3b29fd9a8369645dd788219f7c3e3f02104d",
        "frame_000015.ppm": "8189d48230c59338db75e03093570357d0c116046ba5d32fd5ddb2faf6dcf721",
        "frame_000016.ppm": "122b32903aefd598fbc38d050c424b957e5e2568a4c53b782ce372cca5368d90",
        "frame_000017.ppm": "d9aa09ebcb055e1723414a529f80ac2f51f6977d199bfe77b8647e45c5ba696d",
        "frame_000018.ppm": "43bd6dce8156d1fa582aea68c5a376de9f89faf577278f31f25ed1ae1a566f8a",
        "trajectory.json": "44eb3e7bc8e4d2adf04d22d93155672ceee9075059dffcc52c65d3288afedfe3",
        "stdout": "ea09fee5e3c79b217a1aea4497ed1cdc2db2f6c5943e63fea3a7ae76fedbb1c1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "fluid_failure": {
        "frame_000000.ppm": "ae19e34c2df8432c4ca2de485f26681bcf62075628026419def53af1cc093e48",
        "frame_000001.ppm": "72919438c2e0d614eaea7f1927c04f6a0e3a40f3b9c068701f300dcc56307a9f",
        "frame_000002.ppm": "ccf5dfbc2f3b3ead2f4da17414c0845180b2574c6a6375fb7c5ee6b3e98f0357",
        "frame_000003.ppm": "8d886bcde02f6a61bdf5f8b0bf7b1da47e12a1f6b46445930d438dfd5f511299",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "408b11ba5c3aa04a491113cdc83364a178a0efbb9415b73899bacb08fd91fc37",
    },
}


@pytest.mark.parametrize("render", list(RENDERS))
def test_render_outputs_are_pinned(tmp_path, monkeypatch, render):
    skip_under_another_numpy()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "baseline.json").write_text(json.dumps(genome_to_dict(chemotaxis_baseline())))
    (tmp_path / "env.json").write_text(json.dumps(FAILING_ARENA))
    flags, code = RENDERS[render]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(["render", "baseline.json", *flags, "--out", "out"]) == code
    got = {name: sha256((tmp_path / "out" / name).read_bytes()) for name in sorted(os.listdir("out"))}
    got["stdout"] = sha256(stdout.getvalue().encode("utf-8"))
    got["stderr"] = sha256(stderr.getvalue().encode("utf-8"))
    assert got == RENDER_DIGESTS[render]
