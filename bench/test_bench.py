"""Fast self-test of the benchmark at tiny sizes:

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted, that the
traced spans nest, and that the benchmark refuses to run without the
package beside it.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402
from eincasm import fluid  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
NAMES = [w["name"] for w in SPEC["workloads"]]


def metric_names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(name):
    result, record = run.run(name, seed=3, seconds=0, trace=False, scale_name="TINY")
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_emitted(name):
    result, record = run.run(name, seed=3, seconds=0, trace=True, scale_name="TINY")
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == metric_names("per_layer")
    for span in run.SELF_TIMED:
        assert result["metrics"][f"{span}.self_s"]["value"] > 0, span
    assert record["missing_spans"] == [] and record["uncounted"] == []


def test_spans_nest_and_uninstall(tmp_path):
    original = fluid.step
    battery = workloads.Battery(0, workloads.TINY, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span("bench.op", battery.op)
    finally:
        tracer.uninstall()
    assert fluid.step is original
    assert tracer.check_nesting() == []

    def parents_of(name):
        return {tracer.names[tracer.parents[i]] for i, n in enumerate(tracer.names) if n == name}

    assert parents_of("fluid.step") == {"lifecycle.Simulation.step"}
    assert parents_of("lifecycle.Simulation.step") == {"lifecycle.Simulation.run"}
    steps = [tracer.lifecycles[i] for i, n in enumerate(tracer.names) if n == "lifecycle.Simulation.step"]
    assert len(set(steps)) == battery.ops  # one lifecycle id per test
    assert steps.count(steps[0]) == workloads.TINY.battery_lifespan
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)
    assert sum(own) == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_wrong_digest_or_error_counts_every_operation_as_failed():
    tally = run.Tally(expected="a")
    assert tally.attempt(3, lambda: workloads.OpResult("b", 1.0, 3, 1)) is None
    assert tally.attempt(1, lambda: 1 / 0) is None
    assert tally.attempt(1, lambda: workloads.OpResult("a", 1.0, 1, 1)) is not None
    assert (tally.attempted, tally.failed, len(tally.problems)) == (5, 4, 2)


def test_check_nesting_flags_escaping_child():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.starts, tracer.ends = [0.0, 0.5], [1.0, 1.5]
    tracer.parents, tracer.lifecycles = [-1, 0], [0, 0]
    assert len(tracer.check_nesting()) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_bracket_scales_by_the_loops_around_each_measurement():
    import speed

    bracket = speed.Bracket()
    factor = bracket.factor(0.0)
    before, after = bracket.loops
    assert factor == pytest.approx(speed.NOMINAL_S / ((before + after) / 2))
    start = time.perf_counter()
    bracket.factor(1.0)  # loops for at least a tenth of the measurement
    assert time.perf_counter() - start >= speed.Bracket.SAMPLE_SHARE
    assert len(bracket.loops) == 3 and bracket.last == bracket.loops[-1]
