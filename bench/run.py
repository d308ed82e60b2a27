"""eincasm benchmark: one command, two workloads, every metric by name.

    python3 bench/run.py --workload {evolve16,battery} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the package under ``src/`` next to
this directory. With ``--trace 0`` it measures the end-to-end metrics with
tracing off: set-up time from a fresh interpreter, then operations
repeated for at least ``--seconds``, each time normalised to the host's
speed around it (speed.py). With ``--trace 1`` it runs each
operation untraced and then traced, and reports per-layer self times,
counts, the tracing overhead, the driver's pool scaling (evolve16) and the
per-layer grid sweep. Every run checks its outputs: each operation's
digest must repeat, match the serial run (evolve16) and match the
recorded reference for this seed. Human-readable lines and a run record
come first; the last line of standard output is the JSON result. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")

#: Spans every workload exercises; their self times are per-layer metrics.
#: Self times of the other spans are in the run record only, because a
#: metric must be present on every workload and a zero time repeats exactly.
SELF_TIMED = (
    "lifecycle.build_simulation",
    "lifecycle.Simulation.run",
    "lifecycle.Simulation.step",
    "substrate.dilate3x3",
    "substrate.perceive_cells",
    "cppn.compile_genome",
    "cppn.Phenotype.evaluate_batch",
    "physics.constrain",
    "fluid.step",
    "fluid.macroscopic",
    "fluid.advect_scalar",
    "environments.generate",
    "environments.chemoattractant_field",
)
COUNTED = (
    "substrate.perceive_cells.rows",
    "cppn.Phenotype.evaluate_batch.rows",
    "physics.constrain.cells",
    "fileio.atomic_write_text.bytes",
    "fluid.truncations",
)


class BenchError(RuntimeError):
    pass


def bootstrap() -> None:
    """Put this checkout's package first on the path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "eincasm", "__init__.py")):
        raise BenchError(f"no eincasm package under {SRC}")
    sys.path.insert(0, SRC)
    import eincasm

    if not os.path.abspath(eincasm.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported eincasm from {eincasm.__file__}, not from {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def last_level_cache() -> str:
    """Size of the highest cache level of CPU 0, as the kernel reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = []
    try:
        for entry in os.listdir(base):
            if entry.startswith("index"):
                with open(os.path.join(base, entry, "level")) as level, open(os.path.join(base, entry, "size")) as size:
                    caches.append((int(level.read()), size.read().strip()))
    except (OSError, ValueError):
        return "unknown"
    if not caches:
        return "unknown"
    level, size = max(caches)
    return f"L{level} {size}"


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_reference(name: str, seed: int, numpy_version: str) -> tuple[str | None, str]:
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None, "no reference file"
    if data.get("numpy") != numpy_version:
        return None, f"reference recorded with numpy {data.get('numpy')}"
    digest = data.get("digests", {}).get(name, {}).get(str(seed))
    return digest, "recorded" if digest else f"no reference for seed {seed}"


class Tally:
    """Attempted and failed operations, and the digests to compare."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: set[str] = set()

    def attempt(self, ops: int, fn, *args):
        self.attempted += ops
        try:
            result = fn(*args)
        except Exception as exc:  # any failure of the program counts against it
            self.failed += ops
            self.problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.seen.add(result.digest)
        if self.expected is None:
            self.expected = result.digest
        if result.digest != self.expected:
            self.failed += ops
            self.problems.append(f"digest {result.digest[:16]} differs from expected {self.expected[:16]}")
            return None
        return result


def setup_probe(workload, scale_name: str, workdir: str, tally: Tally) -> float | None:
    """Seconds from spawning a fresh interpreter to its first step."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "probe.py"), workload.name, str(workload.seed), scale_name, workdir,
         repr(spawned)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        tally.problems.append(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return float(proc.stdout.split()[-1])


def probe(workload, scale_name: str, workdir: str, tally: Tally, bracket) -> tuple[float | None, float]:
    """A set-up probe's wall seconds and its speed factor."""
    seconds = setup_probe(workload, scale_name, workdir, tally)
    return seconds, bracket.factor(seconds or 0.0)


def run_untraced(workload, tally: Tally, seconds: float, scale_name: str, workdir: str) -> tuple[dict, dict]:
    """End-to-end metrics: operations for >= seconds, with the set-up probes
    spread between them so that a slow spell of the machine hits few.
    Every time is normalised to the host's speed around it (speed.py)."""
    import speed

    pooled = (nproc(),) if workload.name == "evolve16" else ()
    bracket = speed.Bracket()
    setup, timed = [], []  # (wall seconds, speed factor)
    start = time.perf_counter()
    while True:
        if len(setup) < workload.scale.probes:
            setup.append(probe(workload, scale_name, workdir, tally, bracket))
        result = tally.attempt(workload.ops, workload.op, *pooled)
        factor = bracket.factor(result.wall_s if result else 0.0)
        if result is not None:
            timed.append((result, factor))
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < workload.scale.probes:
        setup.append(probe(workload, scale_name, workdir, tally, bracket))
    if workload.name == "evolve16":  # the pooled digest must equal a serial run's
        tally.attempt(workload.ops, workload.op, 1)
    setup = [(s, f) for s, f in setup if s is not None]

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": (median([s * f for s, f in setup]), "s"),
        "op_s": (median([r.wall_s * f for r, f in timed]), "s"),
        "lifecycles_per_s": (median([r.lifecycles / (r.wall_s * f) for r, f in timed]), "1/s"),
        "mlups": (median([r.site_steps / (r.wall_s * f) / 1e6 for r, f in timed]), "MLUPS"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": [round(s * f, 4) for s, f in setup],
        "op_s": [round(r.wall_s * f, 4) for r, f in timed],
        "setup_wall_s": [round(s, 4) for s, _ in setup],
        "op_wall_s": [round(r.wall_s, 4) for r, _ in timed],
        "reference_loop_s": [round(v, 4) for v in bracket.loops],
    }
    return metrics, samples


def run_traced(workload, tally: Tally, record: dict) -> dict:
    """Per-layer metrics: untraced, then traced, then the grid sweep."""
    import sweep
    import tracing

    speedup = 0.0  # stays 0 where the workload has no pool
    if workload.name == "evolve16":  # traced serially: spans in pool workers would be lost
        pooled = tally.attempt(workload.ops, workload.op, nproc())
        args = (1,)
        untraced = tally.attempt(workload.ops, workload.op, *args)
        if pooled and untraced:
            speedup = untraced.wall_s / pooled.wall_s
    else:
        args = ()
        untraced = tally.attempt(workload.ops, workload.op)
    metrics = {"driver.pool_speedup": (speedup, "x"), "driver.pool_efficiency": (speedup / nproc(), "ratio")}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.span("bench.op", tally.attempt, workload.ops, workload.op, *args)
    finally:
        tracer.uninstall()
    tally.problems.extend(tracer.check_nesting())

    summary = tracer.summary()
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (summary.get(name, {}).get("calls", 0), "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (summary.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNTED:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    cached = {i for i, n in enumerate(tracer.names) if n == "environments.generate_cached"}
    misses = sum(1 for i, n in enumerate(tracer.names) if n == "environments.generate" and tracer.parents[i] in cached)
    metrics["environments.generate_cached.hit_ratio"] = (1 - misses / len(cached) if cached else 0.0, "ratio")

    # Span 0 is bench.op: the share of it spent inside eincasm's layers.
    total = tracer.ends[0] - tracer.starts[0]
    metrics["trace.layer_coverage"] = (1 - summary["bench.op"]["self_s"] / total, "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s if traced and untraced else 0.0, "s")
    record["span_self_s"] = {n: round(v["self_s"], 6) for n, v in summary.items()}
    record["missing_spans"] = tracer.missing
    record["uncounted"] = sorted(tracer.uncounted)

    metrics.update(sweep.sweep(workload.seed, workload.scale.sweep_warmup, workload.scale.sweep_min_s))
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, scale_name: str = "FULL") -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    import numpy as np

    import workloads

    workdir = os.path.join(ROOT, ".bench_out", f"{name}-{os.getpid()}")
    scale = getattr(workloads, scale_name)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale_name,
        "commit": commit(), "python": platform.python_version(), "numpy": np.__version__, "nproc": nproc(),
        "llc": last_level_cache(), "machine": platform.machine(),
    }
    expected, record["reference"] = (
        load_reference(name, seed, np.__version__) if scale_name == "FULL" else (None, "none at this scale")
    )
    tally = Tally(expected)
    try:
        workload = workloads.WORKLOADS[name](seed, scale, workdir)
        if trace:
            metrics = run_traced(workload, tally, record)
        else:
            metrics, record["samples"] = run_untraced(workload, tally, seconds, scale_name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["digests"] = sorted(tally.seen)
    record["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("evolve16", "battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    counts = {k: len(v) for k, v in record.get("samples", {}).items()}
    counts["lifecycles_per_s"] = counts["mlups"] = counts.get("op_s")
    for key, metric in result["metrics"].items():
        n = f"  (median of {counts[key]})" if counts.get(key) else ""
        print(f"{key:48s} {metric['value']:>16.6g} {metric['unit']}{n}")
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
