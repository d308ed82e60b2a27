"""Record the reference output digests that bench/run.py checks against:

    python3 bench/record_reference.py [--seeds 32]

Runs one operation of every workload for seeds 0..N-1 and writes
bench/reference.json. Re-record only for a change meant to alter results.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    run.bootstrap()
    import numpy as np

    import workloads

    workdir = os.path.join(run.ROOT, ".bench_out", f"reference-{os.getpid()}")
    digests = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            digests[name] = {}
            for seed in range(args.seeds):
                workload = cls(seed, workloads.FULL, workdir)
                result = workload.op(run.nproc()) if name == "evolve16" else workload.op()
                digests[name][str(seed)] = result.digest
                print(name, seed, result.digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
