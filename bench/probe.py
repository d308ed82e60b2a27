"""Set-up probe, run in a fresh interpreter by the benchmark:

    python3 bench/probe.py <workload> <seed> <scale> <workdir> <spawn_time>

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process. The probe imports the package, builds the workload's inputs,
takes the first simulation step, and prints the seconds elapsed since
``spawn_time``: interpreter start, imports, config or spec build, arena
generation, genome compile and population init.
"""

import os
import sys
import time


def main() -> None:
    name, seed, scale, workdir, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], float(sys.argv[5])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workload = workloads.WORKLOADS[name](seed, getattr(workloads, scale), workdir)
    workload.first_step()
    print(repr(time.monotonic() - spawned))


if __name__ == "__main__":
    main()
