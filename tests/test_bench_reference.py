"""The benchmark's operations reproduce its recorded reference digests.

``bench/reference.json`` holds, per workload and seed, the digest of one
operation's output at full scale. Here the seed-3 operations run at that
scale, serial and pooled for ``evolve16``, and each digest must equal the
recorded one. The bench is only read: its workloads and its reference
rule are imported from ``bench/``, nothing there is written. A reference
recorded under another numpy is skipped, as ``bench/run.py`` skips it,
because numpy's SIMD ``exp`` and ``tanh`` may move fitness bits.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def reference(name: str) -> str:
    digest, why = run.load_reference(name, SEED, np.__version__)
    if digest is None:
        pytest.skip(f"{name} seed {SEED}: {why}, running numpy {np.__version__}")
    return digest


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_evolve16_matches_its_reference(tmp_path, workers):
    expected = reference("evolve16")
    assert workloads.Evolve16(SEED, workloads.FULL, str(tmp_path)).op(workers).digest == expected


def test_battery_matches_its_reference(tmp_path):
    expected = reference("battery")
    assert workloads.Battery(SEED, workloads.FULL, str(tmp_path)).op().digest == expected
