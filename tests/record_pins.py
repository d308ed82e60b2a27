"""Re-record every digest the pinned-output tests compare against:

    python tests/record_pins.py

Runs each pinned command of ``test_pinned_outputs`` (``PINNED_RUNS``) once,
serially, in a fresh temporary directory, and rewrites ``tests/pins.json``
with the digests and the numpy version. Re-record only for a change meant
to alter results, together with ``bench/record_reference.py``; the diff of
the two files lists the digests that moved.
"""

import json
import os
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [TESTS, os.path.join(os.path.dirname(TESTS), "src")]

import numpy as np  # noqa: E402

import test_pinned_outputs  # noqa: E402


def main() -> None:
    os.environ["EINCASM_THREADS"] = "1"
    home = os.getcwd()
    pins = {}
    for test_id, run in test_pinned_outputs.PINNED_RUNS.items():
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                pins[test_id] = run()
            finally:
                os.chdir(home)
        print(test_id, flush=True)
    with open(test_pinned_outputs.PINS, "w", encoding="utf-8") as handle:
        json.dump({"numpy": np.__version__, "pins": pins}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
