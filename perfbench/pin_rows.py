"""Rewrite pins.json: the SHA-256 of every output row at the default seed.

Usage (from the repository root)::

    python3 perfbench/pin_rows.py

A sweep cell's digest is that of its persisted JSONL row; a thm321 job's
is that of its ``[sync, async, ratio]`` line.  A change that only makes
the program faster must leave every digest alone, so re-pin only for a
change that is meant to alter rows, and say so.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import suite  # noqa: E402
from spans import NullTracer  # noqa: E402


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=scratch)
    pins = {}
    try:
        for name in suite.WORKLOADS:
            workload, units = suite.expand(name, suite.DEFAULT_SEED, work)
            result = workload.run_pass(NullTracer())
            if result.failed or len(result.lines) != len(units):
                print(f"{name}: {result.failed} failed units; not pinning", file=sys.stderr)
                return 1
            pins[name] = [[u.cell_id, suite.sha256(result.lines[u.cell_id])] for u in units]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # a benchmark run still uses it
            pass
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
