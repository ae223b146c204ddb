"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR PROBES

Set-up is importing ``repro``, bootstrapping the cell-family registry and
expanding the workload's grid (or job list), up to the first cell.
Prints the set-up's host seconds and the median host seconds of
``PROBES`` speed probes timed just before and just after it.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import median_probe_s  # noqa: E402

probes = int(sys.argv[4])
before = median_probe_s(probes)
start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import suite  # noqa: E402

suite.expand(sys.argv[1], int(sys.argv[2]), sys.argv[3])
seconds = time.perf_counter() - start
print(repr(seconds), repr(before), repr(median_probe_s(probes)))
