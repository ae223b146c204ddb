"""Interleaved min-of-N timing for engine-vs-engine wall-clock ratios.

Shared by the fast-vs-message benchmarks.  Each repeat times every
subject back to back, alternating the order, so a slow phase of a shared
host hits all subjects instead of one; the minimum over repeats is the
least-disturbed run of each.  ``perf_counter`` wall time gates the
floors, and ``process_time`` CPU time is archived next to it.
"""

from __future__ import annotations

import time


def interleaved_min(subjects, repeats):
    """``{name: (perf_s, cpu_s)}``, each minimised over interleaved repeats.

    ``subjects`` maps a name to a zero-argument callable.  Wall and CPU
    time are minimised independently.
    """
    best = {name: [float("inf"), float("inf")] for name in subjects}
    order = list(subjects.items())
    for k in range(repeats):
        for name, fn in order if k % 2 == 0 else order[::-1]:
            w0, c0 = time.perf_counter(), time.process_time()
            fn()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            best[name][0] = min(best[name][0], wall)
            best[name][1] = min(best[name][1], cpu)
    return {name: tuple(v) for name, v in best.items()}


def speedup_row(requests, timings):
    """One archived scenario: message vs fast seconds and their ratios."""
    (msg_s, msg_cpu), (fast_s, fast_cpu) = timings["message"], timings["fast"]
    return {
        "requests": requests,
        "message_seconds": msg_s,
        "fast_seconds": fast_s,
        "speedup": msg_s / fast_s,
        "message_cpu_seconds": msg_cpu,
        "fast_cpu_seconds": fast_cpu,
        "cpu_speedup": msg_cpu / fast_cpu,
    }
