"""Interleaved timing for wall-clock ratios between subjects.

Shared by the engine and fault benchmarks.  Each repeat times every
subject back to back, alternating the order, so a slow phase of a shared
host hits all subjects instead of one.  :func:`interleaved_min` keeps
the least-disturbed run of each subject (``perf_counter`` wall time
gates the floors, and ``process_time`` CPU time is archived next to
it); :func:`paired_ratio` keeps the median of the per-pair ratios.
"""

from __future__ import annotations

import statistics
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


def paired_ratio(base, subject, repeats):
    """Median over interleaved pairs of ``subject`` time / ``base`` time.

    Each pair times the two back to back, alternating which goes first,
    so a slow phase of a shared host lands in both halves of a pair and
    cancels in its ratio; the median drops the pairs it split.  Returns
    ``(ratio, base_min_s, subject_min_s)``.
    """
    ratios = []
    base_s = subject_s = float("inf")
    pair = ((0, base), (1, subject))
    for k in range(repeats):
        timed = [0.0, 0.0]
        for i, fn in pair if k % 2 == 0 else pair[::-1]:
            t0 = time.perf_counter()
            fn()
            timed[i] = time.perf_counter() - t0
        ratios.append(timed[1] / timed[0])
        base_s = min(base_s, timed[0])
        subject_s = min(subject_s, timed[1])
    return statistics.median(ratios), base_s, subject_s


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
