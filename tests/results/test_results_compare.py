"""Cross-run comparison (``repro.results.compare``).

Row mode is the per-cell diff with percent deltas; bench mode is the CI
speedup gate, checked here against the committed baseline file.
"""

from __future__ import annotations

import json
import os

from repro.results.compare import (
    bench_doc,
    compare_bench,
    compare_rows,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BASELINE = os.path.join(REPO, "benchmarks", "bench_baseline.json")


def rows_a():
    return [
        {"cell_id": "c0", "index": 0, "makespan": 10.0, "engine": "fast",
         "graph": "complete(n=8)"},
        {"cell_id": "c1", "index": 1, "makespan": 20.0, "engine": "fast",
         "graph": "path(n=8)"},
    ]


def test_identical_rows_compare_ok():
    cmp = compare_rows(rows_a(), rows_a(), max_delta_pct=0.0)
    assert cmp.ok
    assert cmp.compared == 2
    assert cmp.columns["makespan"]["changed"] == 0.0
    assert cmp.top_deltas == []
    doc = cmp.to_doc()
    assert doc["ok"] is True and doc["mode"] == "rows"
    json.dumps(doc)  # canonical doc must be JSON-able


def test_percent_deltas_and_tolerance_gate():
    b = rows_a()
    b[1]["makespan"] = 22.0  # +10%
    loose = compare_rows(rows_a(), b, max_delta_pct=15.0)
    assert loose.ok
    assert loose.columns["makespan"]["max_abs_pct"] == 10.0
    assert loose.top_deltas[0][1:3] == ("c1", "makespan")
    tight = compare_rows(rows_a(), b, max_delta_pct=5.0)
    assert not tight.ok
    assert "beyond" in tight.exceeding[0]
    assert any("+10.00%" in line for line in tight.report_lines())


def test_engine_label_ignored_but_other_strings_must_match():
    b = rows_a()
    b[0]["engine"] = "batch"  # engines are bit-identical: ignored
    assert compare_rows(rows_a(), b).ok
    b[0]["graph"] = "ring(n=8)"
    cmp = compare_rows(rows_a(), b)
    assert not cmp.ok
    assert "non-numeric column 'graph' differs" in cmp.problems[0]


def test_missing_cells_and_zero_baseline_are_problems():
    cmp = compare_rows(rows_a(), rows_a()[:1])
    assert not cmp.ok and "only in A" in cmp.problems[0]
    a = [{"cell_id": "c", "index": 0, "x": 0.0}]
    b = [{"cell_id": "c", "index": 0, "x": 3.0}]
    cmp = compare_rows(a, b)
    assert not cmp.ok
    assert "percent delta undefined" in cmp.problems[0]


def test_bench_mode_gates_the_committed_baseline():
    """The CI gate's verdicts on the committed baseline file."""
    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    # Self-compare: every gated scenario is exactly at baseline -> OK.
    report, regressions = compare_bench(baseline, baseline, 0.25)
    assert regressions == []
    assert len(report) == len(baseline)
    # Halving every speedup regresses every gated scenario.
    regressed = {
        k: {"speedup": v["speedup"] * 0.5} for k, v in baseline.items()
    }
    _, regressions = compare_bench(baseline, regressed, 0.25)
    gated = [k for k, v in baseline.items() if v["speedup"] >= 1.0]
    assert len(regressions) == len(gated) > 0


def test_bench_doc_is_canonical_and_carries_the_verdict():
    baseline = {"s1": {"speedup": 2.0}, "gone": {"speedup": 1.5}}
    fresh = {"s1": {"speedup": 1.0}, "new": {"speedup": 3.0}}
    report, regressions = compare_bench(baseline, fresh, 0.25)
    doc = bench_doc(baseline, fresh, 0.25, report, regressions)
    assert doc["ok"] is False
    assert set(doc["scenarios"]) == {"s1", "gone", "new"}
    assert doc["scenarios"]["gone"]["fresh"] is None
    assert doc["scenarios"]["new"]["baseline"] is None
    assert json.dumps(doc, sort_keys=True)  # deterministic trajectory
