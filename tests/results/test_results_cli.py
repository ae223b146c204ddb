"""End-to-end ``repro-arrow results`` subcommands through ``cli.main``.

The full pipeline a CI job runs: sweep -> ingest -> table/plot ->
compare, plus the idempotence and failure exit codes the job relies on.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.sweep.persist import dumps_row, iter_rows


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """sweep + ingest once; tests read the resulting store."""
    root = tmp_path_factory.mktemp("results-cli")
    jsonl = str(root / "smoke.jsonl")
    store = str(root / "store")
    assert main(["sweep", "--grid", "smoke", "--out", jsonl]) == 0
    assert main(
        ["results", "ingest", jsonl, "--store", store, "--grid", "smoke"]
    ) == 0
    return root, jsonl, store


def test_ingest_reports_and_is_idempotent(pipeline, capsys):
    root, jsonl, store = pipeline
    runs = os.path.join(store, "runs")
    (run_dir,) = os.listdir(runs)
    rows_path = os.path.join(runs, run_dir, "rows.jsonl")
    mtime = os.path.getmtime(rows_path)
    assert main(
        ["results", "ingest", jsonl, "--store", store, "--grid", "smoke"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 new row(s), 4/4 cells (complete)" in out
    assert os.path.getmtime(rows_path) == mtime


def test_list_table_plot(pipeline, capsys):
    _, _, store = pipeline
    assert main(["results", "list", "--store", store]) == 0
    assert "smoke" in capsys.readouterr().out
    assert main(
        ["results", "table", "smoke", "--store", store, "--percentiles"]
    ) == 0
    out = capsys.readouterr().out
    assert "Grid 'smoke' summary" in out
    assert "grid latency percentiles" in out
    assert main(["results", "plot", "smoke", "--store", store]) == 0
    assert "n (nodes)" in capsys.readouterr().out


def test_compare_store_key_against_source_file(pipeline, capsys, tmp_path):
    _, jsonl, store = pipeline
    out_doc = str(tmp_path / "BENCH_results.json")
    assert main(
        ["results", "compare", "--store", store, "--a", "smoke",
         "--b", jsonl, "--max-delta-pct", "0.0", "--out", out_doc]
    ) == 0
    assert "results compare OK" in capsys.readouterr().out
    with open(out_doc, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["ok"] is True and doc["mode"] == "rows"


def test_compare_flags_a_drifted_cell(pipeline, capsys, tmp_path):
    _, jsonl, store = pipeline
    rows = list(iter_rows(jsonl))
    rows[0]["makespan"] = rows[0]["makespan"] * 1.5
    drifted = tmp_path / "drifted.jsonl"
    drifted.write_text("".join(dumps_row(r) + "\n" for r in rows))
    assert main(
        ["results", "compare", "--store", store, "--a", "smoke",
         "--b", str(drifted), "--max-delta-pct", "1.0"]
    ) == 1
    err = capsys.readouterr().err
    assert "results compare FAILED" in err and "beyond" in err


def test_compare_bench_mode_gate(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps({"s": {"speedup": 2.0}}))
    fresh.write_text(json.dumps({"s": {"speedup": 1.9}}))
    assert main(
        ["results", "compare", "--baseline", str(baseline),
         "--fresh", str(fresh), "--tolerance", "0.25"]
    ) == 0
    assert "no regressions" in capsys.readouterr().out
    fresh.write_text(json.dumps({"s": {"speedup": 1.0}}))
    assert main(
        ["results", "compare", "--baseline", str(baseline),
         "--fresh", str(fresh), "--tolerance", "0.25"]
    ) == 1
    assert "REGRESSION" in capsys.readouterr().err


def _bench_gate(tmp_path, baseline, fresh, tolerance="0.25"):
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return main(
        ["results", "compare", "--baseline", str(base_path),
         "--fresh", str(fresh_path), "--tolerance", tolerance]
    )


BENCH_BASE = {
    "open_loop_uniform": {"speedup": 1.6},
    "closed_loop_uniform": {"speedup": 1.4},
}


def test_compare_bench_within_tolerance_passes(tmp_path, capsys):
    fresh = {
        "open_loop_uniform": {"speedup": 1.3},   # -19%, inside 25%
        "closed_loop_uniform": {"speedup": 1.5},  # improvement
    }
    assert _bench_gate(tmp_path, BENCH_BASE, fresh) == 0
    assert "no regressions" in capsys.readouterr().out


def test_compare_bench_regression_beyond_tolerance_fails(tmp_path, capsys):
    fresh = {
        "open_loop_uniform": {"speedup": 1.1},   # -31% < floor 1.2
        "closed_loop_uniform": {"speedup": 1.4},
    }
    assert _bench_gate(tmp_path, BENCH_BASE, fresh) == 1
    err = capsys.readouterr().err
    assert "open_loop_uniform" in err and "REGRESSION" in err
    assert "results compare FAILED" in err


def test_compare_bench_missing_scenario_fails(tmp_path, capsys):
    fresh = {"open_loop_uniform": {"speedup": 1.6}}
    assert _bench_gate(tmp_path, BENCH_BASE, fresh) == 1
    assert "missing from fresh results" in capsys.readouterr().err


def test_compare_bench_below_parity_baseline_reported_not_gated(tmp_path, capsys):
    # "No worse" scenarios (baseline speedup < 1.0) are the most
    # machine-sensitive ratios; parity is asserted in-suite, so the gate
    # only reports them.
    base = {**BENCH_BASE, "one_shot_storm": {"speedup": 0.93}}
    fresh = {**BENCH_BASE, "one_shot_storm": {"speedup": 0.5}}
    assert _bench_gate(tmp_path, base, fresh) == 0
    assert "no-worse contract" in capsys.readouterr().out


def test_compare_bench_new_scenario_reported_not_gated(tmp_path, capsys):
    fresh = {**BENCH_BASE, "brand_new": {"speedup": 0.1}}
    assert _bench_gate(tmp_path, BENCH_BASE, fresh) == 0
    assert "new scenario" in capsys.readouterr().out


def test_compare_bench_unreadable_input_fails_without_traceback(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(
        ["results", "compare", "--baseline", missing, "--fresh", missing]
    ) == 1
    err = capsys.readouterr().err
    assert "results compare FAILED" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["1.5", "1.0", "-1", "nan"])
def test_compare_bench_tolerance_out_of_range_exits_2(tmp_path, tolerance):
    # With tolerance 1.5 the floor is negative, so a 2.0 -> 0.1 drop
    # would otherwise pass.
    with pytest.raises(SystemExit) as exc:
        _bench_gate(
            tmp_path, {"s": {"speedup": 2.0}}, {"s": {"speedup": 0.1}}, tolerance
        )
    assert exc.value.code == 2


def test_compare_mode_flags_are_mutually_exclusive(pipeline, tmp_path):
    _, jsonl, store = pipeline
    with pytest.raises(SystemExit) as exc:
        main(["results", "compare", "--store", store, "--a", "smoke",
              "--baseline", jsonl])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["results", "compare", "--store", store, "--a", "smoke"])


def test_unknown_run_key_fails_cleanly(pipeline, capsys):
    _, _, store = pipeline
    assert main(["results", "table", "fig10", "--store", store]) == 1
    assert "no stored run matches" in capsys.readouterr().err


def test_store_flag_archives_experiment_documents(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["--store", store, "fig9", "-D", "8", "-k", "2"]) == 0
    assert "archived fig9" in capsys.readouterr().out
    from repro.results import ResultsStore

    result = ResultsStore(store).get_experiment("fig9")
    assert result.experiment_id == "fig9"
    # Idempotent: a second run rewrites nothing.
    path = os.path.join(store, "experiments", "fig9.json")
    mtime = os.path.getmtime(path)
    assert main(["--store", store, "fig9", "-D", "8", "-k", "2"]) == 0
    assert os.path.getmtime(path) == mtime
