"""Guards on the benchmark itself (fast; no workload is run).

* it imports no ``_``-prefixed name from ``repro`` and reaches no such
  attribute of a ``repro`` module;
* it never selects the batch engine;
* workload and metric names match ``[A-Za-z0-9_.-]+``;
* every metric name the command computes is declared in
  ``BENCHMARK.json``, and :func:`run.emit` refuses any other.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
from contextlib import redirect_stdout

import pytest

import run
import suite
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _sources():
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py") and name != os.path.basename(__file__):
            path = os.path.join(HERE, name)
            with open(path, "r", encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), path)


def _private(name: str) -> bool:
    return any(p.startswith("_") and not p.startswith("__") for p in name.split("."))


def test_imports_only_public_repro_names():
    found = []
    for fname, tree in _sources():
        repro_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        repro_names.add(alias.asname or alias.name.split(".")[0])
                        if _private(alias.name):
                            found.append(f"{fname}: import {alias.name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                if _private(node.module):
                    found.append(f"{fname}: from {node.module}")
                for alias in node.names:
                    repro_names.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append(f"{fname}: from {node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in repro_names
                and _private(node.attr)
            ):
                found.append(f"{fname}:{node.lineno}: {node.value.id}.{node.attr}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and _private(str(node.args[1].value))
            ):
                found.append(f"{fname}:{node.lineno}: {node.func.id}(..., {node.args[1].value!r})")
    assert not found


def test_never_selects_the_batch_engine():
    batch = "bat" + "ch"
    hits = [
        f"{fname}:{node.lineno}"
        for fname, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == batch
    ]
    assert not hits
    for cls in suite.WORKLOADS.values():
        if issubclass(cls, suite.SweepWorkload):
            assert cls(0, HERE).spec().engine == "fast"


def test_names_are_well_formed_and_unique():
    declared = run.load_declared()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(suite.WORKLOADS)


def _pass(**counts) -> suite.PassResult:
    return suite.PassResult(
        1.0, 1.0, [5.0, 6.0], {"c": "{}"}, 0, 1,
        boundaries={"orchestrator.run": 1.0, "orchestrator.child_cpu": 1.5},
        counts={"core.requests": 10, **counts},
        cell_probe_s=[0.004, 0.006],
    )


def test_computed_metric_names_are_exactly_the_declared_ones():
    declared = run.load_declared()
    e2e = run.end_to_end_values([_pass(), _pass()], [(0.3, 1.0), (0.4, 0.9)], 1024)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    tracer = Tracer()
    with tracer.cell("c"):
        with tracer.span("core.engine"):
            pass
    layer = run.per_layer_values([(_pass(), _pass(), _pass(), tracer)], workers=2)
    assert set(layer) == {m["name"] for m in declared["per_layer"]}
    assert not tracer.check()


def test_emit_refuses_undeclared_and_missing_names():
    declared = {"end_to_end": [{"name": "wall_s", "unit": "s"}]}
    with redirect_stdout(io.StringIO()) as out:
        doc = run.emit("end_to_end", {"wall_s": 1.5}, {}, declared)
    assert doc == {"wall_s": {"value": 1.5, "unit": "s"}}
    assert out.getvalue().split()[:3] == ["wall_s", "1.5", "s"]
    with pytest.raises(ValueError):
        run.emit("end_to_end", {"wall_s": 1.5, "made_up": 2.0}, {}, declared)
    with pytest.raises(ValueError):
        run.emit("end_to_end", {}, {}, declared)


def test_pins_cover_every_workload():
    with open(run.PINS, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    assert sorted(pins) == sorted(suite.WORKLOADS)
    assert all(len(pins[name]) >= 40 for name in pins)
