"""The benchmark's own tests: tiny runs of every workload.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from dataclasses import replace

import pytest

from perfbench import run as bench
from perfbench import tracing, workloads

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

TINY = {
    "trials": dict(leaves=40, k=8, batch=4, project=4, profile_leaves=12),
    "deep_local": dict(leaves=40, k=8, batch=4, project=4,
                       profile_leaves=12, clade_rows=(3, 20)),
    "remote_mix": dict(leaves=60, k=8, batch=4, project=6,
                       profile_leaves=12, clade_rows=(10, 30)),
    "ingest": dict(leaves=20, k=6, batch=4, project=4),
}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], sites=40, setups=1,
                   trial_every=1, every=2, profile_trees=3, ledger_rounds=4,
                   **TINY[name])


def run_tiny(name: str, tmp_path, tracer=None, seed: int = 5):
    work = tmp_path / f"{name}-{seed}-{tracer is not None}"
    work.mkdir()
    return bench.run(tiny(name), seed, 0.3, tracer, str(work))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    result, meta = run_tiny(name, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0
    assert set(meta["ops_by_kind"]) == set(workloads.KINDS)
    metrics = result["metrics"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(metrics) == set(names)
    assert all(metrics[n] > 0 for n in names)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result, _meta = run_tiny(name, tmp_path, tracing.Tracer())
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["bench.op_ms"] > 0


def test_wrong_oracle_answer_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Oracle, "lca", lambda self, a, b: -1)
    result, meta = run_tiny("deep_local", tmp_path)
    assert not result["correct"]
    # Every lca and lca_batch op now disagrees with its oracle.
    wrong = meta["ops_by_kind"]["lca"] + meta["ops_by_kind"]["lca_batch"]
    assert result["failed"] == wrong
    assert result["metrics"]["success_frac"] < 1.0


def test_self_times_add_up_to_each_ops_wall_time(tmp_path):
    tracer = tracing.Tracer()
    run_tiny("trials", tmp_path, tracer)
    self_by_op: dict[int, float] = defaultdict(float)
    roots = {}
    for span in tracer.spans:
        self_by_op[span.op_id] += span.self_s
        if span.layer == tracing.ROOT:
            roots[span.op_id] = span
    assert roots
    for op_id, root in roots.items():
        assert math.isclose(self_by_op[op_id], root.duration_s,
                            rel_tol=1e-9, abs_tol=1e-12)
    layers = {span.layer for span in tracer.spans}
    assert {"benchmark.manager", "reconstruction", "storage.database"} <= layers


def test_ledger_counts_repeat_for_one_seed(tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for attempt in range(2):
        work = tmp_path / f"ledger{attempt}"
        work.mkdir()
        result, _meta = bench.run(tiny("ingest"), 9, 0.3, tracing.Tracer(),
                                  str(work))
        counts.append({name: value for name, value in result["metrics"].items()
                       if units[name] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["storage.database.statements"] > 0
