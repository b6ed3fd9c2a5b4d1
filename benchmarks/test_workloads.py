"""Workload replay SLO benchmark (BENCH_workloads.json shape).

Replays the full built-in scenario matrix in quick mode through
:class:`repro.workloads.ReplayEngine` and asserts the record's honesty
contract: every registered workload replayed end-to-end, each report
carrying a finite tail RMSE, at least one scored gate, and — for the
fault-bearing scenarios — a non-zero injected-fault count.  The rendered
table (rmse / coverage / p99 / gate verdict per workload) lands under
``benchmarks/results/`` so EXPERIMENTS.md can quote it, and the
self-comparison checks exercise the ``benchmarks/compare.py`` dispatch
for the ``reghd-workload-replay`` record kind.
"""

from __future__ import annotations

import json

import pytest

from _common import save_result
from repro.bench import compare_records
from repro.evaluation import render_table
from repro.workloads import (
    BENCHMARK_NAME,
    ReplayEngine,
    available_workloads,
    get_workload,
    workload_bench_record,
)


@pytest.fixture(scope="module")
def reports():
    engine = ReplayEngine(quick=True, seed=0)
    return engine.run_all(available_workloads())


@pytest.fixture(scope="module")
def record(reports):
    return workload_bench_record(reports, quick=True, seed=0)


def test_replay_matrix(benchmark, reports, record):
    benchmark.pedantic(
        lambda: ReplayEngine(quick=True, seed=1).run("airfoil_steady"),
        rounds=1,
        iterations=1,
    )

    rows = [
        {
            "workload": r.workload,
            "rows": r.n_rows,
            "rmse": round(r.tail_rmse, 4),
            "coverage": "-" if r.coverage is None else round(r.coverage, 3),
            "p99_ms": round(r.p99_latency_ms, 1),
            "faults": r.faults_injected,
            "gate": "PASS" if r.passed else "FAIL",
        }
        for r in reports
    ]
    table = render_table(rows, precision=4)
    save_result("workload_replay", table)

    assert record["benchmark"] == BENCHMARK_NAME
    assert len(reports) == len(available_workloads()) >= 6
    for r in reports:
        assert r.n_batches > 0
        assert r.n_rows > 0
        assert r.sim_seconds > 0
        assert r.tail_rmse == r.tail_rmse  # finite, not NaN
        assert r.checks, f"{r.workload} scored no gates"
        workload = get_workload(r.workload)
        if workload.faults:
            assert r.faults_injected > 0, f"{r.workload} injected no faults"
        assert r.passed, (
            f"{r.workload} failed its gate: "
            f"{[c for c in r.checks if not c.passed]}"
        )


def test_record_is_json_serialisable(record):
    assert json.loads(json.dumps(record)) == record


def test_self_comparison_has_no_regressions(record):
    report = compare_records(record, record)
    assert report["strict"]
    assert report["compared"] == record["params"]["n_workloads"]
    assert not report["regressions"]


def test_gate_flip_is_a_regression(record):
    other = json.loads(json.dumps(record))
    other["results"][0]["passed"] = False
    report = compare_records(record, other)
    assert len(report["regressions"]) == 1


def test_different_mode_is_incomparable(record):
    other = json.loads(json.dumps(record))
    other["quick"] = False
    report = compare_records(record, other)
    assert report["compared"] == 0
    assert "comparable" in report["note"]
