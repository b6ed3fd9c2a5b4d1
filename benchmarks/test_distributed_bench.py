"""Distributed-training scaling benchmark (BENCH_distributed.json shape).

Runs :func:`repro.bench.run_distributed_benchmark` in quick
mode and asserts the record's honesty contract: host_cpus stamped, the
scaling note present, per-worker curves carrying both the raw rows/s
and the machine-independent speedup ratio, and the quality columns
(rmse vs the sequential reference) filled in.  The scaling *target*
(≥2.5x at 4 workers) is only meaningful on a multi-core host — the
assertion is conditioned on ``host_cpus`` so a 1-CPU CI box records the
truth (flat or declining curve = process-pool overhead) instead of a
vacuous pass.
"""

from __future__ import annotations

import json

import pytest

from _common import save_result
from repro.bench import run_distributed_benchmark
from repro.evaluation import render_table


@pytest.fixture(scope="module")
def record():
    return run_distributed_benchmark(quick=True, seed=0)


def test_scaling_record(benchmark, record):
    benchmark.pedantic(
        lambda: run_distributed_benchmark(quick=True, seed=1, workers=(1,)),
        rounds=1,
        iterations=1,
    )

    rows = [
        {
            "workers": c["workers"],
            "rows_per_s": round(c["rows_per_s"]),
            "speedup": c["speedup_vs_1"],
            "rmse": c["rmse"],
            "rmse_vs_seq": c["rmse_vs_sequential"],
        }
        for c in record["curves"]
    ]
    table = render_table(rows, precision=3)
    summary = (
        f"host_cpus : {record['host_cpus']}\n"
        f"sequential: {record['sequential']['rows_per_s']:.0f} rows/s, "
        f"rmse {record['sequential']['rmse']:.4f}\n"
        f"note      : {record['scaling_note']}"
    )
    save_result("distributed_scaling", table + "\n\n" + summary)

    assert record["benchmark"] == "reghd-distributed-scaling"
    assert record["host_cpus"] >= 1
    assert "process-pool overhead" in record["scaling_note"]
    assert record["params"]["reduction"] in ("mean", "sum")
    assert len(record["params"]["shard_seeds"]) == max(
        c["workers"] for c in record["curves"]
    )

    for curve in record["curves"]:
        assert curve["seconds"] > 0
        assert curve["rows_per_s"] > 0
        assert curve["rmse"] > 0
        assert sum(curve["shard_samples"]) == record["params"]["n_rows"]
        assert curve["shard_bytes"] >= curve["merged_bytes"] > 0
    assert record["curves"][0]["speedup_vs_1"] == 1.0

    # The scaling target only binds where the cores exist to meet it.
    if record["host_cpus"] >= 4:
        four = [c for c in record["curves"] if c["workers"] == 4]
        if four:
            assert four[0]["speedup_vs_1"] >= 2.5


def test_record_is_json_serialisable(record):
    assert json.loads(json.dumps(record)) == record

