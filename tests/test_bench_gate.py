"""The one benchmark regression gate, one row per record kind.

:func:`repro.bench.compare_records` judges every committed record kind
through one table.  Each row below builds a small synthetic record of
its kind and says how to move it to another host and how to scale its
throughput, ratio and seeded quality cells; the cases then run on every
kind that has the cells in question.
"""

from __future__ import annotations

import copy
import json
import pathlib
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bench import compare_records, print_report

REPO = pathlib.Path(__file__).resolve().parents[1]


def _inference() -> dict:
    return {
        "benchmark": "reghd-inference-engine",
        "quick": False,
        "params": {"batch_rows": 32, "repeats": 2, "features": 4, "n_workers": 2},
        "machine": {"cpu_count": 4},
        "runtime": {"backend": "packed"},
        "results": [
            {"dim": 64, "variant": v, "rows_per_s": r}
            for v, r in (("float", 100.0), ("packed", 200.0), ("packed_mt", 310.0))
        ],
        "speedups": {"64": {"packed_vs_float": 2.0, "packed_mt_vs_float": 3.1}},
    }


def _training() -> dict:
    return {
        "benchmark": "reghd-training-throughput",
        "quick": False,
        "params": {"rows": 64, "epochs": 2, "features": 4, "n_models": 8},
        "machine": {"cpu_count": 4},
        "results": [
            {"dim": 64, "backend": b, "rows_per_s": r}
            for b, r in (("dense", 100.0), ("packed", 250.0))
        ],
        "speedups": {"64": {"packed_vs_dense": 2.5}},
    }


def _distributed() -> dict:
    return {
        "benchmark": "reghd-distributed-scaling",
        "quick": False,
        "host_cpus": 2,
        "params": {"n_rows": 2000, "dim": 1024, "seed": 0},
        "curves": [
            {"workers": w, "rows_per_s": r, "speedup_vs_1": s, "rmse_vs_sequential": q}
            for w, r, s, q in ((1, 1000.0, 1.0, 1.0), (2, 1800.0, 1.8, 1.09))
        ],
    }


def _workloads() -> dict:
    return {
        "benchmark": "reghd-workload-replay",
        "quick": True,
        "seed": 0,
        "params": {"n_workloads": 2},
        "results": [
            {"workload": "steady", "tail_rmse": 0.5, "passed": True},
            {"workload": "drift", "tail_rmse": 0.8, "passed": True},
        ],
    }


def _scale(rows: str, field: str) -> Callable[[dict, float], None]:
    def scale(record: dict, factor: float) -> None:
        for row in record[rows]:
            row[field] *= factor

    return scale


def _scale_speedups(record: dict, factor: float) -> None:
    for ratios in record["speedups"].values():
        for name in ratios:
            ratios[name] *= factor


def _move_machine(record: dict) -> None:
    record["machine"]["cpu_count"] += 4


def _move_host_cpus(record: dict) -> None:
    record["host_cpus"] += 63


@dataclass(frozen=True)
class Kind:
    record: Callable[[], dict]
    cells: int  # cells a self-comparison diffs
    param: tuple[str, object]  # a params change that makes records incomparable
    move_host: Callable[[dict], None] | None = None
    throughput: Callable[[dict, float], None] | None = None
    ratios: Callable[[dict, float], None] | None = None
    ratio_cells: int = 0
    quality: Callable[[dict, float], None] | None = None
    quick_doubles_slack: bool = False


KINDS = {
    "inference": Kind(
        _inference,
        cells=3,
        param=("batch_rows", 2048),
        move_host=_move_machine,
        throughput=_scale("results", "rows_per_s"),
        ratios=_scale_speedups,
        ratio_cells=2,
        quick_doubles_slack=True,
    ),
    "training": Kind(
        _training,
        cells=2,
        param=("epochs", 5),
        move_host=_move_machine,
        throughput=_scale("results", "rows_per_s"),
        ratios=_scale_speedups,
        ratio_cells=1,
        quick_doubles_slack=True,
    ),
    "distributed": Kind(
        _distributed,
        cells=2,
        param=("n_rows", 123456),
        move_host=_move_host_cpus,
        throughput=_scale("curves", "rows_per_s"),
        ratios=_scale("curves", "speedup_vs_1"),
        ratio_cells=2,
        quality=_scale("curves", "rmse_vs_sequential"),
    ),
    "workloads": Kind(
        _workloads,
        cells=2,
        param=("seed", 99),
        quality=_scale("results", "tail_rmse"),
    ),
}


def _kinds(attr: str) -> list[str]:
    return [name for name, kind in KINDS.items() if getattr(kind, attr)]


def _pair(name: str) -> tuple[Kind, dict, dict]:
    kind = KINDS[name]
    baseline = kind.record()
    return kind, baseline, copy.deepcopy(baseline)


@pytest.mark.parametrize("name", KINDS)
def test_self_comparison_is_clean(name):
    kind, baseline, current = _pair(name)
    report = compare_records(baseline, current)
    assert report["strict"] and report["refused"] is None
    assert report["compared"] == kind.cells
    assert report["lines"] and not report["regressions"]
    assert report["note"] is None


@pytest.mark.parametrize("name", _kinds("throughput"))
def test_strict_throughput_drop_is_flagged(name):
    kind, baseline, current = _pair(name)
    kind.throughput(current, 0.5)
    report = compare_records(baseline, current)
    assert report["strict"]
    assert report["threshold"] == pytest.approx(0.10)
    assert len(report["regressions"]) == kind.cells


@pytest.mark.parametrize("name", _kinds("throughput"))
def test_quick_records_double_slack_where_the_row_says(name):
    kind, baseline, current = _pair(name)
    baseline["quick"] = current["quick"] = True
    kind.throughput(current, 0.85)  # -15%: smoke-scale noise
    report = compare_records(baseline, current)
    slack = 0.20 if kind.quick_doubles_slack else 0.10
    assert report["threshold"] == pytest.approx(slack)
    assert bool(report["regressions"]) != kind.quick_doubles_slack
    kind.throughput(current, 0.85)  # -28% compounded: real regression
    assert len(compare_records(baseline, current)["regressions"]) == kind.cells


@pytest.mark.parametrize("name", _kinds("move_host"))
def test_cross_host_compares_ratios_with_doubled_slack(name, capsys):
    kind, baseline, current = _pair(name)
    kind.move_host(current)
    kind.throughput(current, 0.1)  # raw rows/s are not comparable across hosts
    report = compare_records(baseline, current)
    assert not report["strict"] and not report["regressions"]
    assert "speedup" in report["note"]
    assert report["threshold"] == pytest.approx(0.20)
    kind.ratios(current, 0.85)  # -15% < 20%
    assert not compare_records(baseline, current)["regressions"]
    kind.ratios(current, 0.85)  # -28% compounded
    baseline["quick"] = current["quick"] = True  # quick does not compound
    report = compare_records(baseline, current)
    assert report["threshold"] == pytest.approx(0.20)
    assert len(report["regressions"]) == kind.ratio_cells
    assert print_report(report) == 1
    assert "beyond 20%" in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("name", _kinds("quality"))
def test_quality_cells_gate_on_any_host(name):
    kind, baseline, current = _pair(name)
    if kind.move_host:
        kind.move_host(current)
    kind.quality(current, 1.05)  # within the threshold
    report = compare_records(baseline, current)
    assert report["quality_threshold"] == pytest.approx(0.10)
    assert not report["regressions"]
    kind.quality(current, 1.10)  # +15.5%: merge or replay quality regressed
    report = compare_records(baseline, current)
    assert report["regressions"]
    assert all("rmse" in line for line in report["regressions"])


@pytest.mark.parametrize("name", KINDS)
def test_params_mismatch_is_incomparable(name, capsys):
    kind, baseline, current = _pair(name)
    key, value = kind.param
    if key in current["params"]:
        current["params"][key] = value
    else:
        current[key] = value
    report = compare_records(baseline, current)
    assert report["compared"] == 0 and not report["regressions"]
    assert report["refused"] is None
    assert "incomparable" in report["note"]
    assert print_report(report) == 0
    assert "no comparable cells" in capsys.readouterr().out


@pytest.mark.parametrize("name", KINDS)
def test_kind_mismatch_is_refused(name, capsys):
    _, baseline, _ = _pair(name)
    other = next(k for k in KINDS if k != name)
    report = compare_records(baseline, KINDS[other].record())
    assert report["compared"] == 0 and report["refused"]
    assert print_report(report) == 2
    assert "cannot compare" in capsys.readouterr().out


def test_kind_without_a_gate_is_refused():
    record = json.loads((REPO / "BENCH_robustness.json").read_text())
    report = compare_records(record, record)
    assert "no gate" in report["refused"]
    assert print_report(report) == 2


@pytest.mark.parametrize(
    "path",
    [
        "BENCH_inference.json",
        "BENCH_training.json",
        "BENCH_distributed.json",
        "BENCH_workloads.json",
        "benchmarks/baselines/BENCH_distributed_quick.json",
        "benchmarks/baselines/BENCH_inference_quick.json",
    ],
)
def test_committed_records_gate_clean_against_themselves(path, capsys):
    record = json.loads((REPO / path).read_text())
    report = compare_records(record, record)
    assert report["compared"] >= 2 and not report["regressions"]
    assert print_report(report) == 0
