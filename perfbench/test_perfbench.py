"""The benchmark's own tests, at quick size.

Run from the root of the checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import NAMES  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _table(stdout: str) -> dict:
    """``name -> (unit, n)`` for every metric row of the printed tables."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 4 and parts[3].startswith("n="):
            rows[parts[0]] = (parts[2], int(parts[3][2:]))
    return rows


@pytest.mark.parametrize("workload", NAMES)
def test_quick_traced_run_reports_every_metric(workload):
    result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "1", "--quick",
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"], result.stderr
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = {name: unit for name, unit, _ in layers.PER_LAYER}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    table = _table(result.stdout)
    for name, unit in run.END_TO_END + run.PRINTED_ONLY:
        assert table[name][0] == unit
        if name.endswith("_p99_ms"):
            # at least ten samples beyond the 99th percentile
            assert table[name][1] * 0.01 >= 10, (name, table[name])
    for name, unit in expected.items():
        assert table[name][0] == unit


def test_untraced_run_prints_end_to_end_metrics():
    result = _run(
        "--workload", "serve", "--seed", "4", "--seconds", "1", "--quick"
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(
        run.END_TO_END
    )
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_corrupted_serve_prediction_raises_error_rate(monkeypatch):
    from repro.engine import CompiledPlan

    original = CompiledPlan.predict
    calls = []

    def corrupt_first(self, X, **kwargs):
        out = original(self, X, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            out[0] += 1e-3
        return out

    monkeypatch.setattr(CompiledPlan, "predict", corrupt_first)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(
            ["--workload", "serve", "--seed", "5", "--seconds", "0.1", "--quick"]
        )
    assert code == 0
    lines = stdout.getvalue().strip().splitlines()
    last = json.loads(lines[-1])
    assert last["failed"] >= 1 and not last["correct"]
    quality = next(line for line in lines if line.startswith("quality"))
    assert json.loads(quality.split(": ", 1)[1])["error_rate"] > 0


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    result = _run(
        "--workload", "serve", "--seed", "1", "--seconds", "1",
        cwd=tmp_path,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_missing_entry_point_fails_loudly():
    class Backend:
        def model_dots(self):
            return None

    tracer = layers.SpanTracer()
    with pytest.raises(layers.LayerError, match="does not exist"):
        tracer.wrap(Backend, "encode_pack", "runtime.encode_pack")
    with pytest.raises(layers.LayerError, match="never called"):
        layers.require_calls({}, ("runtime.model_dots",), "a test")


def test_self_time_excludes_children_and_unwrap_restores():
    class Inner:
        def work(self):
            return [0, 0]

    class Outer:
        def work(self, inner):
            return inner.work()

    original = Outer.__dict__["work"]
    tracer = layers.SpanTracer()
    with tracer.installed():
        tracer.wrap(Outer, "work", "outer")
        tracer.wrap(Inner, "work", "inner", count_rows=True)
        tracer.phase = "timed"
        Outer().work(Inner())
    assert Outer.__dict__["work"] is original
    self_ms, calls, covered = tracer.reduce("timed")
    assert calls == {"outer": 1, "inner": 1}
    assert tracer.rows["inner", "timed"] == 2
    total = sum(self_ms.values())
    assert total == pytest.approx(covered)
