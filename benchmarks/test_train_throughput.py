"""Training throughput — dense vs packed kernel backends.

Runs :func:`repro.bench.run_training_benchmark`: the quantised
``MultiModelRegHD`` training hot loop (``fit_epoch`` + ``end_epoch`` on
pre-encoded data, under the trainer's ``begin_training`` cache protocol)
timed at D ∈ {4096, 10000} on both registered backends.  Asserts the
ISSUE-4 acceptance shape: the packed backend must beat the dense
reference at D ≥ 4096 for the fully-binarising configuration.

Also records the streaming plan-refresh micro-benchmark: its counters
must show operand rows being *reused* across incremental refreshes —
the evidence that per-update serving no longer re-packs unchanged rows.

Writes ``benchmarks/results/train_throughput.txt`` and the canonical
JSON record ``BENCH_training.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from _common import save_result
from repro.bench import SUITES, TRAIN_DIMS, run_training_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def record():
    return run_training_benchmark(dims=TRAIN_DIMS, rows=2048, epochs=3)


def test_training_throughput_sweep(record):
    summary = SUITES["training"].summary(record)
    save_result("train_throughput", summary)
    print("\n" + summary)

    (REPO_ROOT / "BENCH_training.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    # Acceptance shape: packed training wins at paper scale.  (The 1.5x
    # floor is checked on the reference host when BENCH_training.json is
    # regenerated; CI machines only guarantee the direction.)
    for dim, ratios in record["speedups"].items():
        if int(dim) >= 4096:
            assert ratios["packed_vs_dense"] > 1.0, (
                f"packed training slower than dense at D={dim}: "
                f"{ratios['packed_vs_dense']:.2f}x"
            )


def test_plan_refresh_reuses_rows(record):
    """Incremental refresh must not re-pack every operand row per update."""
    refresh = record["plan_refresh"]
    assert refresh["refreshes"] > 0
    assert refresh["rows_reused"] > 0
