"""End-to-end inference engine throughput — float vs packed vs threaded.

Runs the same sweep as ``repro bench inference``
(:func:`repro.bench.run_inference_benchmark`): a fitted quantised
``MultiModelRegHD`` served three ways — the model's own float path, the
compiled packed plan single-threaded, and the packed plan fanned over a
thread pool — across D ∈ {1k, 4k, 10k}.  Asserts the ISSUE-2 acceptance
shape: at D ≥ 4096 the packed plan must not lose to the float path for
the quantised configuration, and every variant must agree numerically.

Writes ``benchmarks/results/engine_throughput.txt``; the canonical JSON
record at the repo root (``BENCH_inference.json``) is produced by
``python -m repro.cli bench inference``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import save_result
from repro.bench import DEFAULT_DIMS, SUITES, quantised_config, run_inference_benchmark
from repro.core.multi import MultiModelRegHD


@pytest.fixture(scope="module")
def record():
    return run_inference_benchmark(
        dims=DEFAULT_DIMS, batch_rows=1024, repeats=5, n_workers=4
    )


def test_engine_throughput_sweep(record):
    summary = SUITES["inference"].summary(record)
    save_result("engine_throughput", summary)
    print("\n" + summary)

    # Acceptance shape: packed wins for the quantised config at D >= 4096.
    for dim, ratios in record["speedups"].items():
        if int(dim) >= 4096:
            assert ratios["packed_vs_float"] > 1.0, (
                f"packed slower than float at D={dim}: "
                f"{ratios['packed_vs_float']:.2f}x"
            )


def test_variants_agree_numerically():
    """The three served paths are the same function, not three models."""
    rng = np.random.default_rng(0)
    model = MultiModelRegHD(16, quantised_config(dim=1000, seed=0))
    X_fit = rng.normal(size=(256, 16))
    model.partial_fit(X_fit, np.sin(X_fit[:, 0]) + 0.5 * X_fit[:, 1])
    X = np.random.default_rng(1).normal(size=(257, 16))
    ref = model.predict(X)
    packed = model.compile(backend="packed")
    unpacked = model.compile(backend="dense")
    np.testing.assert_allclose(
        packed.predict(X, n_workers=1), ref, rtol=1e-9, atol=1e-10
    )
    np.testing.assert_allclose(
        packed.predict(X, tile_rows=64, n_workers=4),
        ref,
        rtol=1e-9,
        atol=1e-10,
    )
    np.testing.assert_allclose(unpacked.predict(X), ref, rtol=1e-9, atol=1e-10)
    remat = model.compile(backend="packed", rematerialize=True)
    np.testing.assert_array_equal(remat.predict(X), packed.predict(X))
