"""Training throughput harness: dense vs packed kernel backends.

Shared by ``benchmarks/test_train_throughput.py`` (which renders the
table and writes ``BENCH_training.json`` at the repo root).  For each
hypervector dimensionality it times the training hot loop of a quantised
``MultiModelRegHD`` (``cluster_quant=framework``,
``predict_quant=binary_both`` — the configuration where both the
similarity search and the model dot products binarise) on the same
pre-encoded data under both registered backends:

* ``dense`` — the reference float kernels (sign matmuls);
* ``packed`` — bit-packed uint64 XOR + popcount kernels, fed by the
  epoch-spanning :class:`~repro.runtime.QueryCache` the
  ``begin_training`` hook installs.

Timing covers exactly what an epoch costs in production:
``fit_epoch`` + ``end_epoch`` (the per-epoch re-binarisation is part of
the Sec.-3 framework, not overhead).  Encoding is done once outside the
timed region — both backends consume identical pre-encoded batches, so
the ratio isolates kernel arithmetic.

A second micro-benchmark measures the incremental serving-plan refresh
used by the streaming stack: after compile, each small stream update
marks the plan stale and the next predict refreshes it in place.  The
emitted counters show how many operand rows were re-packed versus
reused — the acceptance evidence that per-update refresh no longer
re-packs unchanged rows.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.runtime.base import RUNTIME_VERSION
from repro.telemetry.timing import monotonic

#: Dimensionalities swept by the training benchmark (paper Sec. 4 scale).
TRAIN_DIMS = (4096, 10000)

#: Backends compared; ``dense`` is the baseline every ratio divides by.
BACKENDS = ("dense", "packed")


def _quantised_model(
    dim: int, features: int, seed: int, backend: str, n_models: int = 8
) -> MultiModelRegHD:
    """A fresh quantised model pinned to ``backend`` via its config."""
    return MultiModelRegHD(
        features,
        RegHDConfig(
            dim=dim,
            n_models=n_models,
            seed=seed,
            backend=backend,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )


def _time_training(
    model: MultiModelRegHD,
    S: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int,
    warmup: int = 1,
) -> dict:
    """Rows/sec over ``epochs`` timed passes of ``fit_epoch`` + ``end_epoch``.

    Runs under the trainer's ``begin_training``/``finish_training``
    protocol so the packed backend gets its epoch-spanning query cache,
    exactly as :class:`~repro.core.trainer.IterativeTrainer` provides it.
    """
    order = np.arange(len(S))
    model.scaler.fit(y)
    y_scaled = model.scaler.transform(y)
    model.begin_training(S)
    try:
        for _ in range(warmup):
            model.fit_epoch(S, y_scaled, order)
            model.end_epoch()
        latencies = np.empty(epochs)
        for i in range(epochs):
            start = monotonic()
            model.fit_epoch(S, y_scaled, order)
            model.end_epoch()
            latencies[i] = monotonic() - start
    finally:
        model.finish_training()
    return {
        "epochs": int(epochs),
        "rows_per_s": float(len(S) * epochs / latencies.sum()),
        "mean_epoch_ms": float(latencies.mean() * 1e3),
        "p50_epoch_ms": float(np.percentile(latencies, 50) * 1e3),
    }


def _refresh_microbench(
    *, dim: int, features: int, seed: int, updates: int
) -> dict:
    """Incremental plan refresh counters over a short stream session.

    Compiles one plan, then alternates tiny ``update``/``predict`` calls;
    every update marks the plan stale and the following predict refreshes
    it in place.  Reports the plan's cumulative refresh statistics — rows
    actually re-packed versus rows whose sign pattern (and therefore
    packed words) survived unchanged.
    """
    from repro.streaming import StreamingRegHD

    rng = np.random.default_rng(seed + 7)
    stream = StreamingRegHD(
        features,
        RegHDConfig(
            dim=dim,
            n_models=8,
            seed=seed,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )
    X0 = rng.normal(size=(64, features))
    stream.update(X0, np.sin(X0[:, 0]))
    stream.predict(rng.normal(size=(8, features)))  # compiles the plan
    for _ in range(updates):
        X = rng.normal(size=(16, features))
        stream.update(X, np.sin(X[:, 0]))
        stream.predict(rng.normal(size=(8, features)))  # refreshes in place
    stats = dict(stream._plan.refresh_stats)
    total = stats["rows_refreshed"] + stats["rows_reused"]
    return {
        "dim": int(dim),
        "updates": int(updates),
        **stats,
        "reuse_fraction": float(stats["rows_reused"] / total) if total else 1.0,
    }


def run_training_benchmark(
    *,
    dims: tuple[int, ...] = TRAIN_DIMS,
    rows: int = 2048,
    epochs: int = 5,
    features: int = 16,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    """Measure quantised training throughput under every backend.

    ``quick=True`` shrinks the sweep (drops D = 10k, fewer rows/epochs)
    to a CI-friendly smoke run that still yields the packed-vs-dense
    ratio at D = 4096.
    """
    if quick:
        dims = tuple(d for d in dims if d <= 4096) or dims[:1]
        rows = min(rows, 512)
        epochs = min(epochs, 2)

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]

    results: list[dict] = []
    speedups: dict[str, dict[str, float]] = {}
    for dim in dims:
        cells: dict[str, dict] = {}
        for backend in BACKENDS:
            model = _quantised_model(dim, features, seed, backend)
            # One shared encoding pass: timing isolates kernel arithmetic.
            S = model.encode(X).matrix
            cells[backend] = _time_training(model, S, y, epochs=epochs)
        for backend, stats in cells.items():
            results.append({"dim": int(dim), "backend": backend, **stats})
        speedups[str(dim)] = {
            "packed_vs_dense": cells["packed"]["rows_per_s"]
            / cells["dense"]["rows_per_s"],
        }

    refresh = _refresh_microbench(
        dim=min(dims), features=features, seed=seed, updates=4 if quick else 16
    )

    return {
        "schema": 1,
        "benchmark": "reghd-training-throughput",
        "quant": {"cluster": "framework", "predict": "binary_both"},
        "quick": bool(quick),
        "params": {
            "dims": [int(d) for d in dims],
            "rows": int(rows),
            "epochs": int(epochs),
            "features": int(features),
            "n_models": 8,
            "seed": int(seed),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        },
        "runtime": {
            "backends": list(BACKENDS),
            "version": RUNTIME_VERSION,
        },
        "results": results,
        "speedups": speedups,
        "plan_refresh": refresh,
    }
