"""The bench harness: four benchmark suites and one record gate.

``repro bench SUITE`` runs one of :data:`SUITES` (``inference``,
``training``, ``robustness``, ``distributed``) and writes its
``BENCH_<suite>.json`` record; every repeated-call timing goes through
:func:`_timed`.  :func:`compare_records` is the one regression gate for
every record kind (these four plus the workload-replay
``BENCH_workloads.json``), driven by the :data:`GATES` table, and
:func:`print_report` renders its verdict for ``repro bench --compare``
and ``benchmarks/compare.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import RegHDConfig, derive_shard_seed
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.datasets import friedman1
from repro.distributed.shard import ShardTrainer
from repro.evaluation import render_table
from repro.metrics import root_mean_squared_error
from repro.noise.injection import outlier_burst
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.robust.conformal import AdaptiveConformal
from repro.runtime import RUNTIME_VERSION, resolve_backend
from repro.streaming import StreamingRegHD
from repro.telemetry.timing import monotonic
from repro.workloads.replay import BENCHMARK_NAME as WORKLOAD_BENCHMARK

#: Dimensionalities swept by the full inference suite (paper Sec. 4 uses 4k-10k).
DEFAULT_DIMS = (1000, 4096, 10000)

#: Dimensionalities swept by the training suite.
TRAIN_DIMS = (4096, 10000)

#: Backends the training suite compares; ``dense`` is the ratio's divisor.
BACKENDS = ("dense", "packed")

#: Robustness acceptance: the gate wins back at least this share of the
#: contamination RMSE gap, and nominal-90% conformal coverage stays in
#: this band.
MIN_RECOVERY = 0.8
COVERAGE_BAND = (0.86, 0.94)


def _timed(call: Callable[[], object], *, repeats: int = 1, warmup: int = 0):
    """Seconds per timed ``call()`` and the last call's result.

    ``warmup`` untimed calls run first (compile caches, page faults).
    """
    for _ in range(warmup):
        call()
    seconds = np.empty(repeats)
    result = None
    for i in range(repeats):
        start = monotonic()
        result = call()
        seconds[i] = monotonic() - start
    return seconds, result


def quantised_config(dim: int, seed: int, backend: str | None = None) -> RegHDConfig:
    """8 models whose similarity search and dot products both binarise."""
    return RegHDConfig(
        dim=dim,
        n_models=8,
        seed=seed,
        backend=backend,
        cluster_quant=ClusterQuant.FRAMEWORK,
        predict_quant=PredictQuant.BINARY_BOTH,
    )


def _sine_rows(rng: np.random.Generator, rows: int, features: int):
    """Gaussian features with a smooth nonlinear target."""
    X = rng.normal(size=(rows, features))
    return X, np.sin(X[:, 0]) + 0.5 * X[:, 1]


def _machine() -> dict:
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__}


# -- inference ---------------------------------------------------------------


def run_inference_benchmark(
    *,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    batch_rows: int = 2048,
    repeats: int = 10,
    features: int = 16,
    n_workers: int = 4,
    seed: int = 0,
    quick: bool = False,
    backend: str = "packed",
) -> dict:
    """Time float, packed and multi-threaded packed serving per dimensionality.

    ``quick=True`` shrinks the sweep (drops D = 10k, smaller batches,
    fewer repeats) to a CI-friendly smoke run that still yields the
    packed-vs-float comparison at D = 4096.  ``backend`` selects the
    execution-runtime backend for the ``packed`` cell; the ``packed_mt``
    cell always runs the packed backend and the ``float`` cell always
    runs the uncompiled model path.
    """
    if quick:
        dims = tuple(d for d in dims if d <= 4096) or dims[:1]
        batch_rows = min(batch_rows, 512)
        repeats = min(repeats, 3)

    runtime = resolve_backend(backend)
    rng = np.random.default_rng(seed + 1)
    results: list[dict] = []
    speedups: dict[str, dict[str, float]] = {}
    for dim in dims:
        # A minimally-trained model: state, not quality, matters here.
        model = MultiModelRegHD(features, quantised_config(dim, seed))
        model.partial_fit(*_sine_rows(np.random.default_rng(seed), 256, features))
        plan = model.compile(backend=runtime, n_workers=1)
        packed_plan = model.compile(backend="packed", n_workers=1)
        X = rng.normal(size=(batch_rows, features))

        predictors = {
            "float": model.predict,
            "packed": plan.predict,
            "packed_mt": lambda batch: packed_plan.predict(batch, n_workers=n_workers),
        }
        cells = {}
        for variant, predict in predictors.items():
            seconds, _ = _timed(lambda: predict(X), repeats=repeats, warmup=1)
            cells[variant] = {
                "batch_rows": int(batch_rows),
                "repeats": int(repeats),
                "rows_per_s": float(batch_rows * repeats / seconds.sum()),
                "mean_ms": float(seconds.mean() * 1e3),
                "p50_ms": float(np.percentile(seconds, 50) * 1e3),
                "p99_ms": float(np.percentile(seconds, 99) * 1e3),
            }
            results.append({"dim": int(dim), "variant": variant, **cells[variant]})
        speedups[str(dim)] = {
            "packed_vs_float": cells["packed"]["rows_per_s"]
            / cells["float"]["rows_per_s"],
            "packed_mt_vs_float": cells["packed_mt"]["rows_per_s"]
            / cells["float"]["rows_per_s"],
        }

    return {
        "schema": 1,
        "benchmark": "reghd-inference-engine",
        "quant": {"cluster": "framework", "predict": "binary_both"},
        "quick": bool(quick),
        "params": {
            "dims": [int(d) for d in dims],
            "batch_rows": int(batch_rows),
            "repeats": int(repeats),
            "features": int(features),
            "n_workers": int(n_workers),
            "n_models": 8,
            "seed": int(seed),
        },
        "machine": _machine(),
        "runtime": {"backend": runtime.name, "version": RUNTIME_VERSION},
        "results": results,
        "speedups": speedups,
    }


def _inference_summary(record: dict) -> str:
    rows = [
        {k: r[k] for k in ("dim", "variant", "rows_per_s", "p50_ms", "p99_ms")}
        for r in record["results"]
    ]
    lines = [
        render_table(
            rows,
            precision=2,
            title="inference engine throughput "
            f"(batch={record['params']['batch_rows']} rows, "
            f"{record['params']['repeats']} repeats)",
        )
    ]
    for dim, ratios in record["speedups"].items():
        lines.append(
            f"D={dim:>6}: packed {ratios['packed_vs_float']:.2f}x, "
            f"packed+threads {ratios['packed_mt_vs_float']:.2f}x vs float"
        )
    runtime = record["runtime"]
    lines.append(f"runtime backend: {runtime['backend']} (runtime v{runtime['version']})")
    return "\n".join(lines)


# -- training ----------------------------------------------------------------


def _epoch_stats(model: MultiModelRegHD, S: np.ndarray, y: np.ndarray, epochs: int) -> dict:
    """Rows/sec over ``epochs`` timed passes of ``fit_epoch`` + ``end_epoch``.

    Runs under the trainer's ``begin_training``/``finish_training``
    protocol so the packed backend gets its epoch-spanning query cache,
    exactly as :class:`~repro.core.trainer.IterativeTrainer` provides it.
    """
    order = np.arange(len(S))
    model.scaler.fit(y)
    y_scaled = model.scaler.transform(y)

    def epoch() -> None:
        model.fit_epoch(S, y_scaled, order)
        model.end_epoch()

    model.begin_training(S)
    try:
        seconds, _ = _timed(epoch, repeats=epochs, warmup=1)
    finally:
        model.finish_training()
    return {
        "epochs": int(epochs),
        "rows_per_s": float(len(S) * epochs / seconds.sum()),
        "mean_epoch_ms": float(seconds.mean() * 1e3),
        "p50_epoch_ms": float(np.percentile(seconds, 50) * 1e3),
    }


def _refresh_counters(*, dim: int, features: int, seed: int, updates: int) -> dict:
    """Incremental plan-refresh counters over a short stream session.

    Every tiny ``update`` marks the compiled plan stale and the following
    ``predict`` refreshes it in place; the counters show rows actually
    re-packed versus rows whose sign pattern survived unchanged.
    """
    rng = np.random.default_rng(seed + 7)
    stream = StreamingRegHD(features, quantised_config(dim, seed))
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
    """Time quantised training epochs on the dense and packed backends.

    Both backends consume the same pre-encoded batch, so the ratio
    isolates kernel arithmetic.  ``quick=True`` drops D = 10k and cuts
    rows and epochs to a smoke run that still yields the ratio at
    D = 4096.
    """
    if quick:
        dims = tuple(d for d in dims if d <= 4096) or dims[:1]
        rows = min(rows, 512)
        epochs = min(epochs, 2)

    X, y = _sine_rows(np.random.default_rng(seed), rows, features)
    results: list[dict] = []
    speedups: dict[str, dict[str, float]] = {}
    for dim in dims:
        cells = {}
        for backend in BACKENDS:
            model = MultiModelRegHD(features, quantised_config(dim, seed, backend))
            cells[backend] = _epoch_stats(model, model.encode(X).matrix, y, epochs)
            results.append({"dim": int(dim), "backend": backend, **cells[backend]})
        speedups[str(dim)] = {
            "packed_vs_dense": cells["packed"]["rows_per_s"]
            / cells["dense"]["rows_per_s"],
        }

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
        "machine": _machine(),
        "runtime": {"backends": list(BACKENDS), "version": RUNTIME_VERSION},
        "results": results,
        "speedups": speedups,
        "plan_refresh": _refresh_counters(
            dim=min(dims), features=features, seed=seed, updates=4 if quick else 16
        ),
    }


def _training_summary(record: dict) -> str:
    rows = [
        {k: r[k] for k in ("dim", "backend", "rows_per_s", "mean_epoch_ms")}
        for r in record["results"]
    ]
    lines = [
        render_table(
            rows,
            precision=2,
            title="training throughput "
            f"({record['params']['rows']} rows x {record['params']['epochs']} epochs)",
        )
    ]
    for dim, ratios in record["speedups"].items():
        lines.append(f"D={dim:>6}: packed {ratios['packed_vs_dense']:.2f}x vs dense")
    refresh = record["plan_refresh"]
    lines.append(
        f"plan refresh: {refresh['refreshes']} refreshes, "
        f"{refresh['rows_refreshed']} rows re-packed, "
        f"{refresh['rows_reused']} reused "
        f"({100 * refresh['reuse_fraction']:.0f}% reuse)"
    )
    return "\n".join(lines)


# -- robustness --------------------------------------------------------------


def _stream_run(
    X: np.ndarray,
    y: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    *,
    guard: str,
    batch_rows: int,
    config: RegHDConfig,
    conformal: AdaptiveConformal | None = None,
) -> dict:
    """One streaming run; returns final clean-test RMSE plus guard stats."""
    stream = ResilientStreamingRegHD(X.shape[1], config, guard=guard, conformal=conformal)
    for start in range(0, len(X), batch_rows):
        stream.update(X[start : start + batch_rows], y[start : start + batch_rows])
    record: dict = {
        "guard": guard,
        "rmse": float(root_mean_squared_error(y_test, stream.model.predict(X_test))),
        "rows_in": int(stream.guard.total.n_rows_in),
        "rows_dropped": int(stream.guard.total.n_dropped_rows),
        "rows_gated": int(stream.guard.total.n_gated_rows),
    }
    if conformal is not None:
        record["conformal"] = {
            "alpha": conformal.alpha,
            "coverage": float(conformal.coverage),
            "n_scored": int(conformal.n_scored),
            "half_width": float(conformal.quantile()),
        }
    return record


def run_robustness_benchmark(
    *,
    n_rows: int = 6000,
    n_test: int = 1500,
    features: int = 8,
    batch_rows: int = 64,
    contamination: float = 0.1,
    magnitude: float = 10.0,
    alpha: float = 0.1,
    dim: int = 2048,
    n_models: int = 4,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    """Stream clean, contaminated and Mahalanobis-gated Friedman-1 data.

    ``contaminated`` replaces a fraction of the joint ``[x, y]`` rows
    with correlated heavy-tailed outliers that the ``drop`` guard lets
    through; ``gated`` streams them behind the ``mahalanobis`` guard and
    an :class:`AdaptiveConformal` calibrator.  ``recovery`` is the share
    of the contamination RMSE gap the gate wins back.  ``quick=True``
    shrinks rows and dimensionality to a smoke run.
    """
    if quick:
        n_rows, n_test, dim = 3000, 800, 1024

    data = friedman1(n_rows + n_test, n_features=features, seed=seed)
    X_stream, y_stream = data.X[:n_rows], data.y[:n_rows]
    X_test, y_test = data.X[n_rows:], data.y[n_rows:]

    # Contaminate the *joint* rows: the burst direction spans features
    # and target together, the correlated structure marginal range
    # checks cannot see.
    Z = np.hstack([X_stream, y_stream[:, np.newaxis]])
    Z_dirty = outlier_burst(Z, contamination, seed=seed + 1, magnitude=magnitude)
    X_dirty, y_dirty = Z_dirty[:, :-1], Z_dirty[:, -1]

    config = RegHDConfig(dim=dim, n_models=n_models, seed=seed)
    common = dict(X_test=X_test, y_test=y_test, batch_rows=batch_rows, config=config)
    runs = {
        "clean": _stream_run(X_stream, y_stream, guard="drop", **common),
        "contaminated": _stream_run(X_dirty, y_dirty, guard="drop", **common),
        "gated": _stream_run(
            X_dirty,
            y_dirty,
            guard="mahalanobis",
            conformal=AdaptiveConformal(alpha=alpha, window=512),
            **common,
        ),
    }

    gap = runs["contaminated"]["rmse"] - runs["clean"]["rmse"]
    won = runs["contaminated"]["rmse"] - runs["gated"]["rmse"]
    return {
        "schema": 1,
        "benchmark": "reghd-robustness-contamination",
        "quick": bool(quick),
        "params": {
            "n_rows": int(n_rows),
            "n_test": int(n_test),
            "features": int(features),
            "batch_rows": int(batch_rows),
            "contamination": float(contamination),
            "magnitude": float(magnitude),
            "alpha": float(alpha),
            "dim": int(dim),
            "n_models": int(n_models),
            "seed": int(seed),
            "n_outlier_rows": int((Z_dirty != Z).any(axis=1).sum()),
        },
        "runs": runs,
        "recovery": float(won / gap) if gap > 0 else float("nan"),
        "coverage": runs["gated"]["conformal"]["coverage"],
    }


def _robustness_summary(record: dict) -> str:
    runs = record["runs"]
    return (
        f"clean rmse {runs['clean']['rmse']:.3f} | "
        f"contaminated {runs['contaminated']['rmse']:.3f} | "
        f"gated {runs['gated']['rmse']:.3f} | "
        f"recovery {record['recovery']:.1%} | "
        f"coverage {record['coverage']:.1%}"
    )


def _robustness_acceptance(record: dict) -> list[str]:
    failures = []
    if not record["recovery"] >= MIN_RECOVERY:
        failures.append(f"recovery {record['recovery']:.3f} < {MIN_RECOVERY}")
    low, high = COVERAGE_BAND
    if not low <= record["coverage"] <= high:
        failures.append(f"coverage {record['coverage']:.3f} outside [{low}, {high}]")
    return failures


# -- distributed -------------------------------------------------------------


def run_distributed_benchmark(
    *,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    n_rows: int = 8000,
    n_test: int = 1000,
    features: int = 8,
    dim: int = 4096,
    n_models: int = 8,
    batch_rows: int = 256,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    """Time one shard map-reduce training round per worker count.

    Per-worker times cover the full round trip a deployment pays: state
    broadcast, worker construction, training, delta pickling, ordered
    merge and apply.  ``host_cpus`` is stamped because speedups are
    bounded by the cores that existed: on a 1-CPU host the curve measures
    process-pool overhead.  ``quick=True`` shrinks rows, dimensionality
    and the default worker sweep to ``(1, 2)``.
    """
    if quick:
        n_rows, n_test, dim = 2000, 500, 1024
        if workers == (1, 2, 4, 8):  # shrink only the default sweep
            workers = (1, 2)

    data = friedman1(n_rows + n_test, n_features=features, seed=seed)
    X, y = data.X[:n_rows], data.y[:n_rows]
    X_test, y_test = data.X[n_rows:], data.y[n_rows:]
    config = RegHDConfig(dim=dim, n_models=n_models, seed=seed)

    # Sequential reference: the same stream absorbed batch by batch.
    seq_model = MultiModelRegHD(features, config)

    def absorb() -> None:
        for lo in range(0, n_rows, batch_rows):
            seq_model.partial_fit(X[lo : lo + batch_rows], y[lo : lo + batch_rows])

    (seq_seconds,), _ = _timed(absorb)
    seq_rmse = root_mean_squared_error(y_test, seq_model.predict(X_test))

    curves: list[dict] = []
    for n_workers in workers:
        model = MultiModelRegHD(features, config)
        trainer = ShardTrainer(
            model,
            n_shards=n_workers,
            n_workers=n_workers,
            batch_rows=batch_rows,
            reduction="mean",
        )
        (seconds,), report = _timed(lambda: trainer.train(X, y))
        rmse = root_mean_squared_error(y_test, model.predict(X_test))
        curves.append(
            {
                "workers": int(n_workers),
                "seconds": float(seconds),
                "rows_per_s": float(n_rows / seconds),
                "speedup_vs_1": float((curves[0]["seconds"] if curves else seconds) / seconds),
                "rmse": float(rmse),
                "rmse_vs_sequential": float(rmse / seq_rmse),
                "shard_samples": report.shard_samples,
                "shard_bytes": report.shard_bytes,
                "merged_bytes": report.merged_bytes,
            }
        )

    return {
        "schema": 1,
        "benchmark": "reghd-distributed-scaling",
        "quick": bool(quick),
        "host_cpus": int(os.cpu_count() or 1),
        "scaling_note": (
            "speedups are bounded by host_cpus; on a single-core host the "
            "curve measures process-pool overhead, not parallel speedup"
        ),
        "params": {
            "n_rows": int(n_rows),
            "n_test": int(n_test),
            "features": int(features),
            "dim": int(dim),
            "n_models": int(n_models),
            "batch_rows": int(batch_rows),
            "reduction": "mean",
            "seed": int(seed),
            "shard_seeds": [derive_shard_seed(seed, shard) for shard in range(max(workers))],
        },
        "sequential": {
            "seconds": float(seq_seconds),
            "rows_per_s": float(n_rows / seq_seconds),
            "rmse": float(seq_rmse),
        },
        "curves": curves,
    }


def _distributed_summary(record: dict) -> str:
    return f"host_cpus={record['host_cpus']} | " + " | ".join(
        f"{c['workers']}w: {c['rows_per_s']:.0f} rows/s "
        f"(x{c['speedup_vs_1']:.2f}, rmse ratio {c['rmse_vs_sequential']:.3f})"
        for c in record["curves"]
    )


@dataclass(frozen=True)
class Suite:
    """One ``repro bench SUITE``: its runner, console summary and acceptance."""

    run: Callable[..., dict]
    summary: Callable[[dict], str]
    #: failed acceptance checks (empty = pass); a failure fails the command
    acceptance: Callable[[dict], list[str]] = lambda record: []


SUITES: dict[str, Suite] = {
    "inference": Suite(run_inference_benchmark, _inference_summary),
    "training": Suite(run_training_benchmark, _training_summary),
    "robustness": Suite(run_robustness_benchmark, _robustness_summary, _robustness_acceptance),
    "distributed": Suite(run_distributed_benchmark, _distributed_summary),
}


# -- the regression gate -----------------------------------------------------

#: ``(cell, metric) -> (value, passed)``; ``passed`` is ``None`` where the
#: record carries no verdict of its own.
Cells = dict[tuple[str, str], tuple[float, object]]


def _rows_per_s(column: str) -> Callable[[dict], Cells]:
    return lambda record: {
        (f"D={r['dim']} {r[column]}", "rows_per_s"): (r["rows_per_s"], None)
        for r in record.get("results", [])
    }


def _speedups(record: dict) -> Cells:
    return {
        (f"D={dim} {name}", name): (value, None)
        for dim, ratios in record.get("speedups", {}).items()
        for name, value in ratios.items()
    }


def _curves(metric: str) -> Callable[[dict], Cells]:
    return lambda record: {
        (f"{c['workers']}w", metric): (c[metric], None) for c in record.get("curves", [])
    }


def _workloads(record: dict) -> Cells:
    return {
        (r["workload"], "tail_rmse"): (r["tail_rmse"], r["passed"])
        for r in record.get("results", [])
    }


def _param_keys(*keys: str) -> Callable[[dict], object]:
    return lambda record: tuple(record.get("params", {}).get(k) for k in keys)


def _cpu_count(record: dict) -> object:
    return record.get("machine", {}).get("cpu_count")


@dataclass(frozen=True)
class Gate:
    """One record kind's row in the regression-gate table.

    Throughput cells compare on the same host, ratio cells (machine
    independent) across hosts, and seeded quality cells on any host;
    nothing compares unless ``params`` match.  A throughput or ratio
    drop beyond the slack is a regression; the slack is the threshold,
    doubled (never compounded) across hosts or, where
    ``quick_doubles_slack``, for quick-mode records.  A quality value
    rising beyond the plain threshold, or a pass turning into a fail,
    is a regression.
    """

    params: Callable[[dict], object]
    host: Callable[[dict], object] = lambda record: None
    throughput: Callable[[dict], Cells] = lambda record: {}
    ratios: Callable[[dict], Cells] = lambda record: {}
    quality: Callable[[dict], Cells] = lambda record: {}
    quick_doubles_slack: bool = False
    #: line formats for throughput, ratio and quality cells
    formats: tuple[str, ...] = ("{cell} {metric}: {old:.3f} -> {new:.3f} ({change:+.1%})",) * 3
    #: cells that run the record's requested backend (skipped when it differs)
    backend_bound: Callable[[str], bool] = lambda cell: False


_THROUGHPUT_FORMATS = (
    "{cell}: {old:,.0f} -> {new:,.0f} rows/s ({change:+.1%})",
    "{cell}: {old:.2f}x -> {new:.2f}x ({change:+.1%})",
    "",
)

_INCOMPARABLE = (
    "benchmark parameters differ (quick vs full sweep?); records are incomparable "
    "— throughput, ratios and quality are workload-dependent, nothing to gate"
)

#: A record without a ``benchmark`` field is read as an inference record.
INFERENCE_BENCHMARK = "reghd-inference-engine"

GATES: dict[str, Gate] = {
    # Raw rows/s and the speedup ratios both shift with batch size, so a
    # quick record never gates a full sweep; dims may differ (shared
    # cells only).  The ``packed`` cell runs the requested backend.
    INFERENCE_BENCHMARK: Gate(
        params=_param_keys("batch_rows", "repeats", "features", "n_workers"),
        host=_cpu_count,
        throughput=_rows_per_s("variant"),
        ratios=_speedups,
        quick_doubles_slack=True,
        formats=_THROUGHPUT_FORMATS,
        backend_bound=lambda cell: "packed" in cell.split()[-1].split("_vs_"),
    ),
    "reghd-training-throughput": Gate(
        params=_param_keys("rows", "epochs", "features", "n_models"),
        host=_cpu_count,
        throughput=_rows_per_s("backend"),
        ratios=_speedups,
        quick_doubles_slack=True,
        formats=_THROUGHPUT_FORMATS,
    ),
    # The merge quality is seeded and host-independent, so it gates on
    # every host once the (exact) params match.
    "reghd-distributed-scaling": Gate(
        params=lambda record: record.get("params"),
        host=lambda record: record.get("host_cpus"),
        throughput=_curves("rows_per_s"),
        ratios=_curves("speedup_vs_1"),
        quality=_curves("rmse_vs_sequential"),
    ),
    # Replay latency is machine-bound and never compared; tail RMSE and
    # the SLO verdict are seeded, so they compare at matching quick/seed.
    WORKLOAD_BENCHMARK: Gate(
        params=lambda record: (record.get("quick"), record.get("seed")),
        quality=_workloads,
        formats=("", "", "{cell}: rmse {old:.4f} -> {new:.4f}, gate {was} -> {now}"),
    ),
}


def compare_records(baseline: dict, current: dict, threshold: float = 0.10) -> dict:
    """Regression-gate ``current`` against ``baseline`` (see :class:`Gate`).

    Returns ``strict`` (same host), ``threshold`` (the throughput slack
    actually applied), ``quality_threshold`` (the quality slack, or
    ``None`` when no quality cell was compared), ``compared`` (cells
    diffed; a cell may carry several metric lines), ``lines``,
    ``regressions`` (empty = pass), ``note`` (what was skipped, or
    ``None``) and ``refused`` (why the two records cannot be judged at
    all, or ``None``).  Cells present on only one side are skipped, so
    a baseline predating a cell never fails spuriously.
    """
    report: dict = {
        "strict": False,
        "threshold": float(threshold),
        "quality_threshold": None,
        "compared": 0,
        "lines": [],
        "regressions": [],
        "note": None,
        "refused": None,
    }
    kind = current.get("benchmark", INFERENCE_BENCHMARK)
    base_kind = baseline.get("benchmark", INFERENCE_BENCHMARK)
    gate = GATES.get(kind)
    if base_kind != kind:
        return {**report, "refused": f"different record kinds ({base_kind} vs {kind})"}
    if gate is None:
        return {**report, "refused": f"no gate for {kind} records"}
    if gate.params(baseline) != gate.params(current):
        return {**report, "note": _INCOMPARABLE}

    notes = []
    strict = gate.host(baseline) == gate.host(current)
    quick = bool(baseline.get("quick") or current.get("quick"))
    slack = threshold * (2.0 if not strict or (gate.quick_doubles_slack and quick) else 1.0)
    same_backend = baseline.get("runtime", {}).get("backend") == current.get(
        "runtime", {}
    ).get("backend")
    if not same_backend:
        notes.append("requested backends differ; the `packed` cell and its ratios were skipped")
    if not strict:
        notes.append(f"different hosts; comparing speedup ratios at {slack:.0%} slack")
    cells: set[str] = set()

    def diff(extract, fmt: str, quality: bool) -> int:
        """Diff one class of cells; returns the number of lines added."""
        n_lines = len(report["lines"])
        base = extract(baseline)
        for (cell, metric), value in extract(current).items():
            ref = base.get((cell, metric))
            if ref is None or (not same_backend and gate.backend_bound(cell)):
                continue
            (old, was), (new, now) = ref, value
            if not old and not quality:
                continue
            change = new / old - 1.0 if old else 0.0
            line = fmt.format(
                cell=cell,
                metric=metric,
                old=old,
                new=new,
                change=change,
                was="PASS" if was else "FAIL",
                now="PASS" if now else "FAIL",
            )
            if quality:
                rose = np.isfinite([old, new]).all() and new > old * (1.0 + threshold) + 1e-9
                regressed = rose or (bool(was) and not bool(now))
            else:
                regressed = change < -slack
            cells.add(cell)
            report["lines"].append(line)
            if regressed:
                report["regressions"].append(line)
        return len(report["lines"]) - n_lines

    throughput_fmt, ratio_fmt, quality_fmt = gate.formats
    if strict:
        diff(gate.throughput, throughput_fmt, quality=False)
    else:
        diff(gate.ratios, ratio_fmt, quality=False)
    if diff(gate.quality, quality_fmt, quality=True):
        report["quality_threshold"] = float(threshold)
    report.update(
        strict=strict,
        threshold=float(slack),
        compared=len(cells),
        note="; ".join(notes) or None,
    )
    return report


def print_report(report: dict) -> int:
    """Print a :func:`compare_records` report; returns the exit code.

    0 = no regression (or nothing comparable), 1 = regression,
    2 = the records cannot be judged against each other.
    """
    if report["refused"]:
        print(f"cannot compare: {report['refused']}")
        return 2
    mode = "same host" if report["strict"] else "across hosts"
    print(f"benchmark compare ({mode}): {report['compared']} cells")
    if report["note"]:
        print(f"note: {report['note']}")
    for line in report["lines"]:
        print(("  REGRESSION " if line in report["regressions"] else "  ") + line)
    if not report["compared"]:
        print("warning: no comparable cells between the two records")
        return 0
    if report["regressions"]:
        slack = f"{report['threshold']:.0%}"
        if report["quality_threshold"] not in (None, report["threshold"]):
            slack += f" (quality cells: {report['quality_threshold']:.0%})"
        print(f"{len(report['regressions'])} regression(s) beyond {slack}")
        return 1
    print("no regressions")
    return 0
