"""Tiled, multi-threaded execution of a :class:`CompiledPlan`.

A batch is cut into row tiles, and every tile runs the estimator's own
query sequence — encode (Eq. 1), L2-normalise, wrap in a
:class:`~repro.runtime.Query`, then the backend's similarity → softmax →
dot products → accumulate — so peak memory is ``n_workers`` tiles'
temporaries plus the output vector: a million-row batch costs no more
transient memory than one tile per worker.  A plan given the whole batch
as one tile predicts bit-identically to
:meth:`MultiModelRegHD.predict <repro.core.multi.MultiModelRegHD.predict>`.

Plans whose backend fuses encode→pack (``plan.fused_encode``) skip the
float pipeline entirely: raw feature rows become packed ``uint64`` sign
words plus per-row scales in one kernel working in a preallocated
:class:`~repro.runtime.FusedScratch`, and the ``(tile, D)`` float
encoding is never materialised.

Tiles write disjoint slices of the shared output array, so fanning them
out over a thread pool needs no locking; BLAS, the trig ufuncs and the
packed popcount kernels all release the GIL on tile-sized arrays.  The
pool is a persistent process-wide singleton (spawning threads per
predict call made small batches *slower* than the sequential loop), and
batches below a measured rows×words cutoff bypass it entirely — the
multi-threaded path is never dispatched where it cannot win.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.encoding.base import Encoder
from repro.ops.normalize import normalize_rows
from repro.runtime import EncoderOperands, FusedScratch, Query
from repro.telemetry import metrics as _metrics
from repro.telemetry import timing as _timing
from repro.telemetry import tracing as _tracing
from repro.types import FloatArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.plan import CompiledPlan

#: below this many rows × uint64 words per batch, thread fan-out costs
#: more than it saves and the sequential loop runs instead (measured on
#: the benchmark config: dispatch+sync overhead crosses kernel time
#: around 2M word-elements).
MT_MIN_ROWS_X_WORDS = 1 << 21

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """The persistent serving pool, created once per process.

    Sized at ``os.cpu_count()`` threads; per-call concurrency is bounded
    by the per-call scratch queue, not the pool size, so one pool serves
    every plan regardless of its ``n_workers``.
    """
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(
                    max_workers=max(2, os.cpu_count() or 1),
                    thread_name_prefix="repro-serve",
                )
    return _pool


def _effective_workers(n_workers: int, n_tiles: int, n: int, dim: int) -> int:
    """Thread count actually worth using for this batch.

    Falls back to the sequential loop when the host has one core, the
    batch has one tile, or the total work is below the measured
    :data:`MT_MIN_ROWS_X_WORDS` cutoff — the fix for the ``packed_mt``
    regression, where per-call thread dispatch made small batches slower
    than single-threaded execution.
    """
    workers = min(max(1, int(n_workers)), n_tiles)
    if workers <= 1:
        return 1
    if (os.cpu_count() or 1) <= 1:
        return 1
    if n * max(1, (dim + 63) // 64) < MT_MIN_ROWS_X_WORDS:
        return 1
    return workers


def _run_tile(
    plan: "CompiledPlan",
    X: FloatArray,
    lo: int,
    hi: int,
    out: FloatArray,
    scratch: FusedScratch | None,
    enc: "Encoder | EncoderOperands",
    trace: "tuple | None" = None,
) -> None:
    """Run one row tile through the pipeline into ``out[lo:hi]``.

    ``trace`` is a captured ``(tracer, ctx)`` pair: contextvars do not
    propagate into the serving pool's threads, so :func:`execute_plan`
    snapshots the open trace context once and each tile attaches its
    stage records explicitly.  The clock is read through the timing
    module so a single monkeypatch pins every span timestamp.
    """
    X_tile = X[lo:hi]
    # Serving latency split by stage; `registry is None` is the entire
    # cost of the disabled path (no clock reads, no metric lookups).
    registry = _metrics.active()
    t0 = _timing.monotonic() if registry is not None else 0.0

    if plan.fused_encode:
        # Fused encode→pack: raw rows straight to packed words + scales,
        # no float hypervector batch — all a fully-packed plan consumes.
        words, q_scales = plan.backend.encode_pack(X_tile, enc, scratch)
        query = Query(None, words=words, scales=q_scales)
    else:
        # The estimator's query (Sec. 3): encode (Eq. 1), L2-normalise;
        # signs, words, scales and the binarised copy derive lazily.
        query = Query(normalize_rows(enc.encode_batch(X_tile)))
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="encode"
        ).observe(t1 - t0)
        if trace is not None:
            trace[0].record_stage(trace[1], "tile/encode", t0, t1, rows=hi - lo)
        t0 = t1

    # Cluster similarities (Eq. 5) and softmax confidences, dispatched
    # through the plan's kernel backend.
    backend = plan.backend
    sims = backend.cluster_similarities(query, plan.cluster_op)
    conf = backend.confidences(sims, plan.softmax_temp)
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="search"
        ).observe(t1 - t0)
        if trace is not None:
            trace[0].record_stage(trace[1], "tile/search", t0, t1, rows=hi - lo)
        t0 = t1

    # Model dot products (Eq. 6 under the Sec.-3.2 scheme), then the
    # confidence-weighted accumulation mapped back to target units.
    dots = backend.model_dots(query, plan.model_op)
    y = backend.weighted_prediction(conf, dots)
    np.multiply(y, plan.y_scale, out=y)
    np.add(y, plan.y_mean, out=y)
    out[lo:hi] = y
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="accumulate"
        ).observe(t1 - t0)
        if trace is not None:
            trace[0].record_stage(
                trace[1], "tile/accumulate", t0, t1, rows=hi - lo
            )


def execute_plan(
    plan: "CompiledPlan",
    X: FloatArray,
    *,
    tile_rows: int,
    n_workers: int,
) -> FloatArray:
    """Predict a full batch through the tiled pipeline."""
    n = X.shape[0]
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    registry = _metrics.active()
    if registry is not None:
        registry.counter("reghd_serving_rows_total").inc(n)
    tile_rows = max(1, int(tile_rows))
    spans = [
        (lo, min(lo + tile_rows, n)) for lo in range(0, n, tile_rows)
    ]
    # Rematerialised plans regenerate the encoder here — once per call,
    # shared read-only by every tile.
    enc = plan.call_encoder()
    workers = _effective_workers(n_workers, len(spans), n, plan.dim)

    # Snapshot the open trace once; worker threads receive it by value
    # (contextvars do not cross the persistent pool's threads).
    tracer = _tracing.active_tracer()
    ctx = _tracing.current() if tracer is not None else None
    trace = (tracer, ctx) if ctx is not None else None

    def _scratch(rows: int) -> FusedScratch | None:
        return FusedScratch(rows, plan.dim) if plan.fused_encode else None

    if workers == 1:
        scratch = _scratch(min(tile_rows, n))
        for lo, hi in spans:
            _run_tile(plan, X, lo, hi, out, scratch, enc, trace)
        return out

    # One scratch slot per worker, recycled through a queue (it also caps
    # this call's concurrency at ``workers``); tiles write disjoint output
    # slices so no further synchronisation is needed.
    scratch_pool: queue.SimpleQueue[FusedScratch | None] = queue.SimpleQueue()
    for _ in range(workers):
        scratch_pool.put(_scratch(tile_rows))

    def _job(span: tuple[int, int]) -> None:
        scratch = scratch_pool.get()
        try:
            _run_tile(plan, X, span[0], span[1], out, scratch, enc, trace)
        finally:
            scratch_pool.put(scratch)

    # list() drains the iterator so worker exceptions propagate.
    list(_worker_pool().map(_job, spans))
    return out
