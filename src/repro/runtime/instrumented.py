"""Telemetry-instrumented decorator around any :class:`KernelBackend`.

When telemetry is enabled, :func:`repro.runtime.resolve_backend` wraps
the resolved backend singleton in :class:`InstrumentedBackend`, which
counts every kernel invocation and the bytes its operands moved
(``reghd_kernel_calls_total`` / ``reghd_kernel_bytes_total``, labelled
by backend and kernel) before delegating unchanged.  The wrapper *is* a
``KernelBackend`` — capability probes, operand construction and all
arithmetic come from the wrapped instance, so results are bit-identical
to the bare backend.

Byte accounting is deliberately conservative: it sums the ``nbytes`` of
the arrays a kernel actually receives (query base matrix, operand
arrays, result) without forcing any of the query's lazy derivations —
observing a kernel must never change what it computes or caches.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.base import KernelBackend
from repro.telemetry import metrics as _metrics

__all__ = ["InstrumentedBackend", "operand_nbytes"]


def operand_nbytes(operand: object) -> int:
    """Resident bytes of a model-side operand (live or frozen).

    Frozen operands expose ``arrays``; live operands wrap a DualCopy
    whose integer shadow is the authoritative storage.  Unknown operand
    shapes count as zero rather than guessing.
    """
    arrays = getattr(operand, "arrays", None)
    if arrays is not None:
        return int(sum(a.nbytes for a in arrays))
    dual = getattr(operand, "dual", None)
    if dual is not None:
        return int(dual.integer.nbytes)
    integer = getattr(operand, "integer", None)  # a bare DualCopy
    if integer is not None:
        return int(integer.nbytes)
    if isinstance(operand, np.ndarray):
        return int(operand.nbytes)
    return 0


def _query_nbytes(query) -> int:
    """Resident bytes of a query's base matrix, without forcing lazy
    derivations.  Fused serving queries carry no float batch — their
    packed words are the base representation."""
    if query.S is not None:
        return int(query.S.nbytes)
    if query._words is not None:
        return int(query._words.nbytes)
    return 0


class InstrumentedBackend(KernelBackend):
    """Counting proxy for a kernel backend; math delegates untouched.

    The wrapper checks the live telemetry sink on every call, so a
    backend resolved while telemetry was on keeps working (it just stops
    counting) if telemetry is later disabled mid-run.
    """

    def __init__(self, inner: KernelBackend):
        if isinstance(inner, InstrumentedBackend):  # never double-wrap
            inner = inner.inner
        self.inner = inner

    @property
    def name(self) -> str:
        """Registry name of the wrapped backend."""
        return self.inner.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedBackend({self.inner!r})"

    def _record(self, kernel: str, nbytes: int) -> None:
        registry = _metrics.active()
        if registry is None:
            return
        backend = self.inner.name
        registry.counter(
            "reghd_kernel_calls_total", backend=backend, kernel=kernel
        ).inc()
        registry.counter(
            "reghd_kernel_bytes_total", backend=backend, kernel=kernel
        ).inc(float(nbytes))

    # -- capability probes / plumbing: delegated, not counted ---------------

    def packs_similarities(self, cluster_quant) -> bool:
        """Delegate the packed-similarity capability probe."""
        return self.inner.packs_similarities(cluster_quant)

    def packs_dots(self, predict_quant) -> bool:
        """Delegate the packed-dots capability probe."""
        return self.inner.packs_dots(predict_quant)

    def make_training_cache(self, S, *, cluster_quant, predict_quant):
        """Delegate cache construction; emits a cache ``build`` event."""
        cache = self.inner.make_training_cache(
            S, cluster_quant=cluster_quant, predict_quant=predict_quant
        )
        registry = _metrics.active()
        if registry is not None and cache is not None:
            registry.counter(
                "reghd_cache_events_total", cache="query", event="build"
            ).inc()
        return cache

    # -- forward kernels -----------------------------------------------------

    def encode_pack(self, X, enc, scratch):
        """Count + delegate the fused encode→pack serving kernel."""
        words, scales = self.inner.encode_pack(X, enc, scratch)
        self._record(
            "encode_pack", X.nbytes + words.nbytes + scales.nbytes
        )
        return words, scales

    def cluster_similarities(self, query, clusters):
        """Count + delegate the Eq.-5 similarity kernel."""
        sims = self.inner.cluster_similarities(query, clusters)
        self._record(
            "cluster_similarities",
            _query_nbytes(query) + operand_nbytes(clusters) + sims.nbytes,
        )
        return sims

    def confidences(self, sims, softmax_temp):
        """Count + delegate the softmax-confidence kernel."""
        conf = self.inner.confidences(sims, softmax_temp)
        self._record("confidences", sims.nbytes + conf.nbytes)
        return conf

    def model_dots(self, query, models):
        """Count + delegate the Eq.-6 model dot-product kernel."""
        dots = self.inner.model_dots(query, models)
        self._record(
            "model_dots",
            _query_nbytes(query) + operand_nbytes(models) + dots.nbytes,
        )
        return dots

    def weighted_prediction(self, conf, dots):
        """Count + delegate the confidence-weighted accumulation."""
        y = self.inner.weighted_prediction(conf, dots)
        self._record(
            "weighted_prediction", conf.nbytes + dots.nbytes + y.nbytes
        )
        return y

    def linear_dots(self, S, weights):
        """Count + delegate the single-vector dot kernel."""
        out = self.inner.linear_dots(S, weights)
        self._record(
            "linear_dots",
            S.nbytes + np.asarray(weights).nbytes + np.asarray(out).nbytes,
        )
        return out

    # -- update kernels ------------------------------------------------------

    def lms_step(self, errors, S, lr):
        """Count + delegate the returned LMS update term."""
        step = self.inner.lms_step(errors, S, lr)
        self._record("lms_step", errors.nbytes + S.nbytes + step.nbytes)
        return step

    def weighted_model_step(self, weights, S, lr):
        """Count + delegate the returned Eq.-7 update term."""
        step = self.inner.weighted_model_step(weights, S, lr)
        self._record(
            "weighted_model_step",
            weights.nbytes + S.nbytes + step.nbytes,
        )
        return step

    def segment_delta(self, indices, rows, k):
        """Count + delegate the Eq.-8 segment accumulation."""
        delta = self.inner.segment_delta(indices, rows, k)
        self._record(
            "segment_delta", indices.nbytes + rows.nbytes + delta.nbytes
        )
        return delta

    def scatter_add(self, target, indices, rows):
        """Count + delegate the unbuffered scatter-add."""
        self.inner.scatter_add(target, indices, rows)
        self._record(
            "scatter_add", target.nbytes + indices.nbytes + rows.nbytes
        )
