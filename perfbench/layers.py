"""Outside-in layer tracing: wrap public entry points, reduce to self time.

The traced run replaces a handful of methods on the *live* classes (the
class of ``model.runtime``, ``plan.backend``, the stream, ...) with thin
wrappers that record one span per call.  Spans are kept in memory as
``(key, parent, phase, start, end)`` records and reduced at the end:
a span's self time is its duration minus the time its direct children
cover.  Nothing in the program is edited, and the untraced run never
installs a wrapper.

Wrapping by live class rather than by backend or class name is
deliberate: when a method is renamed or a backend is merged away, the
lookup below fails loudly instead of reporting a silent zero.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class LayerError(RuntimeError):
    """A wrapped entry point is missing, or a layer that must work did not."""


class SpanTracer:
    """In-memory nested span recorder over wrapped class attributes."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, str, float, float]] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._wrapped: list[tuple[type, str, object, bool]] = []
        self.returns: dict[str, list] = defaultdict(list)
        #: per (key, phase): summed ``len()`` of results, where asked for
        self.rows: dict[tuple[str, str], int] = defaultdict(int)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        cls: type,
        attr: str,
        key: str,
        *,
        keep_return: bool = False,
        count_rows: bool = False,
    ):
        """Record a span named ``key`` around every call of ``cls.attr``.

        ``keep_return`` keeps each call's return value under ``key`` in
        :attr:`returns` (e.g. the plan a ``compile`` call produced);
        ``count_rows`` sums the returned arrays' lengths in :attr:`rows`.
        """
        original = getattr(cls, attr, None)
        if not callable(original):
            raise LayerError(
                f"entry point {cls.__module__}.{cls.__qualname__}.{attr} "
                f"(layer {key}) does not exist"
            )
        if getattr(original, "_perfbench_key", None) is not None:
            return  # already traced here or on a base class
        own = attr in cls.__dict__
        saved = cls.__dict__[attr] if own else None
        spans, stack, returns, rows = (
            self.spans,
            self._stack,
            self.returns,
            self.rows,
        )
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            phase = self.phase
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, parent, phase, start, end)
            if keep_return:
                returns[key].append(result)
            if count_rows:
                rows[key, phase] += len(result)
            return result

        traced._perfbench_key = key
        setattr(cls, attr, traced)
        self._wrapped.append((cls, attr, saved, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._wrapped:
            cls, attr, saved, own = self._wrapped.pop()
            if own:
                setattr(cls, attr, saved)
            else:
                delattr(cls, attr)

    @contextmanager
    def installed(self):
        """Run a block with the wrappers in place; always unwrap."""
        try:
            yield self
        finally:
            self.unwrap_all()

    # -- reduction ---------------------------------------------------------

    def reduce(self, phase: str) -> tuple[dict, dict, float]:
        """Self ms and call count per key over ``phase``'s spans.

        Returns ``(self_ms, calls, covered_ms)`` where ``covered_ms`` is
        the summed duration of the phase's root spans: the part of the
        phase's wall that some wrapped layer accounts for.
        """
        child_s = [0.0] * len(self.spans)
        for key, parent, _, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        for index, (key, parent, span_phase, start, end) in enumerate(
            self.spans
        ):
            if span_phase != phase:
                continue
            self_ms[key] += (end - start - child_s[index]) * 1e3
            calls[key] += 1
            if parent < 0:
                covered += end - start
        return dict(self_ms), dict(calls), covered * 1e3

    def total_ms(self, key: str) -> float:
        """Summed wall of every ``key`` span, in any phase."""
        return sum(
            (end - start) * 1e3
            for span_key, _, _, start, end in self.spans
            if span_key == key
        )


#: (metric key, role of the live object whose class is wrapped, method).
#: Several rows may share a key: e.g. the runtime kernels are wrapped on
#: both the training runtime and the serving plan's backend.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("encoding.encode_batch", "encoder", "encode_batch"),
    ("runtime.encode_pack", "fused_backend", "encode_pack"),
    *(
        (f"runtime.{kernel}", role, kernel)
        for kernel in (
            "cluster_similarities",
            "confidences",
            "model_dots",
            "weighted_prediction",
        )
        for role in ("runtime", "backend")
    ),
    ("runtime.weighted_model_step", "runtime", "weighted_model_step"),
    ("runtime.segment_delta", "runtime", "segment_delta"),
    ("engine.plan_predict", "plan", "predict"),
    ("engine.refresh", "plan", "refresh"),
    ("engine.compile", "model", "compile"),
    ("core.fit", "model", "fit"),
    ("core.fit_epoch", "model", "fit_epoch"),
    ("core.predict_encoded", "model", "predict_encoded"),
    ("core.partial_fit", "model", "partial_fit"),
    ("core.predict", "model", "predict"),
    ("streaming.update", "stream", "update"),
    ("streaming.predict", "stream", "predict"),
    ("reliability.guard", "guard", "check"),
    ("reliability.watchdog", "watchdog", "update"),
    ("reliability.checkpoint", "stream", "checkpoint"),
    ("reliability.scrub", "scrubber", "scrub"),
    ("reliability.scrub", "scrubber", "sync"),
    ("robust.conformal", "conformal", "observe"),
    ("distributed.map", "shard_trainer", "map"),
    ("distributed.reduce", "shard_trainer", "reduce"),
    ("distributed.apply", "model", "apply_delta"),
)


def install(tracer: SpanTracer, roles: dict) -> None:
    """Wrap every entry point whose role the workload has a live object for.

    A role mapped to ``None`` means the workload expected that layer but
    the system did not build it: that is an error, not a skip.  A role
    may map to a class (wrapped as is) or an instance (its class).
    """
    for key, role, attr in ENTRY_POINTS:
        if role not in roles:
            continue
        live = roles[role]
        if live is None:
            raise LayerError(f"layer {key}: the workload built no {role}")
        cls = live if isinstance(live, type) else type(live)
        tracer.wrap(
            cls,
            attr,
            key,
            keep_return=key == "engine.compile",
            count_rows=key == "encoding.encode_batch",
        )


def require_calls(calls: dict, expected: tuple[str, ...], where: str) -> None:
    """Fail loudly when a layer that must do work on a workload did none."""
    idle = [key for key in expected if not calls.get(key)]
    if idle:
        raise LayerError(
            f"layers never called during {where}: {', '.join(idle)}"
        )


#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("encoding.encode_batch.calls", "count", "lower"),
    ("encoding.encode_batch.rows", "rows", "lower"),
    ("encoding.encode_batch.self_ms", "ms", "lower"),
    ("runtime.encode_pack.self_ms", "ms", "lower"),
    ("runtime.cluster_similarities.self_ms", "ms", "lower"),
    ("runtime.confidences.self_ms", "ms", "lower"),
    ("runtime.model_dots.self_ms", "ms", "lower"),
    ("runtime.weighted_prediction.self_ms", "ms", "lower"),
    ("runtime.weighted_model_step.self_ms", "ms", "lower"),
    ("runtime.segment_delta.self_ms", "ms", "lower"),
    ("engine.plan_predict.self_ms", "ms", "lower"),
    ("engine.refresh.self_ms", "ms", "lower"),
    ("engine.refresh.rows_refreshed_share", "ratio", "lower"),
    ("engine.compile.ms", "ms", "lower"),
    ("engine.plan_nbytes", "bytes", "lower"),
    ("core.fit.self_ms", "ms", "lower"),
    ("core.fit_epoch.self_ms", "ms", "lower"),
    ("core.predict_encoded.self_ms", "ms", "lower"),
    ("core.partial_fit.self_ms", "ms", "lower"),
    ("core.predict.self_ms", "ms", "lower"),
    ("core.epochs", "count", "lower"),
    ("core.converged", "bool", "higher"),
    ("core.diverged", "bool", "lower"),
    ("core.train_mse_last_over_min", "ratio", "lower"),
    ("streaming.update.self_ms", "ms", "lower"),
    ("streaming.predict.self_ms", "ms", "lower"),
    ("streaming.drift_events", "count", "lower"),
    ("reliability.guard.self_ms", "ms", "lower"),
    ("reliability.watchdog.self_ms", "ms", "lower"),
    ("reliability.checkpoint.self_ms", "ms", "lower"),
    ("reliability.checkpoint.calls", "count", "lower"),
    ("reliability.scrub.self_ms", "ms", "lower"),
    ("reliability.rollbacks", "count", "lower"),
    ("robust.conformal.self_ms", "ms", "lower"),
    ("distributed.map.self_ms", "ms", "lower"),
    ("distributed.reduce.self_ms", "ms", "lower"),
    ("distributed.apply.self_ms", "ms", "lower"),
    ("distributed.delta_bytes", "bytes", "lower"),
    ("other.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("quality.rmse", "y", "lower"),
    ("quality.coverage_gap", "ratio", "lower"),
    ("quality.error_rate", "ratio", "lower"),
)
