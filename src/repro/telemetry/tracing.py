"""Nested spans, trace-context propagation and Chrome trace-event export.

``with span("stream"): ... with span("predict"): ...`` records the inner
duration under the *path* ``stream/predict`` — a per-thread stack builds
the path, so concurrently serving threads trace independently.  Each
completed span lands as one observation in the ``reghd_span_seconds``
histogram (:data:`SPAN_METRIC`), labelled with its path.

A *trace* groups everything the pipeline did for one unit of work — a
replay batch, a stream update, a distributed round — under one
deterministic trace id.  :func:`trace` opens a trace as a context
manager and installs a :class:`TraceContext` in a ``contextvars``
variable; every :func:`span` that completes while the trace is open
attaches to it with parent/child structure (the context carries a stack
of open span ids).  Spans completed while no trace is open still record,
with an empty trace id.  Completed spans land as :class:`SpanRecord`
entries in the module-level :class:`Tracer` ring, from which
:func:`to_chrome_trace` renders the standard Chrome trace-event JSON
(``chrome://tracing`` / Perfetto ``ph: "X"`` complete events).

Design rules, matching :mod:`repro.telemetry.metrics`:

* **Zero overhead when disabled.**  :func:`trace` and :func:`current`
  check the module sink (:func:`active_tracer`) first; with tracing off
  they cost one ``None`` check — no contextvar read, no allocation.
  :func:`span` checks the metrics sink the same way and, with telemetry
  off, returns a shared stateless no-op: no clock read, no stack.  The
  clock is always read through :mod:`repro.telemetry.timing` as a
  module attribute, so monkeypatching ``timing.monotonic`` pins span
  timestamps everywhere at once.
* **Deterministic ids.**  Trace and span ids are sequence numbers from
  the tracer, never wall-clock or random values, so two runs of the
  same seeded workload produce byte-identical trace structures (only
  the sanctioned monotonic timestamps differ, and tests pin those by
  monkeypatching :func:`repro.telemetry.timing.monotonic`).
* **Bit-identical predictions.**  Tracing only ever *observes*; no
  numeric path reads the trace state.

Enabling tracing implies enabling metrics (spans only fire when the
metrics sink is live) and installs the histogram *exemplar* provider:
while a trace is open, :class:`~repro.telemetry.metrics.Histogram`
records the trace id of the slowest observation per bucket, so a p99
bucket links back to a concrete trace.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from collections import deque
from contextvars import ContextVar

from repro.telemetry import metrics
from repro.telemetry import timing

__all__ = [
    "SPAN_METRIC",
    "Span",
    "SpanRecord",
    "TRACE_ENV_VAR",
    "TraceContext",
    "Tracer",
    "active_tracer",
    "add_span_sink",
    "current",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "remove_span_sink",
    "span",
    "to_chrome_trace",
    "trace",
    "tracing_enabled",
    "write_chrome_trace",
]

#: environment variable that switches tracing (and telemetry) on at import.
TRACE_ENV_VAR = "REPRO_TRACE"

#: histogram receiving every completed span duration.
SPAN_METRIC = "reghd_span_seconds"

_TRUTHY = frozenset({"1", "true", "on", "yes"})


class SpanRecord:
    """One completed span, immutable once recorded.

    ``trace_id`` is empty for spans completed outside any open trace
    (orphans are still useful in the flight recorder).  ``thread`` is
    the raw ``threading.get_ident()`` — exporters map it to stable
    small integers so dumps stay machine-independent.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "path",
        "start",
        "end",
        "thread",
        "attrs",
    )

    def __init__(
        self,
        *,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        path: str,
        start: float,
        end: float,
        thread: int,
        attrs: dict | None = None,
    ):
        self.trace_id = trace_id
        self.span_id = int(span_id)
        self.parent_id = parent_id if parent_id is None else int(parent_id)
        self.name = str(name)
        self.path = str(path)
        self.start = float(start)
        self.end = float(end)
        self.thread = int(thread)
        self.attrs = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        """Span wall time in (monotonic) seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (thread id deliberately omitted —
        exporters assign stable per-dump thread numbers instead)."""
        d = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


class TraceContext:
    """The ambient state of one open trace.

    Holds the deterministic trace id, the root span id, and a stack of
    open span ids used to parent nested spans.  The stack is only ever
    touched from the thread that opened the trace — worker threads that
    need to attach leaf records use :meth:`Tracer.record_stage` with an
    explicitly-passed context instead.
    """

    __slots__ = ("trace_id", "name", "attrs", "root_id", "_stack")

    def __init__(self, trace_id: str, name: str, attrs: dict, root_id: int):
        self.trace_id = trace_id
        self.name = name
        self.attrs = attrs
        self.root_id = root_id
        self._stack: list[int] = [root_id]

    def enter_span(self, span_id: int) -> int:
        """Push an opening span; returns its parent's span id."""
        parent = self._stack[-1]
        self._stack.append(span_id)
        return parent

    def exit_span(self, span_id: int) -> None:
        """Pop a closing span (tolerates mismatched exits)."""
        if len(self._stack) > 1 and self._stack[-1] == span_id:
            self._stack.pop()


_current_ctx: ContextVar[TraceContext | None] = ContextVar(
    "reghd_trace_context", default=None
)


class Tracer:
    """Bounded ring of completed span records with deterministic ids.

    ``capacity`` bounds memory for long runs; the newest records win.
    Record appends are a single ``deque.append`` (thread-safe under the
    GIL), so worker threads can record stage spans without locking.
    """

    def __init__(self, *, capacity: int = 8192):
        self._lock = threading.Lock()
        self._records: deque[SpanRecord] = deque(maxlen=int(capacity))
        self._trace_seq = 0
        self._span_seq = 0
        # (registry, counter) pair so the per-span counter bump skips
        # the registry's locked series lookup on the hot path.
        self._span_counter: tuple = (None, None)

    def next_trace_id(self) -> str:
        """The next deterministic trace id (``t`` + sequence number)."""
        with self._lock:
            self._trace_seq += 1
            return f"t{self._trace_seq:08d}"

    def next_span_id(self) -> int:
        """The next deterministic span id."""
        with self._lock:
            self._span_seq += 1
            return self._span_seq

    def record(self, record: SpanRecord) -> None:
        """Append one completed span and fan it out to the sinks."""
        self._records.append(record)
        registry = metrics.active()
        if registry is not None:
            cached_registry, counter = self._span_counter
            if cached_registry is not registry:
                counter = registry.counter("reghd_trace_spans_total")
                self._span_counter = (registry, counter)
            counter.inc()
        for sink in _span_sinks:
            sink(record)

    def record_stage(
        self,
        ctx: TraceContext,
        name: str,
        start: float,
        end: float,
        **attrs: object,
    ) -> None:
        """Record a leaf span under ``ctx``'s root from any thread.

        The worker-thread entry point: contextvars do not propagate into
        pool threads, so the executor captures the context once and
        passes it here — no stack mutation, just an appended record.
        """
        self.record(
            SpanRecord(
                trace_id=ctx.trace_id,
                span_id=self.next_span_id(),
                parent_id=ctx.root_id,
                name=name,
                path=name,
                start=start,
                end=end,
                thread=threading.get_ident(),
                attrs=attrs or None,
            )
        )

    @property
    def records(self) -> list[SpanRecord]:
        """The retained span records, oldest first (snapshot copy)."""
        return list(self._records)

    @property
    def n_traces(self) -> int:
        """Number of traces opened on this tracer."""
        return self._trace_seq

    @property
    def n_spans(self) -> int:
        """Number of span ids claimed on this tracer."""
        return self._span_seq


class _NullTrace:
    """Shared no-op context manager for the disabled path.

    Mirrors the :class:`TraceContext` surface call sites read
    (``trace_id`` / ``root_id``) so ``with trace(...) as t`` code never
    branches on the enabled state.
    """

    __slots__ = ()

    trace_id = None
    root_id = None

    def __enter__(self) -> "_NullTrace":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TRACE = _NullTrace()


class _JoinedTrace:
    """A trace opened while another is already open on this context.

    One unit of work gets ONE trace id, however many layers wrap it:
    when the replay engine has already opened a batch trace, the
    streaming layer's ``trace("stream/batch")`` joins it as a child
    span instead of minting a new id.  Yields the *outer* context, so
    ``trace_id`` reads stay truthful.
    """

    __slots__ = ("_span", "_ctx")

    def __init__(self, span_cm, ctx: TraceContext):
        self._span = span_cm
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        self._span.__enter__()
        return self._ctx

    def __exit__(self, *exc: object) -> bool:
        return self._span.__exit__(*exc)


class _Trace:
    """One opening trace: installs the context, records the root span."""

    __slots__ = ("_tracer", "name", "attrs", "_ctx", "_token", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self.name = str(name)
        self.attrs = attrs

    def __enter__(self) -> TraceContext:
        tracer = self._tracer
        ctx = TraceContext(
            tracer.next_trace_id(),
            self.name,
            self.attrs,
            tracer.next_span_id(),
        )
        self._ctx = ctx
        self._token = _current_ctx.set(ctx)
        registry = metrics.active()
        if registry is not None:
            registry.counter("reghd_trace_traces_total").inc()
        self._start = timing.monotonic()
        return ctx

    def __exit__(self, *exc: object) -> bool:
        end = timing.monotonic()
        ctx = self._ctx
        _current_ctx.reset(self._token)
        self._tracer.record(
            SpanRecord(
                trace_id=ctx.trace_id,
                span_id=ctx.root_id,
                parent_id=None,
                name=self.name,
                path=self.name,
                start=self._start,
                end=end,
                thread=threading.get_ident(),
                attrs=self.attrs or None,
            )
        )
        return False


# -- the module-level sink ---------------------------------------------------

_tracer: Tracer | None = None
_span_sinks: tuple = ()


def tracing_enabled() -> bool:
    """Whether a tracer is currently collecting."""
    return _tracer is not None


def active_tracer() -> Tracer | None:
    """The collecting tracer, or None when tracing is off.

    :class:`Span` reads the same module global once per span and skips
    all trace work while it is None.
    """
    return _tracer


def _current_trace_id() -> str | None:
    """Exemplar provider installed into the metrics layer while on."""
    ctx = _current_ctx.get()
    return None if ctx is None else ctx.trace_id


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Switch tracing on; returns the collecting tracer.

    Also enables the metrics sink (spans only fire when metrics are on)
    and installs the histogram exemplar provider.  Idempotent like
    :func:`repro.telemetry.metrics.enable`.
    """
    global _tracer
    if tracer is not None:
        _tracer = tracer
    elif _tracer is None:
        _tracer = Tracer()
    metrics.enable()
    metrics.set_exemplar_provider(_current_trace_id)
    return _tracer


def disable_tracing() -> None:
    """Switch tracing off (drops the tracer and the exemplar provider).

    Leaves the metrics sink as-is: callers that enabled metrics
    independently keep collecting.
    """
    global _tracer
    _tracer = None
    metrics.set_exemplar_provider(None)


def add_span_sink(sink) -> None:
    """Register a callable receiving every completed :class:`SpanRecord`
    (the flight recorder's feed)."""
    global _span_sinks
    if sink not in _span_sinks:
        _span_sinks = _span_sinks + (sink,)


def remove_span_sink(sink) -> None:
    """Unregister a sink previously added with :func:`add_span_sink`."""
    global _span_sinks
    # Equality, not identity: bound methods are fresh objects on every
    # attribute access, so ``is`` would never match a prior add.
    _span_sinks = tuple(s for s in _span_sinks if s != sink)


def trace(name: str, **attrs: object) -> "_Trace | _NullTrace":
    """Open a trace around one unit of work.

    Returns the shared null trace when tracing is disabled, so the
    ``with`` costs one module-global check and nothing else.  The
    yielded :class:`TraceContext` exposes the deterministic
    ``trace_id``.  Opening a trace while one is already open *joins*
    it as a child span (attrs are dropped) — a batch wrapped by both
    the replay engine and the streaming layer keeps a single id.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_TRACE
    ctx = _current_ctx.get()
    if ctx is not None:
        return _JoinedTrace(span(name), ctx)
    return _Trace(tracer, name, attrs)


def current() -> TraceContext | None:
    """The open trace context, or None (also None when tracing is off)."""
    if _tracer is None:
        return None
    return _current_ctx.get()


def current_trace_id() -> str | None:
    """The open trace's id, or None."""
    ctx = current()
    return None if ctx is None else ctx.trace_id


# -- spans -------------------------------------------------------------------

_path_stack = threading.local()


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One active span: pushes its name on the thread's path stack.

    The duration is observed into ``reghd_span_seconds{span=<path>}`` on
    exit, including when the body raises (the exception still
    propagates).  Under an armed tracer the span also claims a
    deterministic span id, parents itself into the open trace context,
    and emits a :class:`SpanRecord` on exit.
    """

    __slots__ = (
        "name", "path", "_registry", "_start", "_trace", "_span_id",
        "_parent_id",
    )

    def __init__(self, name: str, registry: metrics.MetricsRegistry):
        self.name = str(name)
        self.path = self.name
        self._registry = registry
        self._start = 0.0
        self._trace = None

    def __enter__(self) -> "Span":
        names = getattr(_path_stack, "names", None)
        if names is None:
            names = []
            _path_stack.names = names
        names.append(self.name)
        self.path = "/".join(names)
        tracer = _tracer
        if tracer is not None:
            ctx = _current_ctx.get()
            self._trace = (tracer, ctx)
            self._span_id = tracer.next_span_id()
            self._parent_id = (
                ctx.enter_span(self._span_id) if ctx is not None else None
            )
        self._start = timing.monotonic()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = timing.monotonic()
        names = _path_stack.names
        if names and names[-1] == self.name:
            names.pop()
        self._registry.histogram(SPAN_METRIC, span=self.path).observe(
            end - self._start
        )
        if self._trace is not None:
            tracer, ctx = self._trace
            if ctx is not None:
                ctx.exit_span(self._span_id)
            tracer.record(
                SpanRecord(
                    trace_id="" if ctx is None else ctx.trace_id,
                    span_id=self._span_id,
                    parent_id=self._parent_id,
                    name=self.name,
                    path=self.path,
                    start=self._start,
                    end=end,
                    thread=threading.get_ident(),
                )
            )
        return False


def span(name: str) -> "Span | _NullSpan":
    """A timing context manager for one named span.

    Returns the shared null span when telemetry is disabled, so the
    ``with`` costs one attribute check and nothing else.
    """
    registry = metrics.active()
    if registry is None:
        return _NULL_SPAN
    return Span(name, registry)


# -- Chrome trace-event export -----------------------------------------------


def to_chrome_trace(tracer: Tracer, *, meta: dict | None = None) -> dict:
    """Render the tracer's records as Chrome trace-event JSON.

    Every span becomes a ``ph: "X"`` complete event with microsecond
    ``ts``/``dur`` relative to the earliest recorded span, so the file
    loads directly into ``chrome://tracing`` or Perfetto.  Thread
    idents map to stable small integers in first-seen order, keeping
    the export machine-independent.
    """
    records = tracer.records
    base = min((r.start for r in records), default=0.0)
    tids: dict[int, int] = {}
    events = []
    for rec in records:
        args: dict = {
            "trace_id": rec.trace_id,
            "span_id": rec.span_id,
            "parent_id": rec.parent_id,
            "path": rec.path,
        }
        args.update(rec.attrs)
        events.append(
            {
                "name": rec.name,
                "cat": "reghd",
                "ph": "X",
                "ts": round((rec.start - base) * 1e6, 3),
                "dur": round(rec.duration * 1e6, 3),
                "pid": 0,
                "tid": tids.setdefault(rec.thread, len(tids)),
                "args": args,
            }
        )
    other = {"clock": "monotonic", "n_traces": tracer.n_traces}
    if meta:
        other.update(meta)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer,
    path: str | pathlib.Path,
    *,
    meta: dict | None = None,
) -> pathlib.Path:
    """Write :func:`to_chrome_trace` output to ``path`` as JSON."""
    path = pathlib.Path(path)
    payload = json.dumps(
        to_chrome_trace(tracer, meta=meta), indent=2, sort_keys=True
    )
    path.write_text(payload + "\n")
    return path


if os.environ.get(TRACE_ENV_VAR, "").strip().lower() in _TRUTHY:
    enable_tracing()
