"""Compile a fitted RegHD model into a frozen execution plan.

:func:`compile_model` snapshots everything prediction needs — the encoder
projection, the target scaling, and the *effective* cluster/model
hypervectors under the configured Section-3 quantisation — into a
:class:`CompiledPlan`.  The operands are frozen
:class:`~repro.runtime.FrozenClusterOperand` /
:class:`~repro.runtime.FrozenModelOperand` snapshots built for a
:class:`~repro.runtime.KernelBackend`: under the packed backend the
binary operands are bit-packed into ``uint64`` words at compile time, so
at serve time the quantised similarity search and the fully-binary model
dot products run as XOR + popcount instead of float matrix products
(paper Sec. 3: D-*bit* logic in place of D-element arithmetic).

The plan is a value, not a view: further training of the source model
does not change a compiled plan, and a plan never mutates the model.
That makes plans safe to hand to serving threads while the online
learner keeps updating.  When the learner wants the plan to catch up it
calls :meth:`CompiledPlan.refresh` explicitly — an *incremental* update
that re-packs only the operand rows whose sign pattern actually moved
(see :meth:`repro.streaming.StreamingRegHD.update`), instead of
recompiling the whole plan after every absorbed batch.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.encoding.base import Encoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import (
    ConfigurationError,
    EncodingError,
    NotFittedError,
)
from repro.runtime import (
    EncoderOperands,
    FrozenClusterOperand,
    FrozenModelOperand,
    KernelBackend,
    freeze_cluster_operand,
    freeze_model_operand,
    refresh_cluster_operand,
    refresh_model_operand,
    resolve_backend,
)
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray
from repro.utils.rng import derive_generator
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class EncoderSpec:
    """Seed provenance of a :class:`NonlinearEncoder`, in place of its arrays.

    A rematerialised plan (``compile_model(..., rematerialize=True)``)
    stores this spec instead of the frozen ``(in_features, dim)``
    projection matrix; :meth:`materialize` re-draws bit-identical bases
    and phases from the seeded RNG at execution time — trading a cheap
    regeneration per predict call for most of the plan's memory (the
    Schmuck et al. rematerialisation trade, PAPERS.md).
    """

    in_features: int
    dim: int
    seed: int
    base: str
    scale: float | None

    def materialize(self) -> NonlinearEncoder:
        """Re-draw the encoder exactly as the model constructor did."""
        return NonlinearEncoder(
            self.in_features,
            self.dim,
            derive_generator(self.seed, 0),
            base=self.base,
            scale=self.scale,
        )


class RefreshStats(dict):
    """Snapshot/refresh counters of a plan, with dict compatibility.

    Keys: ``compiles`` (full compilations — always 1 for a live plan),
    ``rows_snapshotted`` (operand rows copied at compile time),
    ``refreshes`` (incremental :meth:`CompiledPlan.refresh` calls),
    ``rows_refreshed`` / ``rows_reused`` (per-row refresh split).  A full
    ``compile()`` and an incremental ``refresh()`` are therefore
    distinguishable: compiles touch ``compiles``/``rows_snapshotted``
    only, refreshes touch the other three.

    :meth:`reset` zeroes the *incremental* counters on the owning plan
    (``refreshes``, ``rows_refreshed``, ``rows_reused``), so a caller can
    measure one window of streaming refreshes; the compile-time
    provenance keys are preserved.  The instance itself is a value copy —
    mutating it does not touch the plan.
    """

    def __init__(self, data: dict, owner: "CompiledPlan"):
        super().__init__(data)
        self._owner = owner

    def reset(self) -> None:
        """Zero the owning plan's incremental refresh counters."""
        stats = self._owner._refresh["stats"]
        for key in ("refreshes", "rows_refreshed", "rows_reused"):
            stats[key] = 0
            self[key] = 0


def _encoder_arrays(encoder: Encoder) -> list[np.ndarray]:
    """The array attributes of an encoder (its projection state)."""
    return [v for v in vars(encoder).values() if isinstance(v, np.ndarray)]


def _snapshot_encoder(encoder: Encoder) -> Encoder:
    """A private deep copy of ``encoder`` with read-only arrays.

    The plan encodes through the estimator's own ``encode_batch``, but on
    this copy: it shares no array with the model and cannot write one.
    """
    snapshot = copy.deepcopy(encoder)
    for arr in _encoder_arrays(snapshot):
        arr.flags.writeable = False
    return snapshot


@dataclass(frozen=True, repr=False, eq=False)
class CompiledPlan:
    """An executable snapshot of a fitted RegHD model.

    Instances are produced by :func:`compile_model` (or the convenience
    :meth:`MultiModelRegHD.compile <repro.core.multi.MultiModelRegHD.compile>`)
    and execute prediction through the tiled engine via :meth:`predict`.
    All operand arrays are read-only; the plan never mutates the model it
    was compiled from, and training the model does not change the plan.
    The only sanctioned mutation is :meth:`refresh`, which incrementally
    re-snapshots the operands from the source model.

    The operands live in ``cluster_op`` / ``model_op``
    (:class:`~repro.runtime.FrozenClusterOperand` /
    :class:`~repro.runtime.FrozenModelOperand`); which representation
    each carries depends on the quantisation scheme and the compiled
    backend — full-precision matrices, a float sign matrix, or bit-packed
    ``uint64`` words.
    """

    in_features: int
    dim: int
    n_models: int
    softmax_temp: float
    cluster_quant: ClusterQuant
    predict_quant: PredictQuant
    y_mean: float
    y_scale: float
    packed_sims: bool
    packed_dots: bool
    tile_rows: int
    n_workers: int
    #: the kernel backend the executor dispatches through
    backend: KernelBackend
    #: frozen cluster-search operands (Eq. 5 or its Hamming replacement)
    cluster_op: FrozenClusterOperand
    #: frozen model dot-product operands (Eq. 6 under the Sec.-3.2 scheme)
    model_op: FrozenModelOperand
    #: read-only snapshot of the model's encoder (None when rematerialised)
    encoder: Encoder | None = field(default=None)
    #: seed provenance replacing the stored encoder (rematerialize=True)
    enc_spec: "EncoderSpec | None" = field(default=None)
    #: whether serving runs the fused encode→pack pipeline
    fused_encode: bool = field(default=False)
    #: fused projection operands of the stored encoder, ``sin(φ)`` included
    _fused_ops: EncoderOperands | None = field(init=False, default=None)
    #: refresh machinery: source-model weakref, operand trackers, stats
    _refresh: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.fused_encode and self.encoder is not None:
            ops = EncoderOperands.of(self.encoder)
            ops.sin_phases.flags.writeable = False
            object.__setattr__(self, "_fused_ops", ops)

    @property
    def backend_name(self) -> str:
        """Registry name of the compiled kernel backend."""
        return self.backend.name

    @property
    def packed(self) -> bool:
        """Whether any stage of this plan runs on packed words."""
        return self.packed_sims or self.packed_dots

    @property
    def rematerialized(self) -> bool:
        """Whether the encoder operands regenerate from the seeded RNG."""
        return self.enc_spec is not None

    @property
    def nbytes(self) -> int:
        """Total bytes held by the plan's operand arrays.

        A rematerialised plan stores no projection matrix, so its count
        drops to the cluster/model operands plus scalars — the memory
        the ``rematerialize=True`` trade actually saves.
        """
        arrays = self.cluster_op.arrays + self.model_op.arrays
        if self.encoder is not None:
            arrays += tuple(_encoder_arrays(self.encoder))
        if self._fused_ops is not None:
            arrays += (self._fused_ops.sin_phases,)
        return sum(arr.nbytes for arr in arrays)

    def call_encoder(self) -> "Encoder | EncoderOperands":
        """What every tile of one predict call encodes with.

        Unfused plans get the encoder snapshot (its own ``encode_batch``);
        fused plans get the projection operands of the fused kernel.
        Rematerialised plans re-draw the encoder from :class:`EncoderSpec`
        here — once per :func:`execute_plan` call, shared by every tile,
        dropped afterwards.
        """
        if self.enc_spec is None:
            return self._fused_ops if self.fused_encode else self.encoder
        encoder = self.enc_spec.materialize()
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_plan_rematerializations_total").inc()
        return EncoderOperands.of(encoder) if self.fused_encode else encoder

    # -- incremental refresh ------------------------------------------------

    def refresh(
        self, model: MultiModelRegHD, delta=None
    ) -> tuple[int, int]:
        """Re-snapshot the operands from the (further-trained) source model.

        Only rows whose sign pattern moved since the last snapshot are
        re-packed / re-copied (tracked through
        :attr:`repro.runtime.DualCopy.sign_versions`); full-precision
        operands refresh wholesale but only when the model actually
        changed.  Returns ``(rows_refreshed, rows_reused)`` for this call.

        ``delta`` may carry the :class:`~repro.core.delta.ModelDelta`
        that was just applied to the model (a merged shard fold, say):
        its :meth:`~repro.core.delta.ModelDelta.touched_rows` masks then
        narrow the *full-precision* operand refreshes to the rows the
        delta actually moved, instead of re-copying every row on any
        version bump.  Sign-derived operands already diff per-row and
        ignore the hint.  Passing a delta that does not describe the
        model's latest changes serves stale rows — callers hand in only
        the delta they just applied.

        ``model`` must be the instance this plan was compiled from —
        refreshing from an unrelated model would silently mix two models'
        state, so it raises :class:`ConfigurationError` instead.
        """
        source = self._refresh.get("source")
        if source is None or source() is not model:
            raise ConfigurationError(
                "CompiledPlan.refresh requires the model the plan was "
                "compiled from"
            )
        object.__setattr__(self, "y_mean", float(model.scaler.mean))
        object.__setattr__(self, "y_scale", float(model.scaler.scale))
        cluster_rows = model_rows = None
        if delta is not None:
            if "clusters_integer" in delta.arrays:
                cluster_rows = delta.touched_rows("clusters_integer")
            if "models_integer" in delta.arrays:
                model_rows = delta.touched_rows("models_integer")
        c_new, c_old = refresh_cluster_operand(
            self.cluster_op,
            model.clusters,
            self._refresh["clusters"],
            rows=cluster_rows,
        )
        m_new, m_old = refresh_model_operand(
            self.model_op,
            model.models,
            self._refresh["models"],
            rows=model_rows,
        )
        stats = self._refresh["stats"]
        stats["refreshes"] += 1
        stats["rows_refreshed"] += c_new + m_new
        stats["rows_reused"] += c_old + m_old
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_plan_refreshes_total").inc()
            if c_new + m_new:
                registry.counter(
                    "reghd_plan_rows_total", event="refreshed"
                ).inc(c_new + m_new)
            if c_old + m_old:
                registry.counter(
                    "reghd_plan_rows_total", event="reused"
                ).inc(c_old + m_old)
        return c_new + m_new, c_old + m_old

    @property
    def refresh_stats(self) -> RefreshStats:
        """Cumulative compile/refresh counters (a value copy).

        Behaves as a plain dict (``stats["rows_refreshed"]`` etc.) and
        additionally offers :meth:`RefreshStats.reset` to zero the
        incremental refresh counters on this plan.  Exported registries
        mirror these as the ``reghd_plan_*`` counters.
        """
        return RefreshStats(self._refresh["stats"], self)

    def predict(
        self,
        X: ArrayLike,
        *,
        tile_rows: int | None = None,
        n_workers: int | None = None,
    ) -> FloatArray:
        """Predict targets (original units) for raw feature rows.

        Equivalent to :meth:`MultiModelRegHD.predict
        <repro.core.multi.MultiModelRegHD.predict>` on the model state at
        compile time (bit-exact packed similarity scores; predictions
        match to float rounding).  ``tile_rows``/``n_workers`` override
        the compile-time execution knobs for this call only.
        """
        from repro.engine.executor import execute_plan

        X_arr = check_2d("X", X)
        if X_arr.shape[1] != self.in_features:
            raise EncodingError(
                f"expected {self.in_features} features, got {X_arr.shape[1]}"
            )
        return execute_plan(
            self,
            X_arr,
            tile_rows=self.tile_rows if tile_rows is None else int(tile_rows),
            n_workers=self.n_workers if n_workers is None else int(n_workers),
        )

    def __repr__(self) -> str:
        stages = []
        stages.append("packed-sims" if self.packed_sims else "float-sims")
        stages.append("packed-dots" if self.packed_dots else "float-dots")
        return (
            f"CompiledPlan(in_features={self.in_features}, dim={self.dim}, "
            f"k={self.n_models}, cluster_quant={self.cluster_quant.value}, "
            f"predict_quant={self.predict_quant.value}, "
            f"backend={'+'.join(stages)}, tile_rows={self.tile_rows}, "
            f"n_workers={self.n_workers})"
        )


def auto_tile_rows(
    dim: int, budget_bytes: int = 24 << 20, *, fused: bool = False
) -> int:
    """Tile height whose working set fits the budget.

    An unfused tile holds at most three float64 ``(rows, dim)`` slabs at
    once — while encoding and normalising, and again when a binary query
    holds ``S``, its signs and the binarised copy: tracemalloc peaks of
    24.0–24.2 bytes per element over every quant combo on both backends
    (512×4096 tiles), budgeted as 25.
    Fused tiles only hold block-wide slabs plus the packed words, so the
    same budget buys far taller tiles — fewer per-tile dispatches for the
    same peak memory.
    """
    if fused:
        from repro.runtime import fused_block_cols

        per_row = 17 * fused_block_cols(dim) + max(8, dim // 8)
    else:
        per_row = 25 * max(1, dim)
    rows = budget_bytes // per_row
    return int(min(4096, max(64, rows)))


def _resolve_compile_backend(
    model: MultiModelRegHD, backend: "KernelBackend | str | None"
) -> KernelBackend:
    """Pick the serving backend: backend > config > env > auto.

    The auto default puts packed operands exactly where a stage benefits
    (quantised cluster search or fully-binary dots), dense otherwise.
    """
    cfg = model.config
    beneficial = (
        cfg.cluster_quant is not ClusterQuant.NONE
        or cfg.predict_quant is PredictQuant.BINARY_BOTH
    )
    return resolve_backend(
        backend if backend is not None else cfg.backend,
        default="packed" if beneficial else "dense",
    )


def compile_model(
    model: MultiModelRegHD,
    *,
    backend: "KernelBackend | str | None" = None,
    tile_rows: int | None = None,
    n_workers: int = 1,
    rematerialize: bool = False,
) -> CompiledPlan:
    """Compile a fitted :class:`MultiModelRegHD` into a :class:`CompiledPlan`.

    Parameters
    ----------
    model:
        A fitted multi-model RegHD instance.  The plan copies every
        operand it needs; the model can keep training afterwards without
        affecting the plan (until an explicit :meth:`CompiledPlan.refresh`).
    backend:
        Execution-runtime backend for the serving kernels (a registry
        name or instance).  ``None`` defers to ``model.config.backend``,
        then the ``REPRO_BACKEND`` environment variable, then the
        automatic choice: packed exactly where a stage benefits from it.
    tile_rows:
        Rows per execution tile.  ``None`` sizes tiles so one worker's
        working set stays near 24 MiB (:func:`auto_tile_rows`).
    n_workers:
        Default thread count for :meth:`CompiledPlan.predict`.  ``1``
        runs the single-threaded fallback loop.
    rematerialize:
        Store the encoder's *seed provenance* instead of its snapshot:
        :meth:`CompiledPlan.call_encoder` then re-draws
        bit-identical bases/phases from the seeded RNG per predict call,
        shrinking the resident plan by the ``(in_features, D)`` + two
        ``(D,)`` arrays.  Requires a :class:`NonlinearEncoder` built from
        a configured integer seed; the regenerated arrays are verified
        against the live encoder at compile time.

    Raises
    ------
    NotFittedError
        If the model has not been fitted.
    ConfigurationError
        If ``model`` is not a :class:`MultiModelRegHD` or the knobs are
        out of range.
    """
    if not isinstance(model, MultiModelRegHD):
        raise ConfigurationError(
            f"compile_model supports MultiModelRegHD, got "
            f"{type(model).__name__}"
        )
    if not model.fitted:
        raise NotFittedError("compile_model called before fit")
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    cfg = model.config

    runtime = _resolve_compile_backend(model, backend)
    packed_sims = runtime.packs_similarities(cfg.cluster_quant)
    packed_dots = runtime.packs_dots(cfg.predict_quant)

    # Fuse encode→pack exactly when every heavy stage runs packed and
    # the encoder is the Eq.-1 one the fused kernel implements.
    fused_encode = (
        type(model.encoder) is NonlinearEncoder and packed_sims and packed_dots
    )
    encoder: Encoder | None = None
    enc_spec: EncoderSpec | None = None
    if rematerialize:
        if type(model.encoder) is not NonlinearEncoder:
            raise ConfigurationError(
                "rematerialize=True requires a NonlinearEncoder, got "
                f"{type(model.encoder).__name__}"
            )
        if cfg.seed is None:
            raise ConfigurationError(
                "rematerialize=True requires a configured integer seed; "
                "an unseeded encoder cannot be re-drawn"
            )
        enc_spec = EncoderSpec(
            in_features=model.in_features,
            dim=cfg.dim,
            seed=int(cfg.seed),
            base=cfg.encoder_base,
            scale=cfg.encoder_scale,
        )
        regenerated = enc_spec.materialize()
        if not (
            np.array_equal(regenerated.bases, model.encoder.bases)
            and np.array_equal(regenerated.phases, model.encoder.phases)
            and float(regenerated.scale) == float(model.encoder.scale)
        ):
            raise ConfigurationError(
                "rematerialize=True: regenerating the encoder from "
                "the configured seed did not reproduce the live "
                "projection (the encoder was not built by this "
                "model's constructor)"
            )
    else:
        encoder = _snapshot_encoder(model.encoder)

    if tile_rows is None:
        tile_rows = auto_tile_rows(cfg.dim, fused=fused_encode)
    elif tile_rows < 1:
        raise ConfigurationError(f"tile_rows must be >= 1, got {tile_rows}")

    cluster_op, cluster_tracker = freeze_cluster_operand(
        model.clusters, cfg.cluster_quant, packed=packed_sims
    )
    model_op, model_tracker = freeze_model_operand(
        model.models, cfg.predict_quant, packed=packed_dots
    )

    plan = CompiledPlan(
        in_features=model.in_features,
        dim=cfg.dim,
        n_models=cfg.n_models,
        softmax_temp=float(cfg.softmax_temp),
        cluster_quant=cfg.cluster_quant,
        predict_quant=cfg.predict_quant,
        y_mean=float(model.scaler.mean),
        y_scale=float(model.scaler.scale),
        packed_sims=packed_sims,
        packed_dots=packed_dots,
        tile_rows=int(tile_rows),
        n_workers=int(n_workers),
        backend=runtime,
        cluster_op=cluster_op,
        model_op=model_op,
        encoder=encoder,
        enc_spec=enc_spec,
        fused_encode=fused_encode,
    )
    rows_snapshotted = 2 * cfg.n_models  # one cluster + one model row each
    plan._refresh.update(
        source=weakref.ref(model),
        clusters=cluster_tracker,
        models=model_tracker,
        stats={
            "compiles": 1,
            "rows_snapshotted": rows_snapshotted,
            "refreshes": 0,
            "rows_refreshed": 0,
            "rows_reused": 0,
        },
    )
    registry = _metrics.active()
    if registry is not None:
        registry.counter("reghd_plan_compiles_total").inc()
        registry.counter(
            "reghd_plan_rows_total", event="snapshotted"
        ).inc(rows_snapshotted)
    return plan
