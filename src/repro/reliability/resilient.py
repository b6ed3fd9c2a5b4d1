"""Fault-tolerant streaming RegHD: guards + checkpoints + watchdog + scrub.

:class:`ResilientStreamingRegHD` wraps the drift-aware streaming learner
with the full reliability stack, in this per-batch order:

1. **scrub** (scheduled) — repair memory faults accumulated since the
   last batch, *before* they poison a prediction;
2. **guard** — sanitise the incoming ``(X, y)`` under the configured
   policy; a fully-dropped batch is reported and skipped;
3. **learn** — the usual predict-then-train step of
   :class:`StreamingRegHD`, including forgetting and drift handling;
4. **watchdog** — compare prequential error against the health envelope;
   on ``FAILED``, roll the model back to the newest valid checkpoint;
5. **checkpoint** (scheduled) — atomically persist model + stream state.

Recovery after a crash is :meth:`ResilientStreamingRegHD.recover`: it
finds the newest checkpoint that passes its CRC (skipping corrupt files),
restores the model bit-exactly and resumes the stream at the
checkpointed batch counter with the drift detector mid-state intact — so
replaying the post-checkpoint batches reproduces the uninterrupted run
exactly.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from repro.core.config import RegHDConfig
from repro.exceptions import ConfigurationError, RecoveryError
from repro.reliability.checkpoint import CheckpointInfo, CheckpointManager
from repro.reliability.guards import GuardPolicy, GuardReport, InputGuard
from repro.reliability.scrub import ModelScrubber, ScrubReport
from repro.reliability.watchdog import HealthState, Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.streaming import PageHinkley, StreamBatchReport, StreamingRegHD
from repro.telemetry import flight as _flight
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing
from repro.telemetry.tracing import span
from repro.types import ArrayLike, FloatArray


@dataclass
class ResilientBatchReport(StreamBatchReport):
    """Per-batch report extended with reliability outcomes.

    On a rolled-back batch, ``restored_checkpoint`` names the checkpoint
    the model was restored from (the on-disk file stem) and
    ``trigger_error`` records the prequential RMSE that breached the
    watchdog's fail envelope.
    """

    health: HealthState | None = None
    guard: GuardReport | None = None
    scrub: ScrubReport | None = None
    rolled_back: bool = False
    checkpointed: bool = False
    skipped: bool = False  # guard dropped every row; nothing was learned
    restored_checkpoint: str | None = None
    trigger_error: float | None = None


@dataclass
class RollbackEvent:
    """One watchdog-triggered restoration from a checkpoint.

    ``checkpoint_id`` is the restored checkpoint's file stem
    (``ckpt-<batch>-<crc>``) and ``trigger_error`` the prequential RMSE
    that fired the watchdog — together they answer "which state did we
    return to, and how bad had it gotten" without consulting the disk.
    """

    at_batch: int
    restored_batch: int
    checkpoint: pathlib.Path
    checkpoint_id: str = ""
    trigger_error: float = float("nan")


class ResilientStreamingRegHD(StreamingRegHD):
    """Streaming RegHD with an active fault-tolerance layer.

    Parameters (on top of :class:`StreamingRegHD`)
    ----------
    guard:
        An :class:`InputGuard`, a :class:`GuardPolicy`/string to build one
        from, or None to admit batches unchecked.
    checkpoint_dir / checkpoint_every / keep_checkpoints:
        Enable rotating CRC-checked checkpoints every N batches
        (``checkpoint_every=0`` checkpoints only on explicit
        :meth:`checkpoint` calls).
    watchdog:
        A :class:`Watchdog`; on ``FAILED`` the model is rolled back to the
        newest valid checkpoint (when a checkpoint directory is set).
    scrub_every / scrub_replicas:
        Run a :class:`ModelScrubber` pass every N batches (0 disables).
    """

    def __init__(
        self,
        in_features: int,
        config: RegHDConfig | None = None,
        *,
        guard: InputGuard | GuardPolicy | str | None = None,
        checkpoint_dir: str | pathlib.Path | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 3,
        watchdog: Watchdog | None = None,
        scrub_every: int = 0,
        scrub_replicas: int = 3,
        **streaming_kwargs: object,
    ):
        super().__init__(in_features, config, **streaming_kwargs)
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if scrub_every < 0:
            raise ConfigurationError(
                f"scrub_every must be >= 0, got {scrub_every}"
            )
        if isinstance(guard, (GuardPolicy, str)):
            guard = InputGuard(in_features, policy=guard)
        self.guard = guard
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.watchdog = watchdog
        self.scrub_every = int(scrub_every)
        self.scrubber = (
            ModelScrubber(self.model, replicas=scrub_replicas)
            if scrub_every > 0
            else None
        )
        self.rollbacks: list[RollbackEvent] = []

    # -- the per-batch pipeline --------------------------------------------

    def update(self, X: ArrayLike, y: ArrayLike) -> ResilientBatchReport:
        """Absorb one batch through the full reliability pipeline.

        Under an armed tracer the whole pipeline shares one trace (or
        joins the replay engine's, when it opened one); an uncaught
        exception dumps a flight-recorder post-mortem before
        propagating, stamped with the failing batch's trace id.
        """
        with _tracing.trace("batch", batch=self._batch_counter + 1):
            try:
                return self._update_pipeline(X, y)
            except Exception as exc:
                _flight.auto_dump(
                    "exception",
                    at_batch=self._batch_counter,
                    error=repr(exc),
                )
                raise

    def _update_pipeline(
        self, X: ArrayLike, y: ArrayLike
    ) -> ResilientBatchReport:
        scrub_report = None
        if (
            self.scrubber is not None
            and self._batch_counter > 0
            and self._batch_counter % self.scrub_every == 0
        ):
            scrub_report = self.scrubber.scrub()

        guard_report = None
        if self.guard is not None:
            with span("guard"):
                X, y, guard_report = self.guard.check(X, y)
            if len(X) == 0:
                report = ResilientBatchReport(
                    batch=self._batch_counter,
                    prequential_mse=None,
                    drift_detected=False,
                    guard=guard_report,
                    scrub=scrub_report,
                    skipped=True,
                )
                self.history.append(report)
                return report

        base = super().update(X, y)
        if self.scrubber is not None:
            # Training wrote the live shadows; mirror the write into the
            # replicas (in hardware this is the same bus cycle).
            self.scrubber.sync()
        report = ResilientBatchReport(
            batch=base.batch,
            prequential_mse=base.prequential_mse,
            drift_detected=base.drift_detected,
            guard=guard_report,
            scrub=scrub_report,
        )
        # super().update appended its own plain report; replace it with
        # the enriched one so history stays one-entry-per-batch.
        self.history.replace_last(report)

        if self.watchdog is not None and base.prequential_mse is not None:
            trigger = float(np.sqrt(base.prequential_mse))
            report.health = self.watchdog.update(trigger)
            if report.health is HealthState.FAILED:
                with span("rollback"):
                    report.rolled_back = self._rollback(trigger)
                if report.rolled_back:
                    event = self.rollbacks[-1]
                    report.restored_checkpoint = event.checkpoint_id
                    report.trigger_error = trigger
                    # _restore rewound history to the checkpointed reports;
                    # re-append this one so the rollback stays on record.
                    self.history.append(report)
                    # The rollback span has landed in the tracer ring and
                    # the batch trace is still open, so the post-mortem
                    # bundle carries both the guard→…→rollback spans and
                    # the breaching batch's trace id.
                    _flight.auto_dump(
                        "watchdog_rollback",
                        at_batch=event.at_batch,
                        restored_batch=event.restored_batch,
                        checkpoint_id=event.checkpoint_id,
                        trigger_error=trigger,
                    )

        if (
            self.checkpoints is not None
            and self.checkpoint_every > 0
            and not report.rolled_back
            and self._batch_counter % self.checkpoint_every == 0
        ):
            # Set before saving: the checkpoint journals this report.
            report.checkpointed = True
            try:
                self.checkpoint()
            except BaseException:
                report.checkpointed = False
                raise
        return report

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict through the guard (repair/raise apply; under ``drop``
        the returned predictions correspond to the surviving rows)."""
        if self.guard is not None:
            X, _, _ = self.guard.check(X)
        return super().predict(X)

    # -- checkpointing / recovery ------------------------------------------

    def _stream_state(self) -> dict:
        state: dict = {
            "batch": self._batch_counter,
            "forgetting": self.forgetting,
            "drift_shrink": self.drift_shrink,
        }
        if self.detector is not None:
            state["detector"] = {
                "delta": self.detector.delta,
                "threshold": self.detector.threshold,
                "state": self.detector.get_state(),
            }
        if self.watchdog is not None:
            state["watchdog"] = self.watchdog.get_state()
        if self.conformal is not None:
            state["conformal"] = self.conformal.get_state()
        if self.guard is not None and self.guard.gate is not None:
            state["guard_gate"] = self.guard.gate.get_state()
        return state

    def checkpoint(self) -> CheckpointInfo:
        """Persist the current model + stream state, atomically.

        The report history goes to the checkpoint directory's journal:
        only reports no earlier checkpoint covered are encoded.
        """
        if self.checkpoints is None:
            raise ConfigurationError(
                "no checkpoint_dir was configured for this stream"
            )
        return self.checkpoints.save(
            self.model,
            batch=self._batch_counter,
            extra={"stream": self._stream_state()},
            history=self.history,
        )

    def _restore(self, model, extra: dict) -> int:
        """Copy a restored model + stream state into this instance.

        Returns the restored batch counter.  The copy is in-place (the
        encoder bases never change after construction, so only the
        learned state moves), keeping every external reference to
        ``self.model`` valid.
        """
        # Restored weights make the serving plan stale; the restore below
        # goes through DualCopy.replace → rebinarize, which advances the
        # sign-version counters, so the next predict refreshes the plan's
        # operands incrementally rather than recompiling it.
        self._plan_stale = True
        # The state protocol applies learned arrays in place (DualCopy
        # .replace copies into the existing buffers), so scrubber shadows
        # and other references to self.model's arrays stay valid.
        self.model.set_state(*model.get_state())
        stream = extra.get("stream", {})
        self._batch_counter = int(stream.get("batch", self._batch_counter))
        detector_state = stream.get("detector")
        if self.detector is not None and detector_state is not None:
            self.detector.set_state(detector_state["state"])
        history_state = stream.get("history")
        if history_state is not None:
            self.checkpoints.restore_history(self.history, history_state)
        conformal_state = stream.get("conformal")
        if self.conformal is not None and conformal_state is not None:
            # Rolling back the model without rolling back the calibration
            # window would score the restored model against residuals of
            # the diverged one; restore them together.
            self.conformal.set_state(conformal_state)
        gate_state = stream.get("guard_gate")
        if (
            gate_state is not None
            and self.guard is not None
            and self.guard.gate is not None
        ):
            self.guard.gate.set_state(gate_state)
        if self.scrubber is not None:
            self.scrubber.sync()
        return self._batch_counter

    def _rollback(self, trigger_error: float = float("nan")) -> bool:
        """Restore the newest valid checkpoint; False when none exists.

        ``trigger_error`` is the prequential RMSE that breached the fail
        envelope — recorded on the :class:`RollbackEvent` for post-mortem.
        """
        if self.checkpoints is None:
            return False
        try:
            model, extra, info = self.checkpoints.load_latest()
        except RecoveryError:
            return False
        failed_at = self._batch_counter
        restored = self._restore(model, extra)
        if self.watchdog is not None:
            # The window is full of the divergent errors that fired the
            # rollback; the baseline still describes a healthy model.
            self.watchdog.reset(keep_baseline=True)
        event = RollbackEvent(
            at_batch=failed_at,
            restored_batch=restored,
            checkpoint=info.path,
            checkpoint_id=info.path.stem,
            trigger_error=trigger_error,
        )
        self.rollbacks.append(event)
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_watchdog_rollbacks_total").inc()
            registry.record_event(
                "watchdog_rollback",
                at_batch=failed_at,
                restored_batch=restored,
                checkpoint_id=event.checkpoint_id,
                trigger_error=trigger_error,
            )
        return True

    @classmethod
    def recover(
        cls,
        checkpoint_dir: str | pathlib.Path,
        *,
        keep_checkpoints: int = 3,
        detector: PageHinkley | None = None,
        watchdog: Watchdog | None = None,
        **kwargs: object,
    ) -> "ResilientStreamingRegHD":
        """Resume a crashed stream from its checkpoint directory.

        Restores the newest CRC-valid checkpoint (skipping corrupt ones),
        the batch counter, and the drift-detector state — replaying the
        batches that arrived after the checkpoint then reproduces the
        uninterrupted run bit-exactly.  A detector is rebuilt from the
        checkpointed hyper-parameters unless one is passed in; a watchdog
        is only restored when passed in (its envelope config is the
        caller's choice).

        Raises :class:`RecoveryError` when no valid checkpoint exists.
        """
        manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
        model, extra, _ = manager.load_latest()
        stream = extra.get("stream", {})
        detector_meta = stream.get("detector")
        if detector is None and detector_meta is not None:
            detector = PageHinkley(
                delta=detector_meta["delta"],
                threshold=detector_meta["threshold"],
            )
        if watchdog is not None and "watchdog" in stream:
            watchdog.set_state(stream["watchdog"])
        if "conformal" not in kwargs and "conformal" in stream:
            # The calibrator's hyper-parameters live in its own snapshot,
            # so recovery rebuilds it wholesale unless the caller passed
            # a replacement.
            kwargs["conformal"] = AdaptiveConformal.from_state(
                stream["conformal"]
            )
        instance = cls(
            model.in_features,
            model.config,
            encoder=model.encoder,
            forgetting=float(stream.get("forgetting", 0.995)),
            drift_shrink=float(stream.get("drift_shrink", 0.1)),
            detector=detector,
            watchdog=watchdog,
            checkpoint_dir=checkpoint_dir,
            keep_checkpoints=keep_checkpoints,
            **kwargs,
        )
        instance._restore(model, extra)
        return instance
