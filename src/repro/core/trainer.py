"""Iterative retraining loop with convergence detection.

RegHD is trained by repeated passes over the (pre-encoded) training data:
"the model retraining stops when RegHD has minor changes on the model
during a few consecutive iterations" (paper Sec. 2.3).  This module owns
that loop — epoch shuffling, per-epoch quality tracking, plateau detection
— so the single-model, multi-model and Baseline-HD classes all share one
implementation and one history format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.config import ConvergencePolicy
from repro.metrics import mean_squared_error
from repro.telemetry import metrics as _metrics
from repro.telemetry.timing import monotonic
from repro.types import FloatArray, SeedLike
from repro.utils.rng import as_generator


class TrainableOnEncoded(Protocol):
    """What the trainer needs from a model: one epoch of updates + predict."""

    def fit_epoch(self, S: FloatArray, y: FloatArray, order: np.ndarray) -> None:
        """Run one pass of online/mini-batch updates in the given order."""
        ...  # pragma: no cover

    def predict_encoded(self, S: FloatArray) -> FloatArray:
        """Predict targets for already-encoded hypervectors."""
        ...  # pragma: no cover

    def end_epoch(self) -> None:
        """Hook run after each pass (e.g. re-binarise quantised copies)."""
        ...  # pragma: no cover

    def begin_training(self, S: FloatArray) -> None:
        """Hook run once before the first epoch (e.g. build operand caches)."""
        ...  # pragma: no cover

    def finish_training(self) -> None:
        """Hook run once after the last epoch, even on divergence."""
        ...  # pragma: no cover


@dataclass
class EpochRecord:
    """Quality snapshot taken after one training epoch."""

    epoch: int
    train_mse: float
    val_mse: float | None = None

    @property
    def monitored(self) -> float:
        """The value convergence is judged on (validation if available)."""
        return self.val_mse if self.val_mse is not None else self.train_mse


@dataclass
class TrainingHistory:
    """Full record of an iterative training run."""

    records: list[EpochRecord] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False

    @property
    def n_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.records)

    @property
    def final_train_mse(self) -> float:
        """Training MSE after the last epoch."""
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].train_mse

    @property
    def best_epoch(self) -> int:
        """Epoch index (1-based) with the lowest monitored MSE."""
        if not self.records:
            raise ValueError("history is empty")
        values = [r.monitored for r in self.records]
        return int(np.argmin(values)) + 1

    def train_curve(self) -> FloatArray:
        """Per-epoch training MSE as an array (Fig. 3a's x-axis)."""
        return np.array([r.train_mse for r in self.records], dtype=np.float64)

    def val_curve(self) -> FloatArray:
        """Per-epoch validation MSE (NaN where no validation set was given)."""
        return np.array(
            [np.nan if r.val_mse is None else r.val_mse for r in self.records],
            dtype=np.float64,
        )


class IterativeTrainer:
    """Run the iterative-retraining loop over pre-encoded data.

    Parameters
    ----------
    policy:
        Stopping rule (max epochs, plateau patience, relative tolerance).
    seed:
        Seed for the per-epoch shuffling stream.
    """

    def __init__(self, policy: ConvergencePolicy, seed: SeedLike = None):
        self._policy = policy
        self._rng = as_generator(seed)

    @property
    def policy(self) -> ConvergencePolicy:
        """The stopping rule in force."""
        return self._policy

    def train(
        self,
        model: TrainableOnEncoded,
        S_train: FloatArray,
        y_train: FloatArray,
        S_val: FloatArray | None = None,
        y_val: FloatArray | None = None,
    ) -> TrainingHistory:
        """Train ``model`` until the convergence policy fires.

        Returns the per-epoch history; the model is updated in place.
        """
        policy = self._policy
        history = TrainingHistory()
        plateau = 0
        previous = np.inf
        first = None
        n = S_train.shape[0]
        # Let the model prepare run-scoped kernel caches (e.g. the packed
        # backend packs S_train once and serves every epoch from slices);
        # the finally guarantees teardown even if an epoch raises.  The
        # hooks are optional so minimal fit_epoch/predict_encoded models
        # (ablation stubs, toy baselines) keep working unchanged.
        begin = getattr(model, "begin_training", None)
        finish = getattr(model, "finish_training", None)
        if begin is not None:
            begin(S_train)
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_train_sessions_total").inc()
        try:
            for epoch in range(1, policy.max_epochs + 1):
                epoch_start = monotonic() if registry is not None else 0.0
                order = self._rng.permutation(n)
                model.fit_epoch(S_train, y_train, order)
                model.end_epoch()
                train_mse = mean_squared_error(
                    y_train, model.predict_encoded(S_train)
                )
                val_mse = None
                if S_val is not None and y_val is not None:
                    val_mse = mean_squared_error(
                        y_val, model.predict_encoded(S_val)
                    )
                record = EpochRecord(epoch, train_mse, val_mse)
                history.records.append(record)
                if registry is not None:
                    registry.counter("reghd_train_epochs_total").inc()
                    registry.histogram(
                        "reghd_train_epoch_seconds"
                    ).observe(monotonic() - epoch_start)
                    registry.gauge("reghd_train_last_mse").set(train_mse)

                monitored = record.monitored
                if first is None:
                    first = monitored
                # Divergence guard: a learning rate past the LMS stability
                # bound blows the MSE up geometrically — stop immediately
                # instead of reporting a "plateau" at astronomical error.
                if not np.isfinite(monitored) or (
                    first > 0 and monitored > 1e6 * first
                ):
                    history.diverged = True
                    break
                # Relative improvement against the previous epoch; the first
                # epoch always counts as an improvement.
                denom = max(previous, np.finfo(float).tiny)
                improvement = (previous - monitored) / denom
                if np.isfinite(previous) and improvement < policy.tol:
                    plateau += 1
                else:
                    plateau = 0
                previous = monitored
                if epoch >= policy.min_epochs and plateau >= policy.patience:
                    # A "plateau" of rising MSE is a stop, not convergence:
                    # only report convergence when the run ends near its best.
                    best = min(r.monitored for r in history.records)
                    history.converged = monitored <= best * (1 + policy.tol)
                    break
        finally:
            if finish is not None:
                finish()
        return history
