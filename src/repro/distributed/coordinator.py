"""Coordinator: fold shard deltas into a live streaming learner.

The deployment story the paper sketches — many edge collectors, one
serving model — maps onto the delta protocol as a loop:

1. the coordinator broadcasts its live model state to the shard
   workers (via :class:`~repro.distributed.shard.ShardTrainer`);
2. each worker absorbs its slice of the arriving data and returns a
   :class:`~repro.core.delta.ModelDelta`;
3. the coordinator merges the deltas in shard-id order and folds the
   result into the live :class:`~repro.streaming.StreamingRegHD` (or
   :class:`~repro.reliability.resilient.ResilientStreamingRegHD`)
   between checkpoints via
   :meth:`~repro.streaming.StreamingRegHD.absorb_delta` — which
   refreshes the long-lived serving plan with the delta's row hint, so
   serving never recompiles.

Prequential honesty is preserved: each round predicts the arriving
batch *before* any shard trains on it, so the reported error is online
error, exactly as in the sequential stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.shard import ShardTrainer
from repro.exceptions import ConfigurationError
from repro.metrics import mean_squared_error
from repro.telemetry import tracing as _tracing
from repro.telemetry.tracing import span
from repro.types import ArrayLike
from repro.utils.validation import check_1d, check_2d, check_matching_lengths


@dataclass
class CoordinatorRoundReport:
    """One coordinated round: prequential error plus merge accounting."""

    round: int
    prequential_mse: float | None
    n_shards: int
    shard_samples: list[int]
    merged_bytes: int
    checkpointed: bool


class DeltaCoordinator:
    """Drive a streaming learner from shard-parallel delta rounds.

    Parameters
    ----------
    stream:
        A :class:`~repro.streaming.StreamingRegHD` (or its resilient
        subclass).  The coordinator trains the stream's underlying
        model through shards and folds merges in with
        :meth:`~repro.streaming.StreamingRegHD.absorb_delta`.
    n_shards / n_workers / batch_rows / reduction:
        Forwarded to :class:`~repro.distributed.shard.ShardTrainer`.
    checkpoint_every:
        Checkpoint the stream every N rounds (requires a stream with a
        ``checkpoint()`` method, i.e. the resilient subclass); ``None``
        disables coordinated checkpoints.
    """

    def __init__(
        self,
        stream,
        *,
        n_shards: int,
        n_workers: int = 0,
        batch_rows: int | None = None,
        reduction: str = "mean",
        checkpoint_every: int | None = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1 or None, got "
                f"{checkpoint_every}"
            )
        if checkpoint_every is not None and not hasattr(stream, "checkpoint"):
            raise ConfigurationError(
                "checkpoint_every requires a stream with a checkpoint() "
                "method (ResilientStreamingRegHD)"
            )
        self.stream = stream
        self.trainer = ShardTrainer(
            stream.model,
            n_shards=n_shards,
            n_workers=n_workers,
            batch_rows=batch_rows,
            reduction=reduction,
        )
        self.checkpoint_every = checkpoint_every
        self.rounds: list[CoordinatorRoundReport] = []

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def round(self, X: ArrayLike, y: ArrayLike) -> CoordinatorRoundReport:
        """Predict-then-shard-train one arriving super-batch."""
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)

        # Each distributed round is one traced unit of work: the
        # prequential predict and the map→reduce→absorb phase share the
        # round's trace id.
        with _tracing.trace("distributed/round", round=self.n_rounds + 1):
            prequential = None
            if self.stream.fitted:
                with span("predict"):
                    predictions = self.stream.predict(X_arr)
                prequential = mean_squared_error(y_arr, predictions)

            with span("distributed/coordinate"):
                deltas = self.trainer.map(X_arr, y_arr)
                merged = self.trainer.reduce(deltas)
                self.stream.absorb_delta(merged)

        checkpointed = False
        if (
            self.checkpoint_every is not None
            and (self.n_rounds + 1) % self.checkpoint_every == 0
        ):
            self.stream.checkpoint()
            checkpointed = True

        report = CoordinatorRoundReport(
            round=self.n_rounds + 1,
            prequential_mse=(
                None if prequential is None else float(prequential)
            ),
            n_shards=self.trainer.n_shards,
            shard_samples=[int(d.n_samples) for d in deltas],
            merged_bytes=int(merged.nbytes),
            checkpointed=checkpointed,
        )
        self.rounds.append(report)
        return report

    def mse_curve(self) -> np.ndarray:
        """Prequential MSE per round (NaN for the untrained first round)."""
        return np.array(
            [
                np.nan if r.prequential_mse is None else r.prequential_mse
                for r in self.rounds
            ]
        )
