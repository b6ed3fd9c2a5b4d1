"""HD classification — the substrate the paper builds on and contrasts with.

"The application of all existing HD algorithms is mainly in
classification" (paper Sec. 5).  This module provides that classical
algorithm with the same encoder and training machinery as RegHD: one
class hypervector per label, error-driven updates (reward the true class,
punish the predicted one), iterative retraining, and optional binary
inference via the dual-copy framework.  It exists both as a library
feature and as the base :class:`~repro.core.baseline_hd.BaselineHD`
specialises for regression-by-binning.

The classifier shares :class:`~repro.core.estimator.BaseRegHDEstimator`'s
encoder handling, fitted-state and state protocol, but replaces the
regression ``fit`` template with its own accuracy-plateau loop (labels,
not continuous targets, drive convergence here).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ConvergencePolicy
from repro.core.estimator import (
    BaseRegHDEstimator,
    encoder_from_state,
    take_array,
)
from repro.core.quantization import binarize_preserving_scale
from repro.encoding.base import Encoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import register_model
from repro.runtime import resolve_backend
from repro.types import ArrayLike, FloatArray, SeedLike
from repro.utils.rng import as_generator, derive_generator
from repro.utils.validation import check_matching_lengths


@register_model("classifier")
class HDClassifier(BaseRegHDEstimator):
    """Error-driven HD classification (OnlineHD-style).

    Parameters
    ----------
    in_features:
        Number of raw input features.
    dim:
        Hypervector dimensionality.
    lr:
        Update strength for the mistake-driven rule.
    batch_size:
        Mini-batch size for the vectorised training loop.
    binary_inference:
        When true, prediction uses sign-quantised class hypervectors
        (the Sec.-3 dual-copy idea applied to classification).
    encoder, convergence, seed:
        As in the RegHD models.
    """

    supports_partial_fit = False

    def __init__(
        self,
        in_features: int,
        *,
        dim: int = 4000,
        lr: float = 0.1,
        batch_size: int = 32,
        binary_inference: bool = False,
        encoder: Encoder | None = None,
        convergence: ConvergencePolicy | None = None,
        seed: SeedLike = 0,
    ):
        if lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {lr}")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        super().__init__(
            self.resolve_encoder(
                in_features,
                encoder,
                lambda: NonlinearEncoder(
                    in_features, dim, derive_generator(seed, 0)
                ),
            )
        )
        self.lr = float(lr)
        self.batch_size = int(batch_size)
        self.binary_inference = bool(binary_inference)
        self.convergence = convergence or ConvergencePolicy()
        self._seed = seed
        self.runtime = resolve_backend(None)
        self.classes_: np.ndarray | None = None
        self.class_vectors_: FloatArray | None = None
        self.accuracy_curve_: list[float] = []

    @property
    def n_classes(self) -> int:
        """Number of learned classes."""
        if self.classes_ is None:
            raise NotFittedError("n_classes unavailable before fit")
        return len(self.classes_)

    def _effective_class_vectors(self) -> FloatArray:
        assert self.class_vectors_ is not None
        if self.binary_inference:
            return binarize_preserving_scale(self.class_vectors_)
        return self.class_vectors_

    def _fit_epoch(self, S: FloatArray, labels: np.ndarray, order: np.ndarray) -> None:
        assert self.class_vectors_ is not None
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            S_b = S[idx]
            sims = self.runtime.linear_dots(S_b, self.class_vectors_)
            pred = np.argmax(sims, axis=1)
            truth = labels[idx]
            wrong = pred != truth
            if not np.any(wrong):
                continue
            S_w = S_b[wrong]
            self.runtime.scatter_add(
                self.class_vectors_, truth[wrong], self.lr * S_w
            )
            self.runtime.scatter_add(
                self.class_vectors_, pred[wrong], -self.lr * S_w
            )

    def fit(self, X: ArrayLike, y: ArrayLike) -> "HDClassifier":
        """Iteratively train one hypervector per class."""
        S = self._encoded(X)
        y_arr = np.asarray(y)
        if y_arr.ndim != 1:
            raise ConfigurationError(f"y must be 1-D, got shape {y_arr.shape}")
        check_matching_lengths("X", S, "y", y_arr)

        self.classes_, labels = np.unique(y_arr, return_inverse=True)
        if len(self.classes_) < 2:
            raise ConfigurationError("need at least two classes")
        self.class_vectors_ = np.zeros((len(self.classes_), self.dim))

        # Single-pass bundling initialisation, then error-driven epochs.
        self.runtime.scatter_add(self.class_vectors_, labels, S)

        rng = as_generator(derive_generator(self._seed, 1))
        policy = self.convergence
        self.accuracy_curve_ = []
        best_acc = -np.inf
        plateau = 0
        for _ in range(policy.max_epochs):
            order = rng.permutation(len(labels))
            self._fit_epoch(S, labels, order)
            acc = float(
                np.mean(
                    np.argmax(
                        self.runtime.linear_dots(S, self.class_vectors_),
                        axis=1,
                    )
                    == labels
                )
            )
            self.accuracy_curve_.append(acc)
            if acc > best_acc + policy.tol:
                best_acc = acc
                plateau = 0
            else:
                plateau += 1
                if plateau >= policy.patience:
                    break
        self._fitted = True
        return self

    def decision_scores(self, X: ArrayLike) -> FloatArray:
        """Similarity of each input to every class hypervector."""
        if not self._fitted:
            raise NotFittedError("HDClassifier used before fit")
        S = self._encoded(X)
        return self.runtime.linear_dots(S, self._effective_class_vectors())

    def predict(self, X: ArrayLike) -> np.ndarray:
        """Most similar class label per input."""
        assert self.classes_ is not None or not self._fitted
        scores = self.decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X: ArrayLike, y: ArrayLike) -> float:
        """Classification accuracy."""
        y_arr = np.asarray(y)
        return float(np.mean(self.predict(X) == y_arr))

    # -- state protocol -----------------------------------------------------

    def _model_meta(self) -> dict:
        return {
            "lr": self.lr,
            "batch_size": self.batch_size,
            "binary_inference": self.binary_inference,
            "seed": self._seed if isinstance(self._seed, int) else None,
            "convergence": {
                "max_epochs": self.convergence.max_epochs,
                "patience": self.convergence.patience,
                "tol": self.convergence.tol,
                "min_epochs": self.convergence.min_epochs,
            },
        }

    def _model_arrays(self) -> dict[str, np.ndarray]:
        if self.classes_ is None or self.class_vectors_ is None:
            raise ConfigurationError(
                "HDClassifier has no learned state to serialise before fit"
            )
        return {
            "class_vectors": np.asarray(self.class_vectors_),
            "classes": np.asarray(self.classes_),
        }

    def _apply_model_state(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        classes = np.asarray(arrays["classes"])
        self.class_vectors_ = take_array(
            arrays, "class_vectors", (len(classes), self.dim)
        )
        self.classes_ = classes

    @classmethod
    def _construct_from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "HDClassifier":
        convergence = (
            ConvergencePolicy(**meta["convergence"])
            if "convergence" in meta
            else None
        )
        return cls(
            int(meta["in_features"]),
            lr=meta["lr"],
            batch_size=meta["batch_size"],
            binary_inference=meta["binary_inference"],
            encoder=encoder_from_state(meta["encoder"], arrays),
            convergence=convergence,
            seed=meta.get("seed", 0),
        )

    def __repr__(self) -> str:
        return (
            f"HDClassifier(in_features={self.in_features}, dim={self.dim}, "
            f"binary_inference={self.binary_inference})"
        )
