"""Model interpretability utilities.

The paper lists interpretability among HD computing's advantages ("it
offers an intuitive and human-interpretable model", Sec. 1).  These
helpers make that concrete for RegHD:

* :func:`feature_importance` — mean absolute sensitivity of the prediction
  to each raw feature (central finite differences through the full
  encode-predict pipeline);
* :func:`prediction_breakdown` — Eq. (6) unpacked: each cluster's
  confidence, raw dot product, and contribution to one prediction;
* :func:`cluster_profile` — per-cluster population statistics over a
  dataset: how many inputs each cluster claims, their feature means, and
  the cluster's average prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multi import MultiModelRegHD
from repro.core.single import SingleModelRegHD
from repro.exceptions import ConfigurationError, NotFittedError
from repro.runtime import Query
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_2d


def feature_importance(
    model: SingleModelRegHD | MultiModelRegHD,
    X: ArrayLike,
    *,
    epsilon: float = 1e-3,
) -> FloatArray:
    """Mean absolute prediction sensitivity per feature.

    Central finite differences of ``predict`` around every row of ``X``:
    ``importance_k = mean_i |f(x_i + eps e_k) - f(x_i - eps e_k)| / (2 eps)``.
    Works for any encoder since it goes through the public pipeline.
    Irrelevant (distractor) features score near zero — the Sec.-2.2
    requirement that the encoder "find out the importance of the features".
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    if not getattr(model, "fitted", False):
        raise NotFittedError("feature_importance requires a fitted model")
    X_arr = check_2d("X", X)
    n_features = X_arr.shape[1]
    importances = np.empty(n_features)
    for k in range(n_features):
        plus = X_arr.copy()
        minus = X_arr.copy()
        plus[:, k] += epsilon
        minus[:, k] -= epsilon
        delta = model.predict(plus) - model.predict(minus)
        importances[k] = float(np.mean(np.abs(delta)) / (2.0 * epsilon))
    return importances


@dataclass(frozen=True)
class ClusterContribution:
    """One cluster's share of a single prediction (Eq. 6 unpacked)."""

    cluster: int
    confidence: float
    dot_product: float
    contribution: float  # confidence * dot * y_scale, in target units


@dataclass(frozen=True)
class PredictionExplanation:
    """A fully decomposed RegHD prediction."""

    prediction: float
    baseline: float  # the training-target mean (the y-normalisation offset)
    contributions: tuple[ClusterContribution, ...]

    @property
    def dominant_cluster(self) -> int:
        """Cluster with the largest confidence."""
        return max(self.contributions, key=lambda c: c.confidence).cluster

    def check_sums(self) -> float:
        """Baseline + contributions; equals ``prediction`` by construction."""
        return self.baseline + sum(c.contribution for c in self.contributions)


def prediction_breakdown(
    model: MultiModelRegHD, x: ArrayLike
) -> PredictionExplanation:
    """Decompose one prediction into per-cluster contributions.

    The returned contributions satisfy
    ``prediction == baseline + sum(contribution_i)`` exactly.
    """
    if not getattr(model, "fitted", False):
        raise NotFittedError("prediction_breakdown requires a fitted model")
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.ndim != 1:
        raise ConfigurationError(
            f"prediction_breakdown explains one row; got shape {x_arr.shape}"
        )
    encoded = model.encode(x_arr)
    query = Query(encoded.matrix)
    sims = model._cluster_similarities(query)
    conf = model._confidences(sims)[0]
    dots = model.runtime.model_dots(query, model._model_op)[0]
    contributions = tuple(
        ClusterContribution(
            cluster=i,
            confidence=float(conf[i]),
            dot_product=float(dots[i]),
            contribution=float(conf[i] * dots[i] * model.scaler.scale),
        )
        for i in range(model.n_models)
    )
    prediction = float(model.predict(encoded)[0])
    return PredictionExplanation(
        prediction=prediction,
        baseline=float(model.scaler.mean),
        contributions=contributions,
    )


@dataclass(frozen=True)
class ClusterProfile:
    """Population statistics of one cluster over a dataset."""

    cluster: int
    count: int
    share: float
    feature_means: FloatArray
    mean_prediction: float


def cluster_profile(
    model: MultiModelRegHD, X: ArrayLike
) -> tuple[ClusterProfile, ...]:
    """Summarise how a dataset distributes over the learned clusters.

    Clusters that claim no inputs report ``count=0`` with NaN statistics —
    a direct view of how many of the k models the data actually uses.
    """
    if not getattr(model, "fitted", False):
        raise NotFittedError("cluster_profile requires a fitted model")
    X_arr = check_2d("X", X)
    assignments = model.cluster_assignments(X_arr)
    predictions = model.predict(X_arr)
    profiles = []
    for i in range(model.n_models):
        mask = assignments == i
        count = int(mask.sum())
        if count:
            feature_means = X_arr[mask].mean(axis=0)
            mean_prediction = float(predictions[mask].mean())
        else:
            feature_means = np.full(X_arr.shape[1], np.nan)
            mean_prediction = float("nan")
        profiles.append(
            ClusterProfile(
                cluster=i,
                count=count,
                share=count / len(X_arr),
                feature_means=feature_means,
                mean_prediction=mean_prediction,
            )
        )
    return tuple(profiles)
