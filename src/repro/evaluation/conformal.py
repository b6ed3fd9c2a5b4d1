"""Split-conformal prediction intervals for any regressor.

IoT deployments rarely want a bare point estimate; split-conformal
calibration turns any fitted regressor — RegHD included — into one with
distribution-free finite-sample coverage guarantees: with probability at
least ``1 - alpha`` (over the calibration draw), the interval contains
the true target of an exchangeable test point.

The interval container and the finite-sample quantile rule are shared
with the streaming calibrator and live in :mod:`repro.robust.conformal`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError
from repro.robust.conformal import PredictionInterval, conformal_quantile
from repro.types import ArrayLike, FloatArray, SeedLike
from repro.utils.rng import as_generator
from repro.utils.validation import check_1d, check_2d, check_matching_lengths

__all__ = ["ConformalRegressor"]


class ConformalRegressor:
    """Split-conformal wrapper: train on one part, calibrate on the rest.

    Parameters
    ----------
    model:
        An *unfitted* regressor with ``fit``/``predict``.
    alpha:
        Miscoverage level; intervals target ``1 - alpha`` coverage.
    calibration_fraction:
        Fraction of the data held out for calibration.
    seed:
        Seed for the train/calibration split.
    """

    def __init__(
        self,
        model,
        *,
        alpha: float = 0.1,
        calibration_fraction: float = 0.25,
        seed: SeedLike = 0,
    ):
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.0 < calibration_fraction < 1.0:
            raise ConfigurationError(
                "calibration_fraction must be in (0, 1), got "
                f"{calibration_fraction}"
            )
        self.model = model
        self.alpha = float(alpha)
        self.calibration_fraction = float(calibration_fraction)
        self._seed = seed
        self.quantile_: float | None = None
        self.n_calibration_: int = 0

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.quantile_ is not None

    def fit(self, X: ArrayLike, y: ArrayLike) -> "ConformalRegressor":
        """Split, train the wrapped model, calibrate the residual quantile."""
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)
        n = X_arr.shape[0]
        n_cal = max(1, int(round(n * self.calibration_fraction)))
        if n_cal >= n:
            raise ConfigurationError(
                "calibration split leaves no training data"
            )
        rng = as_generator(self._seed)
        order = rng.permutation(n)
        cal_idx, train_idx = order[:n_cal], order[n_cal:]

        self.model.fit(X_arr[train_idx], y_arr[train_idx])
        residuals = np.abs(
            y_arr[cal_idx] - self.model.predict(X_arr[cal_idx])
        )
        # Shared finite-sample rank rule; inf when the calibration split
        # is too small for this alpha (the guarantee forces it).
        self.quantile_ = conformal_quantile(residuals, self.alpha)
        self.n_calibration_ = n_cal
        return self

    def predict(self, X: ArrayLike) -> FloatArray:
        """Point predictions of the wrapped model."""
        if not self.fitted:
            raise NotFittedError("ConformalRegressor used before fit")
        return self.model.predict(X)

    def predict_interval(self, X: ArrayLike) -> PredictionInterval:
        """Point predictions with +-quantile conformal bands."""
        if self.quantile_ is None:
            raise NotFittedError("ConformalRegressor used before fit")
        center = self.model.predict(check_2d("X", X))
        return PredictionInterval(
            lower=center - self.quantile_,
            prediction=center,
            upper=center + self.quantile_,
        )
