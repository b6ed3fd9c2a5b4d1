"""Tests for split-conformal and streaming-adaptive prediction intervals."""

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig
from repro.baselines import RidgeRegression
from repro.core import ConvergencePolicy
from repro.evaluation.conformal import ConformalRegressor
from repro.exceptions import ConfigurationError, NotFittedError
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.robust.conformal import AdaptiveConformal, PredictionInterval


def _task(n=600, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = X @ np.array([1.0, -0.5, 0.3, 0.8]) + noise * rng.normal(size=n)
    return X, y


class TestConformalRegressor:
    def test_coverage_near_nominal(self):
        """Empirical coverage on fresh data ~ 1 - alpha."""
        X, y = _task(1200, seed=0)
        Xte, yte = _task(800, seed=1)
        conformal = ConformalRegressor(
            RidgeRegression(1e-6), alpha=0.1, seed=0
        ).fit(X, y)
        interval = conformal.predict_interval(Xte)
        coverage = interval.covers(yte).mean()
        assert 0.85 <= coverage <= 0.97

    def test_smaller_alpha_wider_intervals(self):
        X, y = _task()
        strict = ConformalRegressor(RidgeRegression(), alpha=0.05, seed=0).fit(X, y)
        loose = ConformalRegressor(RidgeRegression(), alpha=0.4, seed=0).fit(X, y)
        assert strict.quantile_ > loose.quantile_

    def test_interval_structure(self):
        X, y = _task()
        conformal = ConformalRegressor(RidgeRegression(), alpha=0.1).fit(X, y)
        interval = conformal.predict_interval(X[:10])
        assert isinstance(interval, PredictionInterval)
        assert np.all(interval.lower <= interval.prediction)
        assert np.all(interval.prediction <= interval.upper)
        np.testing.assert_allclose(
            interval.width, 2.0 * conformal.quantile_
        )

    def test_works_with_reghd(self):
        X, y = _task(400)
        model = MultiModelRegHD(
            4,
            RegHDConfig(
                dim=256, n_models=2, seed=0,
                convergence=ConvergencePolicy(max_epochs=5, patience=2),
            ),
        )
        conformal = ConformalRegressor(model, alpha=0.2, seed=0).fit(X, y)
        interval = conformal.predict_interval(X[:20])
        assert np.isfinite(interval.width).all()

    def test_insufficient_calibration_gives_infinite_interval(self):
        """With too few calibration points for the requested alpha the
        guarantee forces an infinite band (no silent under-coverage)."""
        X, y = _task(12)
        conformal = ConformalRegressor(
            RidgeRegression(), alpha=0.01, calibration_fraction=0.25, seed=0
        ).fit(X, y)
        assert conformal.quantile_ == float("inf")

    def test_predict_before_fit(self):
        conformal = ConformalRegressor(RidgeRegression())
        with pytest.raises(NotFittedError):
            conformal.predict(np.zeros((1, 4)))
        with pytest.raises(NotFittedError):
            conformal.predict_interval(np.zeros((1, 4)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"calibration_fraction": 0.0},
            {"calibration_fraction": 1.0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConformalRegressor(RidgeRegression(), **kwargs)

    def test_calibration_count_recorded(self):
        X, y = _task(100)
        conformal = ConformalRegressor(
            RidgeRegression(), calibration_fraction=0.3, seed=0
        ).fit(X, y)
        assert conformal.n_calibration_ == 30


class TestAdaptiveConformal:
    def test_empty_calibrator_gives_infinite_band(self):
        cal = AdaptiveConformal(alpha=0.1)
        assert cal.quantile() == float("inf")
        interval = cal.interval(np.zeros(3))
        assert np.isinf(interval.lower).all() and np.isinf(interval.upper).all()
        assert np.isnan(cal.coverage)

    def test_coverage_near_nominal_prequentially(self):
        """Feeding iid residuals, prequential coverage approaches 1-alpha."""
        rng = np.random.default_rng(0)
        cal = AdaptiveConformal(alpha=0.1, window=512)
        for _ in range(60):
            preds = rng.normal(size=50)
            y = preds + 0.5 * rng.normal(size=50)
            cal.observe(y, preds)
        assert 0.85 <= cal.coverage <= 0.95

    def test_quantile_tracks_residual_scale(self):
        rng = np.random.default_rng(1)
        narrow = AdaptiveConformal(alpha=0.1, window=256)
        wide = AdaptiveConformal(alpha=0.1, window=256)
        for _ in range(20):
            preds = rng.normal(size=40)
            narrow.observe(preds + 0.1 * rng.normal(size=40), preds)
            wide.observe(preds + 2.0 * rng.normal(size=40), preds)
        assert narrow.quantile() < wide.quantile()

    def test_interval_structure(self):
        rng = np.random.default_rng(2)
        cal = AdaptiveConformal(alpha=0.2, window=128)
        preds = rng.normal(size=200)
        cal.observe(preds + rng.normal(size=200), preds)
        interval = cal.interval(np.array([0.0, 1.0]))
        assert isinstance(interval, PredictionInterval)
        q = cal.quantile()
        np.testing.assert_allclose(interval.width, 2.0 * q)
        np.testing.assert_allclose(interval.prediction, [0.0, 1.0])

    def test_aci_widens_under_miscoverage(self):
        """With gamma > 0, sustained misses push the effective alpha down
        (wider bands); the Gibbs & Candes update."""
        rng = np.random.default_rng(3)
        adaptive = AdaptiveConformal(alpha=0.1, window=256, gamma=0.02)
        static = AdaptiveConformal(alpha=0.1, window=256, gamma=0.0)
        # Warm both on small residuals, then shift the noise scale up:
        # the adaptive calibrator should react by widening faster.
        for _ in range(10):
            preds = rng.normal(size=40)
            noise = 0.2 * rng.normal(size=40)
            adaptive.observe(preds + noise, preds)
            static.observe(preds + noise, preds)
        for _ in range(10):
            preds = rng.normal(size=40)
            noise = 3.0 * rng.normal(size=40)
            adaptive.observe(preds + noise, preds)
            static.observe(preds + noise, preds)
        assert adaptive.alpha_t < adaptive.alpha
        assert adaptive.quantile() >= static.quantile()

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": 0.0}, {"alpha": 1.0}, {"window": 0}, {"gamma": -0.1}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveConformal(**kwargs)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(4)
        cal = AdaptiveConformal(alpha=0.1, window=64, gamma=0.01)
        for _ in range(5):
            preds = rng.normal(size=30)
            cal.observe(preds + rng.normal(size=30), preds)
        clone = AdaptiveConformal.from_state(cal.get_state())
        assert clone.quantile() == cal.quantile()
        assert clone.coverage == cal.coverage
        assert clone.alpha_t == cal.alpha_t
        # Identical future observations keep them in lockstep.
        preds = rng.normal(size=30)
        y = preds + rng.normal(size=30)
        cal.observe(y, preds)
        clone.observe(y, preds)
        assert clone.quantile() == cal.quantile()


class TestConformalCheckpointing:
    """The calibrator rides checkpoint / recover / rollback with the model."""

    def _stream(self, tmp_path, **kwargs):
        return ResilientStreamingRegHD(
            4,
            RegHDConfig(dim=256, n_models=2, seed=0),
            conformal=AdaptiveConformal(alpha=0.1, window=128),
            checkpoint_dir=tmp_path,
            **kwargs,
        )

    def test_recover_restores_calibrator(self, tmp_path):
        X, y = _task(300, seed=5)
        stream = self._stream(tmp_path)
        for start in range(0, 300, 50):
            stream.update(X[start : start + 50], y[start : start + 50])
        stream.checkpoint()
        q_before = stream.conformal.quantile()
        cov_before = stream.conformal.coverage

        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.conformal is not None
        assert recovered.conformal.quantile() == q_before
        assert recovered.conformal.coverage == cov_before
        interval = recovered.predict_interval(X[:5])
        np.testing.assert_allclose(interval.width, 2.0 * q_before)

    def test_rollback_rewinds_calibration_window(self, tmp_path):
        """A watchdog rollback must restore the calibrator alongside the
        model — otherwise the restored model is scored against residuals
        of the diverged one."""
        X, y = _task(400, seed=6)
        stream = self._stream(tmp_path)
        for start in range(0, 200, 50):
            stream.update(X[start : start + 50], y[start : start + 50])
        stream.checkpoint()
        q_checkpointed = stream.conformal.quantile()

        # Diverge: garbage targets blow up the residual window.
        rng = np.random.default_rng(7)
        for start in range(200, 400, 50):
            stream.update(
                X[start : start + 50], 1e3 * rng.normal(size=50)
            )
        assert stream.conformal.quantile() > q_checkpointed

        assert stream._rollback(trigger_error=1.0)
        assert stream.conformal.quantile() == q_checkpointed
