"""Tests for the iterative trainer."""

import numpy as np
import pytest

from repro.core.config import ConvergencePolicy
from repro.core.trainer import EpochRecord, IterativeTrainer, TrainingHistory


class _ToyModel:
    """Scalar LMS model for exercising the trainer contract."""

    def __init__(self, lr: float = 0.5):
        self.w = np.zeros(1)
        self.lr = lr
        self.epoch_ends = 0

    def fit_epoch(self, S, y, order):
        for i in order:
            err = y[i] - S[i] @ self.w
            self.w += self.lr * err * S[i]

    def predict_encoded(self, S):
        return S @ self.w

    def end_epoch(self):
        self.epoch_ends += 1


class _DivergingModel(_ToyModel):
    def fit_epoch(self, S, y, order):
        self.w += 10.0 ** (5 + self.epoch_ends)


class _RisingModel(_ToyModel):
    """Fits for two epochs, then walks away from the target every epoch."""

    def fit_epoch(self, S, y, order):
        if self.epoch_ends < 2:
            super().fit_epoch(S, y, order)
        else:
            self.w += 0.5


def _data(n=50):
    rng = np.random.default_rng(0)
    S = rng.normal(size=(n, 1))
    y = 2.0 * S[:, 0]
    return S, y


class TestTrainingLoop:
    def test_converges_on_linear_problem(self):
        S, y = _data()
        model = _ToyModel()
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=50, patience=3, tol=1e-4), seed=0
        ).train(model, S, y)
        assert history.converged
        assert model.w[0] == pytest.approx(2.0, abs=1e-3)

    def test_respects_max_epochs(self):
        S, y = _data()
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=2, patience=10), seed=0
        ).train(_ToyModel(lr=1e-6), S, y)
        assert history.n_epochs == 2
        assert not history.converged

    def test_end_epoch_called_every_epoch(self):
        S, y = _data()
        model = _ToyModel(lr=1e-6)
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=4, patience=10), seed=0
        ).train(model, S, y)
        assert model.epoch_ends == history.n_epochs == 4

    def test_validation_monitored_when_given(self):
        S, y = _data()
        S_val, y_val = _data(20)
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=5, patience=2), seed=0
        ).train(_ToyModel(), S, y, S_val, y_val)
        assert all(r.val_mse is not None for r in history.records)
        assert history.records[0].monitored == history.records[0].val_mse

    def test_min_epochs_prevents_early_stop(self):
        S, y = _data()
        # Converges immediately, but min_epochs forces more passes.
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=10, patience=1, tol=1e-12, min_epochs=6),
            seed=0,
        ).train(_ToyModel(lr=1.0), S, y)
        assert history.n_epochs >= 6

    def test_divergence_detected(self):
        S, y = _data()
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=20, patience=3), seed=0
        ).train(_DivergingModel(), S, y)
        assert history.diverged
        assert not history.converged
        assert history.n_epochs < 20

    def test_rising_mse_stop_is_not_convergence(self):
        S, y = _data()
        y = y + np.random.default_rng(1).normal(scale=0.5, size=len(y))
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=20, patience=3), seed=0
        ).train(_RisingModel(), S, y)
        curve = history.train_curve()
        assert np.all(np.diff(curve[1:]) > 0)  # MSE rises after epoch 2
        assert history.n_epochs == 4  # the plateau rule still stops it
        assert not history.diverged
        assert not history.converged

    def test_deterministic_given_seed(self):
        S, y = _data()
        h1 = IterativeTrainer(ConvergencePolicy(max_epochs=5, patience=9), 3).train(
            _ToyModel(), S, y
        )
        h2 = IterativeTrainer(ConvergencePolicy(max_epochs=5, patience=9), 3).train(
            _ToyModel(), S, y
        )
        np.testing.assert_allclose(h1.train_curve(), h2.train_curve())


class TestTrainingHistory:
    def test_curves(self):
        history = TrainingHistory(
            records=[EpochRecord(1, 4.0, None), EpochRecord(2, 2.0, None)]
        )
        np.testing.assert_allclose(history.train_curve(), [4.0, 2.0])
        assert np.isnan(history.val_curve()).all()

    def test_best_epoch(self):
        history = TrainingHistory(
            records=[
                EpochRecord(1, 4.0),
                EpochRecord(2, 1.0),
                EpochRecord(3, 2.0),
            ]
        )
        assert history.best_epoch == 2

    def test_final_train_mse(self):
        history = TrainingHistory(records=[EpochRecord(1, 4.0)])
        assert history.final_train_mse == 4.0

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory().final_train_mse
        with pytest.raises(ValueError):
            TrainingHistory().best_epoch

    def test_monotone_decreasing_curve_on_toy(self):
        S, y = _data()
        history = IterativeTrainer(
            ConvergencePolicy(max_epochs=6, patience=9), seed=0
        ).train(_ToyModel(lr=0.1), S, y)
        curve = history.train_curve()
        assert np.all(np.diff(curve) <= 1e-9)
