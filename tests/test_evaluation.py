"""Tests for the evaluation harness: runner, grid search, reporting."""

import numpy as np
import pytest

from repro.baselines.linear import RidgeRegression
from repro.datasets import Dataset, train_test_split
from repro.evaluation import (
    grid_search,
    iter_grid,
    render_markdown,
    render_pivot,
    render_table,
    run_experiment,
    run_many,
    run_on_split,
)
from repro.exceptions import ConfigurationError


def _dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.1 * rng.normal(size=n)
    return Dataset("lin", X, y)


class TestRunner:
    def test_run_experiment_result_fields(self):
        result = run_experiment(
            lambda n: RidgeRegression(1e-6), _dataset(), model_label="ridge"
        )
        assert result.model == "ridge"
        assert result.dataset == "lin"
        assert result.mse < 0.1
        assert result.r2 > 0.95
        assert result.fit_seconds >= 0.0

    def test_default_label_is_class_name(self):
        result = run_experiment(lambda n: RidgeRegression(), _dataset())
        assert result.model == "RidgeRegression"

    def test_epochs_captured_for_iterative_models(self):
        from repro.core import ConvergencePolicy
        from repro.core.single import SingleModelRegHD

        result = run_experiment(
            lambda n: SingleModelRegHD(
                n, dim=128, seed=0,
                convergence=ConvergencePolicy(max_epochs=3, patience=2),
            ),
            _dataset(),
        )
        assert result.n_epochs is not None
        assert 1 <= result.n_epochs <= 3

    def test_max_train_samples_caps(self):
        result = run_experiment(
            lambda n: RidgeRegression(), _dataset(500), max_train_samples=50
        )
        assert np.isfinite(result.mse)

    def test_invalid_max_train_samples(self):
        with pytest.raises(ConfigurationError):
            run_experiment(lambda n: RidgeRegression(), _dataset(), max_train_samples=1)

    def test_run_many_shares_split(self):
        results = run_many(
            {"a": lambda n: RidgeRegression(), "b": lambda n: RidgeRegression()},
            _dataset(),
        )
        assert results[0].mse == pytest.approx(results[1].mse)

    def test_run_on_split_no_standardize(self):
        split = train_test_split(_dataset(), seed=0)
        result = run_on_split(
            lambda n: RidgeRegression(), split, standardize=False
        )
        assert result.r2 > 0.9

    def test_as_row(self):
        result = run_experiment(lambda n: RidgeRegression(), _dataset())
        row = result.as_row()
        assert set(row) == {
            "dataset", "model", "mse", "rmse", "r2", "fit_s", "predict_s", "epochs",
        }


class TestGridSearch:
    def test_iter_grid_counts(self):
        combos = list(iter_grid({"a": [1, 2], "b": [3, 4, 5]}))
        assert len(combos) == 6

    def test_iter_grid_empty(self):
        assert list(iter_grid({})) == [{}]

    def test_iter_grid_empty_values(self):
        with pytest.raises(ConfigurationError):
            list(iter_grid({"a": []}))

    def test_finds_best_alpha(self):
        ds = _dataset(200)
        result = grid_search(
            lambda alpha: RidgeRegression(alpha=alpha),
            {"alpha": [1e-6, 1e3]},
            ds.X,
            ds.y,
            seed=0,
        )
        assert result.best_params["alpha"] == 1e-6
        assert result.n_evaluated == 2

    def test_all_results_recorded(self):
        ds = _dataset()
        result = grid_search(
            lambda alpha: RidgeRegression(alpha=alpha),
            {"alpha": [0.1, 1.0, 10.0]},
            ds.X,
            ds.y,
        )
        assert len(result.all_results) == 3
        assert result.best_mse == min(m for _, m in result.all_results)

    def test_invalid_val_fraction(self):
        ds = _dataset()
        with pytest.raises(ConfigurationError):
            grid_search(lambda: RidgeRegression(), {}, ds.X, ds.y, val_fraction=1.0)


class TestReporting:
    ROWS = [
        {"model": "a", "mse": 1.2345, "epochs": 3},
        {"model": "b", "mse": 0.5, "epochs": None},
    ]

    def test_render_table(self):
        text = render_table(self.ROWS)
        assert "model" in text and "mse" in text
        assert "1.234" in text or "1.235" in text
        assert "-" in text  # the None cell

    def test_render_table_column_selection(self):
        text = render_table(self.ROWS, columns=["model"])
        assert "mse" not in text

    def test_render_table_empty(self):
        with pytest.raises(ConfigurationError):
            render_table([])

    def test_render_markdown(self):
        text = render_markdown(self.ROWS)
        assert text.startswith("| model")
        assert "|---|" in text.replace(" ", "")

    def test_render_pivot_layout(self):
        rows = [
            {"model": "m1", "dataset": "d1", "mse": 1.0},
            {"model": "m1", "dataset": "d2", "mse": 2.0},
            {"model": "m2", "dataset": "d1", "mse": 3.0},
            {"model": "m2", "dataset": "d2", "mse": 4.0},
        ]
        text = render_pivot(rows, index="model", column="dataset", value="mse")
        lines = text.strip().splitlines()
        assert "d1" in lines[0] and "d2" in lines[0]
        assert any(line.strip().startswith("m1") for line in lines)

    def test_render_pivot_missing_cell(self):
        rows = [
            {"model": "m1", "dataset": "d1", "mse": 1.0},
            {"model": "m2", "dataset": "d2", "mse": 4.0},
        ]
        text = render_pivot(rows, index="model", column="dataset", value="mse")
        assert "-" in text

    def test_large_numbers_scientific(self):
        text = render_table([{"x": 1.5e9}])
        assert "e+" in text


class TestCrossValidate:
    def test_fold_count_and_labels(self):
        from repro.baselines import RidgeRegression
        from repro.datasets import Dataset
        from repro.evaluation.runner import cross_validate

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        ds = Dataset("lin", X, X @ np.array([1.0, 2.0, -1.0]))
        results = cross_validate(
            lambda n: RidgeRegression(1e-6), ds, k=4, model_label="ridge"
        )
        assert len(results) == 4
        assert {r.dataset for r in results} == {
            "lin[fold0]", "lin[fold1]", "lin[fold2]", "lin[fold3]"
        }
        assert all(r.mse < 1e-6 for r in results)
