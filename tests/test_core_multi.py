"""Tests for multi-model RegHD (paper Sec. 2.4 + Sec. 3 quantisation)."""

import numpy as np
import pytest

from repro.core.config import ConvergencePolicy, RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.metrics import mean_squared_error, r2_score


@pytest.fixture
def conv():
    return ConvergencePolicy(max_epochs=10, patience=3)


class TestConstruction:
    def test_defaults_from_config(self, fast_config):
        model = MultiModelRegHD(5, fast_config)
        assert model.dim == fast_config.dim
        assert model.n_models == fast_config.n_models
        assert model.clusters.shape == (4, 256)
        assert model.models.shape == (4, 256)
        np.testing.assert_array_equal(model.models.integer, 0.0)

    def test_kwarg_overrides(self, fast_config):
        model = MultiModelRegHD(5, fast_config, n_models=2)
        assert model.n_models == 2

    def test_cluster_init_random_nonzero(self, fast_config):
        model = MultiModelRegHD(5, fast_config)
        assert np.linalg.norm(model.clusters.integer) > 0

    def test_cluster_rows_unit_norm(self, fast_config):
        model = MultiModelRegHD(5, fast_config)
        norms = np.linalg.norm(model.clusters.integer, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_encoder_mismatch_raises(self, fast_config):
        enc = NonlinearEncoder(4, fast_config.dim, seed=0)
        with pytest.raises(ConfigurationError):
            MultiModelRegHD(5, fast_config, encoder=enc)

    def test_encoder_dim_mismatch_raises(self, fast_config):
        enc = NonlinearEncoder(5, 64, seed=0)
        with pytest.raises(ConfigurationError):
            MultiModelRegHD(5, fast_config, encoder=enc)

    def test_repr(self, fast_config):
        assert "MultiModelRegHD" in repr(MultiModelRegHD(5, fast_config))


class TestFitPredict:
    def test_learns(self, tiny_regression, fast_config):
        X, y, Xte, yte = tiny_regression
        model = MultiModelRegHD(5, fast_config.with_overrides(dim=512)).fit(X, y)
        assert r2_score(yte, model.predict(Xte)) > 0.3

    def test_predict_before_fit_raises(self, fast_config):
        with pytest.raises(NotFittedError):
            MultiModelRegHD(5, fast_config).predict(np.zeros((1, 5)))

    def test_deterministic(self, tiny_regression, fast_config):
        X, y, Xte, _ = tiny_regression
        a = MultiModelRegHD(5, fast_config).fit(X, y).predict(Xte)
        b = MultiModelRegHD(5, fast_config).fit(X, y).predict(Xte)
        np.testing.assert_allclose(a, b)

    def test_seed_changes_model(self, tiny_regression, fast_config):
        X, y, Xte, _ = tiny_regression
        a = MultiModelRegHD(5, fast_config.with_overrides(seed=1)).fit(X, y).predict(Xte)
        b = MultiModelRegHD(5, fast_config.with_overrides(seed=2)).fit(X, y).predict(Xte)
        assert not np.allclose(a, b)

    def test_history(self, tiny_regression, fast_config):
        X, y, _, _ = tiny_regression
        model = MultiModelRegHD(5, fast_config).fit(X, y)
        assert model.history_ is not None
        assert model.history_.n_epochs >= 1

    def test_refit_resets_state(self, tiny_regression, fast_config):
        X, y, Xte, _ = tiny_regression
        model = MultiModelRegHD(5, fast_config)
        first = model.fit(X, y).predict(Xte)
        second = model.fit(X, y).predict(Xte)
        np.testing.assert_allclose(first, second)

    def test_k1_close_to_single_model_quality(self, tiny_regression, conv):
        """RegHD-1 degenerates to (softmax-weighted) single-model."""
        from repro.core.single import SingleModelRegHD

        X, y, Xte, yte = tiny_regression
        multi1 = MultiModelRegHD(
            5, RegHDConfig(dim=512, n_models=1, seed=0, convergence=conv)
        ).fit(X, y)
        single = SingleModelRegHD(5, dim=512, seed=0, convergence=conv).fit(X, y)
        mse_multi = mean_squared_error(yte, multi1.predict(Xte))
        mse_single = mean_squared_error(yte, single.predict(Xte))
        assert mse_multi == pytest.approx(mse_single, rel=0.5)

    def test_far_ood_predictions_regress_to_training_mean(self, tiny_regression):
        """Encodings of far-OOD inputs are near-orthogonal to every model
        hypervector, so predictions collapse toward the training-target
        mean — a documented HDC property (docs/faq.md)."""
        X, y, _, _ = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=256, n_models=4, seed=0,
                convergence=ConvergencePolicy(max_epochs=8, patience=3),
            ),
        ).fit(X, y)
        pred_far = model.predict(X[:50] + 25.0)
        pred_in = model.predict(X[:50])
        y_mean = float(np.mean(y))
        assert np.mean(np.abs(pred_far - y_mean)) < np.mean(
            np.abs(pred_in - y_mean)
        )


class TestClusteringBehaviour:
    def test_assignments_shape_and_range(self, clustered_regression, fast_config):
        X, y, Xte, _ = clustered_regression
        model = MultiModelRegHD(5, fast_config).fit(X, y)
        assign = model.cluster_assignments(Xte)
        assert assign.shape == (len(Xte),)
        assert assign.min() >= 0 and assign.max() < model.n_models

    def test_confidences_are_distributions(self, clustered_regression, fast_config):
        X, y, Xte, _ = clustered_regression
        model = MultiModelRegHD(5, fast_config).fit(X, y)
        conf = model.confidences(Xte)
        assert conf.shape == (len(Xte), model.n_models)
        np.testing.assert_allclose(conf.sum(axis=1), 1.0)
        assert np.all(conf >= 0)

    def test_multiple_clusters_used_on_clustered_data(
        self, clustered_regression, fast_config
    ):
        X, y, Xte, _ = clustered_regression
        model = MultiModelRegHD(5, fast_config).fit(X, y)
        used = np.unique(model.cluster_assignments(Xte))
        assert len(used) >= 2

    def test_before_fit_raises(self, fast_config):
        model = MultiModelRegHD(5, fast_config)
        with pytest.raises(NotFittedError):
            model.cluster_assignments(np.zeros((1, 5)))
        with pytest.raises(NotFittedError):
            model.confidences(np.zeros((1, 5)))

    @pytest.mark.parametrize("weighting", ["confidence", "argmax", "uniform"])
    def test_update_weightings_all_train(self, tiny_regression, conv, weighting):
        X, y, Xte, yte = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=256,
                n_models=4,
                seed=0,
                convergence=conv,
                update_weighting=weighting,
            ),
        ).fit(X, y)
        assert np.isfinite(model.predict(Xte)).all()

    def test_uniform_weighting_keeps_models_identical(self, tiny_regression, conv):
        """Eq. (7) taken literally gives every model the same update, so
        all k models stay identical — the documented degenerate case."""
        X, y, _, _ = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=128,
                n_models=3,
                seed=0,
                convergence=conv,
                update_weighting="uniform",
            ),
        ).fit(X, y)
        M = model.models.integer
        np.testing.assert_allclose(M[0], M[1])
        np.testing.assert_allclose(M[0], M[2])


class TestQuantizedConfigs:
    @pytest.mark.parametrize("cq", list(ClusterQuant))
    def test_cluster_quant_variants_train(self, tiny_regression, conv, cq):
        X, y, Xte, yte = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(dim=512, n_models=4, seed=0, convergence=conv, cluster_quant=cq),
        ).fit(X, y)
        assert r2_score(yte, model.predict(Xte)) > 0.2

    @pytest.mark.parametrize("pq", list(PredictQuant))
    def test_predict_quant_variants_train(self, tiny_regression, conv, pq):
        X, y, Xte, yte = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(dim=512, n_models=4, seed=0, convergence=conv, predict_quant=pq),
        ).fit(X, y)
        assert r2_score(yte, model.predict(Xte)) > 0.1

    def test_framework_binary_copies_refresh_each_epoch(
        self, tiny_regression, conv
    ):
        X, y, _, _ = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=128,
                n_models=2,
                seed=0,
                convergence=conv,
                cluster_quant=ClusterQuant.FRAMEWORK,
            ),
        ).fit(X, y)
        # Binary copy must match a fresh binarisation of the integer copy.
        from repro.core.quantization import binarize_preserving_scale

        np.testing.assert_allclose(
            model.clusters.binary,
            binarize_preserving_scale(model.clusters.integer),
        )

    def test_naive_clusters_stay_sign_valued(self, tiny_regression, conv):
        X, y, _, _ = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=128,
                n_models=2,
                seed=0,
                convergence=conv,
                cluster_quant=ClusterQuant.NAIVE,
            ),
        ).fit(X, y)
        magnitudes = np.abs(model.clusters.integer) * np.sqrt(128)
        np.testing.assert_allclose(magnitudes, 1.0, atol=1e-9)

    def test_binary_model_predictions_use_binarized_models(
        self, tiny_regression, conv
    ):
        X, y, Xte, _ = tiny_regression
        model = MultiModelRegHD(
            5,
            RegHDConfig(
                dim=128,
                n_models=2,
                seed=0,
                convergence=conv,
                predict_quant=PredictQuant.BINARY_MODEL,
            ),
        ).fit(X, y)
        effective = model._effective_models()
        # Each row must be sign * per-row scale: exactly 2 magnitudes max.
        for row in effective:
            nonzero = row[row != 0]
            assert len(np.unique(np.abs(nonzero))) <= 1


class TestPartialFit:
    def test_streaming(self, tiny_regression, fast_config):
        X, y, Xte, yte = tiny_regression
        model = MultiModelRegHD(5, fast_config)
        model.partial_fit(X[:100], y[:100])
        first = mean_squared_error(yte, model.predict(Xte))
        model.partial_fit(X[100:], y[100:])
        second = mean_squared_error(yte, model.predict(Xte))
        assert np.isfinite(second)
        assert second <= first * 1.5  # no catastrophic forgetting
