"""Golden-equivalence proof for the estimator-stack refactor.

``tests/fixtures/golden_predictions.npz`` was recorded with the
pre-refactor per-model implementations (private ``_normalize_rows`` /
``_softmax`` clones, inline y-scaling, per-class fit loops).  These tests
retrain with the same seeds on the rebased stack and require
**bit-identical** predictions — not allclose — so the refactor is proven
behaviourally invisible.

If a deliberate numerics change ever invalidates these, regenerate with
``PYTHONPATH=src python tests/fixtures/generate_fixtures.py`` *and* call
the change out loudly: it breaks bit-compat with previously saved models.
"""

import pathlib

import numpy as np
import pytest

from repro import BaselineHD, MultiModelRegHD, RegHDConfig, SingleModelRegHD
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.encoding import RandomProjectionEncoder

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

DIM = 96
SEED = 1234
CONV = ConvergencePolicy(max_epochs=4, patience=2)

#: Every execution-runtime backend must reproduce the golden trajectories.
#: Packed sign products are exact integers, so the packed backend is
#: bit-identical everywhere except the BINARY_BOTH dots (scale rounding).
BACKENDS = ("dense", "packed")


@pytest.fixture(scope="module")
def golden():
    return np.load(FIXTURES / "golden_predictions.npz")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(72, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] - X[:, 3]
    X_query = rng.normal(size=(16, 4))
    return X, y, X_query


def multi_config(
    cq: ClusterQuant, pq: PredictQuant, backend: str | None = None
) -> RegHDConfig:
    return RegHDConfig(
        dim=DIM,
        n_models=3,
        seed=SEED,
        convergence=CONV,
        cluster_quant=cq,
        predict_quant=pq,
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_model_bit_identical(golden, data, backend):
    X, y, X_query = data
    model = SingleModelRegHD(
        4, dim=DIM, seed=SEED, convergence=CONV, backend=backend
    )
    model.fit(X, y)
    np.testing.assert_array_equal(model.predict(X_query), golden["single"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_baseline_hd_bit_identical(golden, data, backend, monkeypatch):
    X, y, X_query = data
    # BaselineHD takes the backend from the environment default.
    monkeypatch.setenv("REPRO_BACKEND", backend)
    model = BaselineHD(4, dim=DIM, n_bins=8, seed=SEED, convergence=CONV)
    model.fit(X, y)
    np.testing.assert_array_equal(
        model.predict(X_query), golden["baseline_hd"]
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cq", list(ClusterQuant))
@pytest.mark.parametrize("pq", list(PredictQuant))
def test_multi_model_bit_identical_all_quant_combos(
    golden, data, cq, pq, backend
):
    X, y, X_query = data
    model = MultiModelRegHD(4, multi_config(cq, pq, backend))
    model.fit(X, y)
    expected = golden[f"multi_{cq.value}_{pq.value}"]
    if backend != "dense" and pq is PredictQuant.BINARY_BOTH:
        # The packed fully-binary dots apply the two scale factors in a
        # different order than the dense matmul — float rounding only.
        np.testing.assert_allclose(
            model.predict(X_query), expected, rtol=1e-9, atol=1e-10
        )
    else:
        np.testing.assert_array_equal(model.predict(X_query), expected)


def test_projection_encoder_bit_identical(golden, data):
    X, y, X_query = data
    model = SingleModelRegHD(
        4,
        encoder=RandomProjectionEncoder(4, DIM, seed=SEED),
        convergence=CONV,
    )
    model.fit(X, y)
    np.testing.assert_array_equal(
        model.predict(X_query), golden["single_projection"]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_partial_fit_stream_bit_identical(golden, data, backend):
    """The frozen-scaler streaming path produces the pre-refactor result."""
    X, y, X_query = data
    model = MultiModelRegHD(
        4,
        multi_config(
            ClusterQuant.FRAMEWORK, PredictQuant.BINARY_QUERY, backend
        ),
    )
    for start in (0, 24, 48):
        model.partial_fit(X[start : start + 24], y[start : start + 24])
    np.testing.assert_array_equal(
        model.predict(X_query), golden["multi_partial_fit"]
    )


@pytest.mark.parametrize("rematerialize", (False, True))
@pytest.mark.parametrize("cq", list(ClusterQuant))
@pytest.mark.parametrize("pq", list(PredictQuant))
def test_packed_plan_matches_golden(golden, data, cq, pq, rematerialize):
    """Compiled packed plans (stored and rematerialised) stay on the
    golden trajectory: plan predictions match the dense-reference golden
    to float rounding, and the rematerialised plan is bit-identical to
    the stored-operand plan.  Encode→pack fuses exactly when both heavy
    stages run packed."""
    X, y, X_query = data
    model = MultiModelRegHD(4, multi_config(cq, pq))
    model.fit(X, y)
    plan = model.compile(backend="packed", rematerialize=rematerialize)
    assert plan.rematerialized is rematerialize
    assert plan.fused_encode is (
        cq is not ClusterQuant.NONE and pq is PredictQuant.BINARY_BOTH
    )
    expected = golden[f"multi_{cq.value}_{pq.value}"]
    np.testing.assert_allclose(
        plan.predict(X_query), expected, rtol=1e-9, atol=1e-10
    )
    if rematerialize:
        stored = model.compile(backend="packed")
        np.testing.assert_array_equal(
            plan.predict(X_query), stored.predict(X_query)
        )
        assert plan.nbytes < stored.nbytes
