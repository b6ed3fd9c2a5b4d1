"""Tests for the compiled inference engine (repro.engine)."""

import numpy as np
import pytest

from repro import (
    CompiledPlan,
    MultiModelRegHD,
    RegHDConfig,
    SingleModelRegHD,
    compile_model,
)
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.engine import (
    auto_tile_rows,
    compare_inference_records,
    run_inference_benchmark,
)
from repro.exceptions import (
    ConfigurationError,
    EncodingError,
    NotFittedError,
)
from repro.reliability import ResilientStreamingRegHD
from repro.streaming import StreamingRegHD

CONV = ConvergencePolicy(max_epochs=3, patience=2)


def _task(seed=0, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + X[:, 1]
    return X, y


def _fitted(
    cq=ClusterQuant.FRAMEWORK, pq=PredictQuant.BINARY_BOTH, dim=128, backend=None
):
    X, y = _task()
    cfg = RegHDConfig(
        dim=dim,
        n_models=4,
        seed=0,
        convergence=CONV,
        cluster_quant=cq,
        predict_quant=pq,
        backend=backend,
    )
    return MultiModelRegHD(5, cfg).fit(X, y)


class TestCompile:
    def test_unfitted_raises(self):
        model = MultiModelRegHD(5, RegHDConfig(dim=64, n_models=2))
        with pytest.raises(NotFittedError):
            compile_model(model)

    def test_rejects_other_model_types(self):
        X, y = _task()
        single = SingleModelRegHD(5, dim=64, convergence=CONV).fit(X, y)
        with pytest.raises(ConfigurationError):
            compile_model(single)

    def test_knob_validation(self):
        model = _fitted()
        with pytest.raises(ConfigurationError):
            model.compile(tile_rows=0)
        with pytest.raises(ConfigurationError):
            model.compile(n_workers=0)

    def test_auto_packing_follows_quantisation(self, monkeypatch):
        # The auto pick applies only when no backend is chosen anywhere.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert _fitted().compile().packed
        assert not _fitted(
            ClusterQuant.NONE, PredictQuant.FULL
        ).compile().packed

    def test_operands_are_read_only(self):
        plan = _fitted().compile(backend="packed")
        for arr in (
            plan.cluster_op.words, plan.model_op.words, plan.model_op.scales
        ):
            assert arr is not None
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_plan_is_frozen_against_further_training(self):
        model = _fitted()
        plan = model.compile()
        X, y = _task(seed=3)
        before = plan.predict(X)
        model.partial_fit(X, y)  # mutates the model, not the plan
        np.testing.assert_array_equal(plan.predict(X), before)
        assert not np.allclose(model.predict(X), before)

    def test_repr_and_nbytes(self):
        plan = _fitted().compile(backend="packed")
        assert "packed-sims" in repr(plan) and "packed-dots" in repr(plan)
        assert plan.nbytes > 0
        # Packed cluster operands are 64x smaller than their float form.
        assert plan.cluster_op.words.nbytes * 8 <= plan.dim * plan.n_models

    def test_auto_tile_rows_bounds(self):
        assert auto_tile_rows(10) == 4096
        assert auto_tile_rows(10_000_000) == 64
        assert 64 <= auto_tile_rows(4000) <= 4096

    def test_default_tiles_peak_within_budget(self):
        """A default-tiled, multi-tile unfused predict peaks within the
        auto_tile_rows budget plus its input and output arrays."""
        import tracemalloc

        plan = _fitted(pq=PredictQuant.BINARY_QUERY, dim=4096).compile()
        assert not plan.fused_encode
        assert plan.tile_rows == auto_tile_rows(4096)
        X, _ = _task(seed=6, n=3 * plan.tile_rows + 1)
        plan.predict(X[:8])  # first-call allocations outside the window
        tracemalloc.start()
        try:
            plan.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (24 << 20) + X.nbytes + 8 * len(X)


class TestPredict:
    def test_matches_model_all_backends(self):
        model = _fitted()
        X, _ = _task(seed=1, n=67)
        ref = model.predict(X)
        for backend in ("packed", "dense"):
            plan = model.compile(backend=backend)
            np.testing.assert_allclose(
                plan.predict(X), ref, rtol=1e-9, atol=1e-10
            )
        # An unfused plan given the whole batch as one tile runs the
        # estimator's own query sequence: bit-identical.  Fused plans
        # encode through the single-trig identity, so they keep the
        # documented tolerance.
        for cq in ClusterQuant:
            for pq in PredictQuant:
                for backend in ("packed", "dense"):
                    model = _fitted(cq, pq, backend=backend)
                    plan = model.compile(tile_rows=len(X))
                    assert plan.backend_name == backend
                    if plan.fused_encode:
                        np.testing.assert_allclose(
                            plan.predict(X),
                            model.predict(X),
                            rtol=1e-9,
                            atol=1e-10,
                        )
                    else:
                        np.testing.assert_array_equal(
                            plan.predict(X), model.predict(X)
                        )

    def test_tiling_is_invisible(self):
        """Tile sizes that do not divide the batch change nothing.

        BLAS picks shape-dependent kernels, so the encode matmul can
        differ by an ulp between tile heights — hence allclose, not
        array_equal (threading with a fixed tile size IS bit-exact).
        """
        plan = _fitted().compile()
        X, _ = _task(seed=2, n=101)
        whole = plan.predict(X, tile_rows=101)
        for tile_rows in (1, 7, 32, 100, 500):
            np.testing.assert_allclose(
                plan.predict(X, tile_rows=tile_rows), whole, rtol=1e-12
            )

    def test_threading_is_invisible(self):
        plan = _fitted().compile()
        X, _ = _task(seed=4, n=90)
        single = plan.predict(X, tile_rows=16, n_workers=1)
        threaded = plan.predict(X, tile_rows=16, n_workers=4)
        np.testing.assert_array_equal(single, threaded)

    def test_empty_batch(self):
        plan = _fitted().compile()
        out = plan.predict(np.empty((0, 5)))
        assert out.shape == (0,)

    def test_feature_mismatch_raises(self):
        plan = _fitted().compile()
        with pytest.raises(EncodingError):
            plan.predict(np.zeros((3, 4)))

    def test_custom_encoder_fallback(self):
        """Non-NonlinearEncoder models fall back to encode_batch."""
        from repro.encoding.projection import RandomProjectionEncoder

        X, y = _task()
        enc = RandomProjectionEncoder(5, 128, seed=0)
        model = MultiModelRegHD(
            5,
            RegHDConfig(dim=128, n_models=4, seed=0, convergence=CONV),
            encoder=enc,
        ).fit(X, y)
        plan = model.compile(tile_rows=33)
        # The plan encodes through a read-only snapshot of the encoder.
        assert type(plan.encoder) is RandomProjectionEncoder
        assert plan.encoder is not enc and not plan.fused_encode
        with pytest.raises(ValueError):
            plan.encoder._bases[0, 0] = 1.0
        np.testing.assert_allclose(
            plan.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )


class TestPlanRefresh:
    def test_refresh_tracks_further_training(self):
        model = _fitted()
        plan = model.compile()
        X, y = _task(seed=3)
        model.partial_fit(X, y)
        plan.refresh(model)
        np.testing.assert_allclose(
            plan.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )

    def test_refresh_without_change_touches_nothing(self):
        model = _fitted()
        plan = model.compile()
        refreshed, reused = plan.refresh(model)
        assert refreshed == 0 and reused > 0
        stats = plan.refresh_stats
        assert stats["refreshes"] == 1
        assert stats["rows_refreshed"] == 0

    def test_decay_only_update_repacks_no_model_words(self):
        """Pure magnitude decay keeps every sign, so no word re-packs."""
        model = _fitted()
        plan = model.compile(backend="packed")
        before = plan.refresh_stats
        model.models.update_all(-0.5 * model.models.integer)
        model.models.rebinarize()
        plan.refresh(model)
        after = plan.refresh_stats
        # model words: sign patterns unchanged => zero rows re-packed;
        # cluster operands untouched entirely.
        assert after["rows_refreshed"] == before["rows_refreshed"]
        # the decayed scales still reach the plan
        np.testing.assert_allclose(
            plan.model_op.scales, model.models.scales
        )

    def test_refresh_rejects_foreign_model(self):
        plan = _fitted().compile()
        other = _fitted(dim=128)
        with pytest.raises(ConfigurationError):
            plan.refresh(other)

    def test_compile_backend_name_selects_kernels(self):
        model = _fitted()
        dense = model.compile(backend="dense")
        packed = model.compile(backend="packed")
        assert not dense.packed and packed.packed
        assert dense.backend_name == "dense"
        assert packed.backend_name == "packed"
        X, _ = _task(seed=5, n=41)
        np.testing.assert_allclose(
            dense.predict(X), packed.predict(X), rtol=1e-9, atol=1e-10
        )


class TestServingIntegration:
    def test_streaming_predict_reuses_refreshed_plan(self):
        X, y = _task(n=96)
        stream = StreamingRegHD(
            5, RegHDConfig(dim=128, n_models=4, seed=0)
        )
        stream.update(X[:48], y[:48])
        first = stream.predict(X[48:])
        assert isinstance(stream._plan, CompiledPlan)
        np.testing.assert_allclose(
            first, stream.model.predict(X[48:]), rtol=1e-9, atol=1e-10
        )
        plan_before = stream._plan
        stream.update(X[48:], y[48:])
        assert stream._plan_stale  # marked stale, not discarded
        second = stream.predict(X[:48])
        # the plan object persists; its operands were refreshed in place
        assert stream._plan is plan_before
        assert not stream._plan_stale
        assert stream._plan.refresh_stats["refreshes"] >= 1
        np.testing.assert_allclose(
            second, stream.model.predict(X[:48]), rtol=1e-9, atol=1e-10
        )

    def test_resilient_restore_marks_plan_stale(self, tmp_path):
        X, y = _task(n=128)
        stream = ResilientStreamingRegHD(
            5,
            RegHDConfig(dim=128, n_models=4, seed=0),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        stream.update(X[:64], y[:64])
        stream.predict(X[64:])
        assert stream._plan is not None
        stream.update(X[64:], y[64:])
        stream.predict(X[:64])
        assert stream._rollback()  # restores the checkpointed weights
        assert stream._plan is not None and stream._plan_stale
        np.testing.assert_allclose(
            stream.predict(X[:64]),
            stream.model.predict(X[:64]),
            rtol=1e-9,
            atol=1e-10,
        )


class TestBenchHarness:
    def test_quick_benchmark_schema(self):
        record = run_inference_benchmark(
            dims=(64, 96), batch_rows=32, repeats=2, features=4, n_workers=2
        )
        assert record["schema"] == 1
        assert {r["variant"] for r in record["results"]} == {
            "float",
            "packed",
            "packed_mt",
        }
        assert len(record["results"]) == 6
        for stats in record["results"]:
            assert stats["rows_per_s"] > 0
            assert stats["p50_ms"] <= stats["p99_ms"] + 1e-9
        assert set(record["speedups"]) == {"64", "96"}

    def test_quick_flag_shrinks_sweep(self):
        record = run_inference_benchmark(
            dims=(64, 8192), batch_rows=1024, repeats=10, features=4, quick=True
        )
        assert record["params"]["dims"] == [64]
        assert record["params"]["batch_rows"] <= 512
        assert record["params"]["repeats"] <= 3


class TestCompareGate:
    @staticmethod
    def _record(**overrides):
        record = {
            "params": {
                "batch_rows": 32,
                "repeats": 2,
                "features": 4,
                "n_workers": 2,
            },
            "machine": {"cpu_count": 4},
            "runtime": {"backend": "packed"},
            "results": [
                {"dim": 64, "variant": v, "rows_per_s": r}
                for v, r in (
                    ("float", 100.0),
                    ("packed", 200.0),
                    ("packed_mt", 310.0),
                )
            ],
            "speedups": {
                "64": {
                    "packed_vs_float": 2.0,
                    "packed_mt_vs_float": 3.1,
                }
            },
        }
        for key, val in overrides.items():
            record[key] = {**record[key], **val}
        return record

    def test_strict_mode_flags_rows_per_s_drop(self):
        import copy

        current = copy.deepcopy(self._record())
        for row in current["results"]:
            row["rows_per_s"] *= 0.5
        report = compare_inference_records(self._record(), current)
        assert report["strict"] and report["note"] is None
        assert len(report["regressions"]) == 3

    def test_quick_records_get_doubled_slack(self):
        import copy

        baseline = self._record()
        baseline["quick"] = True
        current = copy.deepcopy(baseline)
        for row in current["results"]:
            row["rows_per_s"] *= 0.85  # -15%: noise at smoke scale
        report = compare_inference_records(baseline, current)
        assert report["strict"] and not report["regressions"]
        for row in current["results"]:
            row["rows_per_s"] *= 0.85  # -28% compounded: real regression
        report = compare_inference_records(baseline, current)
        assert len(report["regressions"]) == 3

    def test_params_mismatch_is_incomparable(self):
        current = self._record(params={"batch_rows": 2048})
        report = compare_inference_records(self._record(), current)
        assert report["compared"] == 0 and not report["regressions"]
        assert "workload-dependent" in report["note"]

    def test_cross_machine_falls_back_to_ratios_with_doubled_slack(self):
        current = self._record(machine={"cpu_count": 8})
        current["speedups"]["64"]["packed_mt_vs_float"] = 2.7  # -13% < 20%
        current["speedups"]["64"]["packed_vs_float"] = 1.0  # -50%
        report = compare_inference_records(self._record(), current)
        assert not report["strict"]
        assert len(report["regressions"]) == 1
        assert "packed_vs_float" in report["regressions"][0]

    def test_backend_mismatch_skips_packed_cells(self):
        current = self._record(runtime={"backend": "dense"})
        current["speedups"]["64"]["packed_vs_float"] = 0.1
        for row in current["results"]:
            if row["variant"] == "packed":
                row["rows_per_s"] = 1.0
        strict = compare_inference_records(self._record(), current)
        assert strict["strict"] and not strict["regressions"]
        assert strict["compared"] == 2 and "skipped" in strict["note"]
        cross = self._record(machine={"cpu_count": 8})
        ratio = compare_inference_records(cross, current)
        assert not ratio["strict"] and not ratio["regressions"]
        assert ratio["compared"] == 1  # packed_mt vs float only
