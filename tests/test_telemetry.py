"""Telemetry subsystem tests: registry, spans, exporters, instrumentation.

Covers the observability acceptance criteria:

* the disabled path is a true no-op — predictions are bit-identical and
  no metrics are recorded;
* histogram bucket edges follow Prometheus ``le`` (inclusive) semantics;
* counters and histograms stay exact under concurrent writers;
* the Prometheus/JSON exporters match checked-in golden files;
* backend, plan, cache, trainer, serving, streaming and reliability
  instrumentation all emit their catalogued metrics;
* watchdog rollbacks round-trip through ``StreamHistory`` state.
"""

from __future__ import annotations

import json
import pathlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as metrics_mod
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import _NULL_SPAN

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "telemetry"

#: fixed provenance for the golden exports (the real default_meta() would
#: churn the fixtures on every version bump).
GOLDEN_META = {
    "package_version": "0.0.0-test",
    "runtime_version": "0-test",
    "backend": "dense",
}


@pytest.fixture(autouse=True)
def _isolated_sink():
    """Every test starts and ends with the process-wide sink disabled."""
    previous = metrics_mod.active()
    metrics_mod.disable()
    yield
    if previous is not None:
        metrics_mod.enable(previous)
    else:
        metrics_mod.disable()


def _golden_registry() -> MetricsRegistry:
    """A deterministic registry (no wall-clock reads) for export tests."""
    reg = MetricsRegistry()
    reg.counter(
        "reghd_kernel_calls_total", backend="dense", kernel="model_dots"
    ).inc(3)
    reg.counter("reghd_serving_rows_total").inc(128)
    reg.gauge("reghd_train_last_mse").set(0.25)
    hist = reg.histogram(
        "reghd_serving_latency_seconds",
        buckets=(0.001, 0.01, 0.1),
        stage="encode",
    )
    for value in (0.0005, 0.001, 0.05, 0.2):
        hist.observe(value)
    reg.record_event(
        "checkpoint_write", batch=5, checkpoint_id="ckpt-00000005-deadbeef"
    )
    return reg


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("reghd_serving_rows_total")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42.0

    def test_same_labels_return_same_metric(self):
        reg = MetricsRegistry()
        a = reg.counter("reghd_kernel_calls_total", backend="dense", kernel="x")
        b = reg.counter("reghd_kernel_calls_total", kernel="x", backend="dense")
        assert a is b
        c = reg.counter("reghd_kernel_calls_total", backend="packed", kernel="x")
        assert c is not a
        assert len(reg) == 2

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("reghd_train_last_mse")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("reghd_serving_rows_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("reghd_serving_rows_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.histogram("reghd_serving_rows_total")

    def test_events_are_bounded_and_ordered(self):
        reg = MetricsRegistry(max_events=3)
        for i in range(5):
            reg.record_event("tick", i=i)
        events = reg.events
        assert [e["i"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert all(e["kind"] == "tick" for e in events)

    def test_invalid_histogram_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="at least one"):
            reg.histogram("h_empty", buckets=())
        with pytest.raises(ConfigurationError, match="finite"):
            reg.histogram("h_inf", buckets=(1.0, np.inf))
        with pytest.raises(ConfigurationError, match="increasing"):
            reg.histogram("h_dec", buckets=(1.0, 1.0))


class TestHistogramEdges:
    """Prometheus ``le`` semantics: upper bounds are inclusive."""

    def _hist(self):
        return MetricsRegistry().histogram("h", buckets=(1.0, 2.0))

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.5, [1, 0, 0]),   # below first bound
            (1.0, [1, 0, 0]),   # exactly on a bound -> that bucket
            (1.5, [0, 1, 0]),
            (2.0, [0, 1, 0]),   # last finite bound, still inclusive
            (2.0000001, [0, 0, 1]),  # just above -> overflow (+Inf) only
        ],
    )
    def test_bucket_edges(self, value, expected):
        hist = self._hist()
        hist.observe(value)
        counts, total, n = hist.snapshot()
        assert counts.tolist() == expected
        assert total == pytest.approx(value)
        assert n == 1

    def test_cumulative_export(self):
        reg = MetricsRegistry()
        hist = reg.histogram("reghd_train_epoch_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            hist.observe(value)
        text = telemetry.to_prometheus(reg, meta=GOLDEN_META)
        assert 'reghd_train_epoch_seconds_bucket{le="1"} 2' in text
        assert 'reghd_train_epoch_seconds_bucket{le="2"} 4' in text
        assert 'reghd_train_epoch_seconds_bucket{le="+Inf"} 5' in text
        assert "reghd_train_epoch_seconds_count 5" in text


class TestHistogramQuantile:
    """Prometheus histogram_quantile semantics on the bucket counts."""

    def _hist(self, buckets=(1.0, 2.0, 4.0)):
        return MetricsRegistry().histogram("h", buckets=buckets)

    def test_empty_histogram_is_nan(self):
        import math

        assert math.isnan(self._hist().quantile(0.5))

    def test_interpolates_within_a_bucket(self):
        hist = self._hist()
        for v in (0.5, 1.5, 1.6, 3.0):
            hist.observe(v)
        # Median target = 2 of 4; cumulative crosses in bucket (1, 2].
        assert hist.quantile(0.5) == pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        hist = self._hist()
        hist.observe(0.5)
        hist.observe(0.5)
        assert 0.0 < hist.quantile(0.5) <= 1.0

    def test_overflow_only_data_is_nan(self):
        # Every observation landed past the last finite bound: the
        # quantile is unknowable from the buckets, and clamping to the
        # last bound would fabricate a misleadingly small number.
        import math

        hist = self._hist()
        for _ in range(10):
            hist.observe(100.0)
        assert math.isnan(hist.quantile(0.99))

    def test_overflow_clamps_when_finite_data_exists(self):
        # With finite-bucket data present the tail quantile still clamps
        # to the last finite bound (standard histogram_quantile).
        hist = self._hist()
        hist.observe(0.5)
        for _ in range(10):
            hist.observe(100.0)
        assert hist.quantile(0.99) == 4.0

    def test_quantiles_are_monotone(self):
        hist = self._hist()
        for v in (0.2, 0.7, 1.3, 1.9, 2.5, 3.8):
            hist.observe(v)
        qs = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 1.0)]
        assert qs == sorted(qs)

    def test_invalid_q_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            self._hist().quantile(1.5)


class TestThreadSafety:
    def test_concurrent_counter_is_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("reghd_serving_rows_total")

        def work(_):
            for _ in range(10_000):
                counter.inc()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8)))
        assert counter.value == 80_000.0

    def test_concurrent_histogram_is_exact(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(0.5,))

        def work(worker):
            value = 0.25 if worker % 2 == 0 else 0.75
            for _ in range(5_000):
                hist.observe(value)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8)))
        counts, total, n = hist.snapshot()
        assert n == 40_000
        assert counts.tolist() == [20_000, 20_000]
        assert total == pytest.approx(0.25 * 20_000 + 0.75 * 20_000)


class TestSink:
    def test_enable_disable_cycle(self):
        assert not telemetry.enabled()
        reg = telemetry.enable()
        assert telemetry.active() is reg
        assert telemetry.enable() is reg  # idempotent
        telemetry.disable()
        assert telemetry.active() is None

    def test_set_enabled_mirrors_config_pin(self):
        metrics_mod.set_enabled(True)
        assert telemetry.enabled()
        metrics_mod.set_enabled(False)
        assert not telemetry.enabled()

    def test_env_var_truthy_values(self):
        for raw, expected in [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("", False), ("0", False), ("off", False),
        ]:
            actual = raw.strip().lower() in metrics_mod._TRUTHY
            assert actual is expected, raw

    def test_config_telemetry_field_flips_sink(self):
        MultiModelRegHD(3, RegHDConfig(dim=32, n_models=2, telemetry=True))
        assert telemetry.enabled()
        MultiModelRegHD(3, RegHDConfig(dim=32, n_models=2, telemetry=False))
        assert not telemetry.enabled()

    def test_config_telemetry_validation_and_meta(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            RegHDConfig(telemetry="yes")  # type: ignore[arg-type]
        cfg = RegHDConfig(telemetry=True)
        assert RegHDConfig.from_meta(cfg.to_meta()).telemetry is True
        assert RegHDConfig.from_meta(RegHDConfig().to_meta()).telemetry is None


class TestDisabledPath:
    def test_span_is_shared_null_object(self):
        assert telemetry.span("anything") is _NULL_SPAN
        assert telemetry.span("other") is _NULL_SPAN
        with telemetry.span("noop"):
            pass

    def test_no_metrics_recorded_when_disabled(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        reg = telemetry.enable()
        telemetry.disable()  # registry exists but sink is off
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        model.predict(X_test)
        model.compile().predict(X_test)
        assert len(reg) == 0
        assert reg.events == []

    def test_predictions_bit_identical_on_and_off(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        cfg = RegHDConfig(dim=128, n_models=4, seed=3)

        def run() -> np.ndarray:
            model = MultiModelRegHD(X_train.shape[1], cfg)
            model.partial_fit(X_train, y_train)
            return np.concatenate(
                [model.predict(X_test), model.compile().predict(X_test)]
            )

        baseline = run()
        telemetry.enable()
        instrumented = run()
        telemetry.disable()
        assert np.array_equal(baseline, instrumented)


class TestSpans:
    def test_nested_span_paths(self):
        reg = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        paths = sorted(
            dict(m.labels)["span"]
            for m in reg.metrics()
            if m.name == "reghd_span_seconds"
        )
        assert paths == ["outer", "outer/inner"]

    def test_span_records_on_exception(self):
        reg = telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        hist = reg.histogram("reghd_span_seconds", span="boom")
        _, _, n = hist.snapshot()
        assert n == 1


class TestExporters:
    def test_prometheus_golden(self):
        text = telemetry.to_prometheus(_golden_registry(), meta=GOLDEN_META)
        assert text == (FIXTURES / "golden.prom").read_text()

    def test_json_golden(self):
        payload = telemetry.to_json(_golden_registry(), meta=GOLDEN_META)
        assert payload == json.loads((FIXTURES / "golden.json").read_text())

    def test_default_meta_stamps_provenance(self):
        import repro
        from repro.runtime import RUNTIME_VERSION

        meta = telemetry.default_meta()
        assert meta["package_version"] == repro.__version__
        assert meta["runtime_version"] == RUNTIME_VERSION
        assert meta["backend"] in ("dense", "packed")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = telemetry.to_prometheus(reg, meta=GOLDEN_META)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_write_metrics_format_by_extension(self, tmp_path):
        reg = _golden_registry()
        prom = telemetry.write_metrics(reg, tmp_path / "m.prom", meta=GOLDEN_META)
        as_json = telemetry.write_metrics(reg, tmp_path / "m.json", meta=GOLDEN_META)
        assert prom.read_text().startswith("# HELP reghd_build_info")
        assert json.loads(as_json.read_text())["meta"] == GOLDEN_META

    def test_export_does_not_mutate(self):
        reg = _golden_registry()
        before = telemetry.to_json(reg, meta=GOLDEN_META)
        telemetry.to_prometheus(reg, meta=GOLDEN_META)
        assert telemetry.to_json(reg, meta=GOLDEN_META) == before


class TestResolveBackendErrors:
    """Satellite: unknown backend names fail with the registered list."""

    def test_unknown_name_lists_registered_backends(self):
        from repro.runtime import resolve_backend

        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend("vulkan")
        message = str(excinfo.value)
        assert "vulkan" in message
        assert "dense" in message and "packed" in message
        assert "explicit backend choice" in message

    def test_unknown_env_var_names_its_source(self, monkeypatch):
        from repro.runtime import resolve_backend
        from repro.runtime.base import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "quantum")
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend(None)
        assert BACKEND_ENV_VAR in str(excinfo.value)

    def test_is_a_value_error(self):
        from repro.runtime import resolve_backend

        with pytest.raises(ValueError):
            resolve_backend("bogus")


class TestInstrumentedBackend:
    def test_wrapped_only_when_enabled(self):
        from repro.runtime import resolve_backend
        from repro.runtime.instrumented import InstrumentedBackend

        bare = resolve_backend("dense")
        assert not isinstance(bare, InstrumentedBackend)
        telemetry.enable()
        wrapped = resolve_backend("dense")
        assert isinstance(wrapped, InstrumentedBackend)
        assert wrapped.name == "dense"

    def test_never_double_wraps(self):
        from repro.runtime import resolve_backend
        from repro.runtime.instrumented import InstrumentedBackend

        telemetry.enable()
        wrapped = resolve_backend("dense")
        rewrapped = InstrumentedBackend(wrapped)
        assert rewrapped.inner is wrapped.inner

    def test_kernel_counters_and_bytes(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        reg = telemetry.enable()
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        model.predict(X_test)
        calls = {
            dict(m.labels)["kernel"]: m.value
            for m in reg.metrics()
            if m.name == "reghd_kernel_calls_total"
        }
        for kernel in (
            "cluster_similarities",
            "model_dots",
            "weighted_prediction",
            "weighted_model_step",
        ):
            assert calls.get(kernel, 0) > 0, kernel
        nbytes = {
            dict(m.labels)["kernel"]: m.value
            for m in reg.metrics()
            if m.name == "reghd_kernel_bytes_total"
        }
        assert nbytes["cluster_similarities"] > 0


class TestPlanCounters:
    """Satellite: compile vs refresh are distinguishable, stats reset."""

    def _fitted(self, tiny_regression):
        X_train, y_train, _, _ = tiny_regression
        model = MultiModelRegHD(
            X_train.shape[1],
            RegHDConfig(
                dim=128,
                n_models=2,
                seed=0,
                cluster_quant=ClusterQuant.FRAMEWORK,
                predict_quant=PredictQuant.BINARY_BOTH,
            ),
        )
        model.partial_fit(X_train, y_train)
        return model, X_train, y_train

    def test_compile_vs_refresh_counters(self, tiny_regression):
        reg = telemetry.enable()
        model, X_train, y_train = self._fitted(tiny_regression)
        plan = model.compile()
        assert reg.counter("reghd_plan_compiles_total").value == 1
        assert reg.counter("reghd_plan_refreshes_total").value == 0
        model.partial_fit(X_train, y_train)
        plan.refresh(model)
        assert reg.counter("reghd_plan_compiles_total").value == 1
        assert reg.counter("reghd_plan_refreshes_total").value == 1

    def test_refresh_stats_reset(self, tiny_regression):
        model, X_train, y_train = self._fitted(tiny_regression)
        plan = model.compile()
        stats = plan.refresh_stats
        assert stats["compiles"] == 1
        assert stats["refreshes"] == 0
        model.partial_fit(X_train, y_train)
        plan.refresh(model)
        stats = plan.refresh_stats
        assert stats["refreshes"] == 1
        assert stats["rows_refreshed"] + stats["rows_reused"] > 0
        stats.reset()
        assert stats["refreshes"] == 0
        assert stats["rows_refreshed"] == 0
        assert stats["rows_reused"] == 0
        assert plan.refresh_stats["refreshes"] == 0
        # compile provenance survives a counter reset
        assert plan.refresh_stats["compiles"] == 1
        assert dict(plan.refresh_stats)  # still a plain dict for consumers


class TestTrainingAndCacheMetrics:
    def test_trainer_and_cache_metrics(self, tiny_regression):
        X_train, y_train, _, _ = tiny_regression
        reg = telemetry.enable()
        model = MultiModelRegHD(
            X_train.shape[1],
            RegHDConfig(
                dim=128,
                n_models=2,
                seed=0,
                backend="packed",
                cluster_quant=ClusterQuant.FRAMEWORK,
                predict_quant=PredictQuant.BINARY_BOTH,
            ),
        )
        model.fit(X_train, y_train)
        assert reg.counter("reghd_train_sessions_total").value == 1
        epochs = reg.counter("reghd_train_epochs_total").value
        assert epochs >= 1
        _, _, n = reg.histogram("reghd_train_epoch_seconds").snapshot()
        assert n == epochs
        assert reg.gauge("reghd_train_lr").value == model.config.lr
        assert reg.gauge("reghd_train_last_mse").value >= 0
        hits = reg.counter(
            "reghd_cache_events_total", cache="query", event="hit"
        ).value
        builds = reg.counter(
            "reghd_cache_events_total", cache="query", event="build"
        ).value
        assert builds >= 1  # begin_training built the epoch cache
        assert hits >= 1  # every batch after that served from it


class TestServingMetrics:
    def test_latency_histograms_and_row_counter(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        reg = telemetry.enable()
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        model.compile().predict(X_test)
        assert reg.counter("reghd_serving_rows_total").value == len(X_test)
        for stage in ("encode", "search", "accumulate"):
            _, _, n = reg.histogram(
                "reghd_serving_latency_seconds", stage=stage
            ).snapshot()
            assert n >= 1, stage

    def test_multithreaded_serving_counts_all_tiles(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        reg = telemetry.enable()
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        plan = model.compile()
        plan.predict(X_test, tile_rows=16, n_workers=4)
        n_tiles = -(-len(X_test) // 16)
        _, _, n = reg.histogram(
            "reghd_serving_latency_seconds", stage="encode"
        ).snapshot()
        assert n == n_tiles


class TestStreamingAndReliabilityMetrics:
    def test_rollback_metrics_events_and_history_roundtrip(self, tmp_path):
        from repro.reliability.resilient import (
            ResilientBatchReport,
            ResilientStreamingRegHD,
        )
        from repro.reliability.watchdog import Watchdog
        from repro.streaming import StreamHistory

        reg = telemetry.enable()
        rng = np.random.default_rng(0)
        stream = ResilientStreamingRegHD(
            4,
            RegHDConfig(dim=64, n_models=2, seed=0),
            guard="repair",
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            watchdog=Watchdog(baseline_batches=2, window=2, fail_factor=2.0),
            scrub_every=2,
        )
        coef = np.array([1.0, 2.0, 3.0, 4.0])
        for batch in range(6):
            X = rng.normal(size=(16, 4))
            y = X @ coef + (1e6 if batch == 4 else 0.0)
            report = stream.update(X, y)

        # the rollback report carries its provenance
        rolled = [r for r in stream.history.reports if r.rolled_back]
        assert len(rolled) == 1
        report = rolled[0]
        assert report.restored_checkpoint == stream.rollbacks[-1].checkpoint_id
        assert report.restored_checkpoint.startswith("ckpt-")
        assert report.trigger_error == pytest.approx(
            stream.rollbacks[-1].trigger_error
        )
        assert np.isfinite(report.trigger_error)

        # counters + structured events
        assert reg.counter("reghd_stream_batches_total").value == 6
        assert reg.counter("reghd_watchdog_rollbacks_total").value == 1
        assert reg.counter("reghd_checkpoint_writes_total").value >= 1
        assert reg.counter("reghd_checkpoint_restores_total").value == 1
        assert reg.counter("reghd_scrub_passes_total").value >= 1
        kinds = [e["kind"] for e in reg.events]
        assert "watchdog_rollback" in kinds
        assert "checkpoint_write" in kinds
        rollback_event = next(
            e for e in reg.events if e["kind"] == "watchdog_rollback"
        )
        assert rollback_event["checkpoint_id"] == report.restored_checkpoint
        assert rollback_event["trigger_error"] == pytest.approx(
            report.trigger_error
        )

        # satellite: the rollback report round-trips through history state
        state = stream.history.get_state()
        json.dumps(state)  # must be JSON-serialisable
        restored = StreamHistory()
        restored.set_state(state)
        assert len(restored.reports) == len(stream.history.reports)
        match = [r for r in restored.reports if r.rolled_back]
        assert len(match) == 1
        assert isinstance(match[0], ResilientBatchReport)
        assert match[0] == report

    def test_checkpoint_restores_full_history(self, tmp_path):
        from repro.reliability.resilient import ResilientStreamingRegHD

        rng = np.random.default_rng(1)
        stream = ResilientStreamingRegHD(
            3,
            RegHDConfig(dim=64, n_models=2, seed=0),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        for _ in range(4):
            X = rng.normal(size=(8, 3))
            stream.update(X, X.sum(axis=1))
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.history.n_batches == 4
        assert [r.batch for r in recovered.history.reports] == [1, 2, 3, 4]

    def test_guard_outcome_counters(self):
        from repro.reliability.guards import InputGuard

        reg = telemetry.enable()
        guard = InputGuard(2, policy="repair")
        guard.check(np.zeros((3, 2)), np.zeros(3))
        X_bad = np.array([[1.0, np.nan], [2.0, 3.0]])
        guard.check(X_bad, np.array([1.0, np.nan]))
        assert reg.counter(
            "reghd_guard_batches_total", outcome="clean"
        ).value == 1
        assert reg.counter(
            "reghd_guard_batches_total", outcome="repaired"
        ).value == 1
        assert reg.counter("reghd_guard_values_repaired_total").value == 1
        assert reg.counter("reghd_guard_rows_dropped_total").value == 1
        event = next(e for e in reg.events if e["kind"] == "guard_batch")
        assert "non-finite" in event["issues"]

    def test_drift_counter(self):
        from repro.streaming import PageHinkley, StreamingRegHD

        reg = telemetry.enable()
        rng = np.random.default_rng(2)
        stream = StreamingRegHD(
            3,
            RegHDConfig(dim=64, n_models=2, seed=0),
            detector=PageHinkley(delta=0.0, threshold=0.5),
        )
        X = rng.normal(size=(16, 3))
        stream.update(X, X.sum(axis=1))
        for _ in range(5):
            X = rng.normal(size=(16, 3))
            stream.update(X, X.sum(axis=1) + rng.normal(size=16) * 50)
        assert reg.counter("reghd_stream_drift_total").value >= 1
        assert reg.gauge("reghd_stream_prequential_mse").value > 0


class TestStreamHistoryState:
    def test_plain_reports_roundtrip(self):
        from repro.streaming import StreamBatchReport, StreamHistory

        history = StreamHistory(max_reports=4)
        for i in range(6):
            history.reports.append(
                StreamBatchReport(
                    batch=i + 1,
                    prequential_mse=None if i == 0 else float(i),
                    drift_detected=(i == 3),
                )
            )
        state = history.get_state()
        json.dumps(state)
        restored = StreamHistory()
        restored.set_state(state)
        assert restored.max_reports == 4
        assert list(restored.reports) == list(history.reports)
        assert restored.drift_events == history.drift_events
