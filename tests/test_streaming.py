"""Tests for streaming RegHD and the Page-Hinkley detector."""

import numpy as np
import pytest

from repro import RegHDConfig
from repro.exceptions import ConfigurationError
from repro.streaming import PageHinkley, StreamingRegHD


class TestPageHinkley:
    def test_stable_stream_no_drift(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(0)
        fired = [detector.update(abs(e)) for e in 0.1 * rng.normal(size=500)]
        assert not any(fired)

    def test_error_jump_detected(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            detector.update(abs(0.1 * rng.normal()))
        fired_at = None
        for i in range(100):
            if detector.update(abs(2.0 + 0.1 * rng.normal())):
                fired_at = i
                break
        assert fired_at is not None
        assert fired_at < 50  # detects within a few dozen samples

    def test_resets_after_detection(self):
        detector = PageHinkley(threshold=0.5, delta=0.0)
        for _ in range(50):
            detector.update(0.0)
        assert detector.update(10.0)  # huge spike fires immediately-ish
        # After the automatic reset the internal state is clean.
        assert detector._count == 0

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigurationError):
            PageHinkley().update(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": -0.1}, {"threshold": 0.0}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            PageHinkley(**kwargs)


def _stream_batches(concept: int, n_batches: int, batch: int, seed: int):
    """Yield (X, y) batches; the target map flips with ``concept``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        X = rng.normal(size=(batch, 4))
        if concept == 0:
            y = np.sin(2 * X[:, 0]) + X[:, 1]
        else:
            y = -np.sin(2 * X[:, 0]) - X[:, 1] + 2.0
        yield X, y


CONFIG = RegHDConfig(dim=512, n_models=4, seed=0)


class TestStreamingRegHD:
    def test_first_batch_has_no_prequential(self):
        stream = StreamingRegHD(4, CONFIG)
        report = stream.update(np.zeros((8, 4)), np.zeros(8))
        assert report.prequential_mse is None

    def test_prequential_error_decreases_on_stationary_stream(self):
        stream = StreamingRegHD(4, CONFIG, forgetting=1.0)
        for X, y in _stream_batches(0, 30, 64, seed=0):
            stream.update(X, y)
        curve = stream.history.mse_curve()
        assert np.nanmean(curve[-5:]) < np.nanmean(curve[1:6])

    def test_drift_detector_fires_on_concept_change(self):
        stream = StreamingRegHD(
            4, CONFIG, detector=PageHinkley(threshold=1.0), forgetting=1.0
        )
        for X, y in _stream_batches(0, 25, 64, seed=0):
            stream.update(X, y)
        for X, y in _stream_batches(1, 25, 64, seed=1):
            stream.update(X, y)
        events = stream.history.drift_events
        assert events, "drift should have been detected"
        assert min(events) > 25  # not during the first concept

    def test_adaptation_recovers_faster_with_drift_handling(self):
        """After an abrupt concept flip the drift-aware learner must get
        back to low error faster than the frozen-memory one."""

        def final_error(adaptive: bool) -> float:
            stream = StreamingRegHD(
                4,
                CONFIG,
                detector=PageHinkley(threshold=1.0) if adaptive else None,
                forgetting=0.99 if adaptive else 1.0,
                drift_shrink=0.0,
            )
            for X, y in _stream_batches(0, 25, 64, seed=0):
                stream.update(X, y)
            for X, y in _stream_batches(1, 15, 64, seed=1):
                stream.update(X, y)
            return float(np.nanmean(stream.history.mse_curve()[-5:]))

        assert final_error(adaptive=True) < final_error(adaptive=False)

    def test_forgetting_bounds_model_norm(self):
        heavy = StreamingRegHD(4, CONFIG, forgetting=0.9)
        frozen = StreamingRegHD(4, CONFIG, forgetting=1.0)
        for X, y in _stream_batches(0, 20, 64, seed=0):
            heavy.update(X, y)
            frozen.update(X, y)
        assert np.linalg.norm(heavy.model.models.integer) < np.linalg.norm(
            frozen.model.models.integer
        )

    def test_history_bookkeeping(self):
        stream = StreamingRegHD(4, CONFIG)
        for X, y in _stream_batches(0, 5, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 5
        assert len(stream.history.mse_curve()) == 5

    @pytest.mark.parametrize(
        "kwargs", [{"forgetting": 0.0}, {"forgetting": 1.5}, {"drift_shrink": -0.1}]
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamingRegHD(4, CONFIG, **kwargs)

    def test_predict_delegates(self):
        stream = StreamingRegHD(4, CONFIG)
        X = np.random.default_rng(0).normal(size=(16, 4))
        stream.update(X, X[:, 0])
        assert stream.predict(X).shape == (16,)


class TestPageHinkleyEdgeCases:
    def test_zero_error_stream_never_fires(self):
        detector = PageHinkley(threshold=1.0, delta=0.0)
        assert not any(detector.update(0.0) for _ in range(1000))
        assert detector._mean == 0.0

    def test_zero_then_spike_fires(self):
        detector = PageHinkley(threshold=0.5, delta=0.0)
        for _ in range(100):
            detector.update(0.0)
        fired = [detector.update(1.0) for _ in range(5)]
        assert any(fired)

    def test_detection_reset_redetection_cycle(self):
        """The detector must stay usable across repeated drifts."""
        detector = PageHinkley(threshold=1.0, delta=0.01)
        rng = np.random.default_rng(0)
        detections = 0
        for _cycle in range(3):
            # Calm regime: small errors re-establish the running mean.
            for _ in range(150):
                detector.update(abs(0.05 * rng.normal()))
            # Shifted regime: errors jump; the detector must fire and,
            # having auto-reset, fire again on the next cycle.
            for _ in range(100):
                if detector.update(abs(2.0 + 0.1 * rng.normal())):
                    detections += 1
                    break
        assert detections == 3

    def test_state_roundtrip_is_bit_exact(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            detector.update(abs(rng.normal()))
        clone = PageHinkley(threshold=2.0)
        clone.set_state(detector.get_state())
        tail = [abs(e) for e in rng.normal(size=100)]
        assert [detector.update(e) for e in tail] == [
            clone.update(e) for e in tail
        ]


class TestDriftShrinkAdaptation:
    def test_drift_shrink_reduces_post_drift_error(self):
        """On a synthetic concept shift, the shrink-on-drift path must
        reach lower post-drift prequential error than a learner that
        merely averages the two concepts (no detector, no forgetting)."""

        def post_drift_error(detector: PageHinkley | None) -> float:
            stream = StreamingRegHD(
                4, CONFIG, detector=detector,
                forgetting=1.0, drift_shrink=0.1,
            )
            for X, y in _stream_batches(0, 25, 64, seed=0):
                stream.update(X, y)
            for X, y in _stream_batches(1, 20, 64, seed=1):
                stream.update(X, y)
            return float(np.nanmean(stream.history.mse_curve()[-8:]))

        with_shrink = post_drift_error(PageHinkley(threshold=1.0))
        without = post_drift_error(None)
        assert with_shrink < without


class TestStreamHistoryBounds:
    def test_unbounded_by_default(self):
        stream = StreamingRegHD(4, CONFIG)
        for X, y in _stream_batches(0, 30, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 30

    def test_max_history_bounds_retention(self):
        stream = StreamingRegHD(4, CONFIG, max_history=10)
        for X, y in _stream_batches(0, 30, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 10
        assert len(stream.history.mse_curve()) == 10
        # The retained window is the newest 10 batches.
        assert [r.batch for r in stream.history.reports] == list(
            range(21, 31)
        )

    def test_drift_events_over_retained_window(self):
        from repro.streaming import StreamBatchReport, StreamHistory

        history = StreamHistory(max_reports=5)
        for batch in range(1, 11):
            history.reports.append(
                StreamBatchReport(
                    batch=batch,
                    prequential_mse=1.0,
                    drift_detected=(batch % 4 == 0),
                )
            )
        # Batches 6..10 retained; drift at 4 has been evicted.
        assert history.drift_events == [8]

    def test_invalid_max_reports(self):
        from repro.streaming import StreamHistory

        with pytest.raises(ConfigurationError):
            StreamHistory(max_reports=0)
        with pytest.raises(ConfigurationError):
            StreamingRegHD(4, CONFIG, max_history=-1)


def _count_encodes(model, monkeypatch) -> list:
    """Record the row count of every ``encode_batch`` call on ``model``."""
    calls: list[int] = []
    encode_batch = model.encoder.encode_batch

    def counting(X):
        calls.append(len(X))
        return encode_batch(X)

    monkeypatch.setattr(model.encoder, "encode_batch", counting)
    return calls


def _resilient(tmp_path):
    from repro.reliability.resilient import ResilientStreamingRegHD
    from repro.reliability.watchdog import Watchdog
    from repro.robust.conformal import AdaptiveConformal

    return ResilientStreamingRegHD(
        4,
        CONFIG,
        guard="repair",
        checkpoint_dir=tmp_path,
        checkpoint_every=5,
        watchdog=Watchdog(baseline_batches=10, window=3, fail_factor=4.0),
        detector=PageHinkley(threshold=1.0),
        conformal=AdaptiveConformal(alpha=0.1, window=64),
        forgetting=0.99,
    )


def _faulty_batches():
    """A concept flip at batch 20, a NaN every seventh batch (repaired by
    the guard), then grossly poisoned targets (watchdog rollback)."""
    rng = np.random.default_rng(11)
    for i in range(40):
        X = rng.normal(size=(32, 4))
        y = np.sin(2 * X[:, 0]) + X[:, 1]
        if i >= 20:
            y = 2.0 - y
        if i % 7 == 3:
            X[0, 1] = np.nan
        yield X, y
    for _ in range(3):
        yield rng.normal(size=(32, 4)), 1e4 * np.ones(32)


class TestEncodeOnce:
    def test_update_encodes_each_batch_once(self, monkeypatch):
        stream = StreamingRegHD(4, CONFIG)
        calls = _count_encodes(stream.model, monkeypatch)
        for n, (X, y) in enumerate(_stream_batches(0, 6, 16, seed=0), 1):
            stream.update(X, y)
            assert calls == [16] * n

    def test_matches_the_two_encode_loop_bit_for_bit(
        self, tmp_path, monkeypatch
    ):
        """Guard repair, forgetting, a drift and a watchdog rollback: the
        encode-once stream must match a twin whose ``model.encode`` hands
        the raw rows back, so its update runs ``model.predict(X)`` and
        then ``model.partial_fit(X, y)``, each encoding ``X`` itself."""
        stream = _resilient(tmp_path / "once")
        twin = _resilient(tmp_path / "twice")
        monkeypatch.setattr(twin.model, "encode", lambda X: X)
        once = _count_encodes(stream.model, monkeypatch)
        twice = _count_encodes(twin.model, monkeypatch)
        for X, y in _faulty_batches():
            stream.update(X, y)
            twin.update(X, y)

        assert len(twice) == 2 * len(once) - 1  # the first batch predicts nothing
        reports = list(stream.history.reports)
        assert any(r.drift_detected for r in reports)
        assert any(r.rolled_back for r in reports)
        assert any(r.guard is not None and not r.guard.clean for r in reports)
        np.testing.assert_array_equal(
            stream.history.mse_curve(), twin.history.mse_curve()
        )
        assert [r.drift_detected for r in reports] == [
            r.drift_detected for r in twin.history.reports
        ]
        ours, theirs = stream.conformal.get_state(), twin.conformal.get_state()
        np.testing.assert_array_equal(ours.pop("residuals"), theirs.pop("residuals"))
        assert ours == theirs
        for name in ("clusters", "models"):
            np.testing.assert_array_equal(
                getattr(stream.model, name).integer,
                getattr(twin.model, name).integer,
            )
