"""The benchmark's workloads: inputs from a seed, set-up, timed phase, checks.

Each workload drives the system only through public entry points, in a
closed loop with one client.  Inputs are ``regime`` mixture rows from the
dataset registry, derived from the ``--seed`` argument alone; the model
seeds stay fixed, so a seed changes the data and nothing else.

A workload is a small object with four methods the runner calls:

* ``inputs(seed)`` builds every array the run needs (not timed);
* ``setup(inputs)`` builds the system up to its first timed call (timed
  as ``setup_s``);
* ``timed(state, inputs, meter)`` runs one repetition of the timed phase
  and returns a :class:`Rep` with its samples and quality figures;
* ``roles(state)`` names the live objects whose classes the traced run
  wraps.

Sizes are chosen so every latency percentile has enough samples: each
repetition issues at least 1000 timed calls, so a p99 has at least ten
samples beyond it.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import MultiModelRegHD, RegHDConfig
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.datasets import StandardScaler, load_dataset
from repro.distributed import ShardTrainer, train_sharded
from repro.noise.injection import corrupt_model
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.reliability.watchdog import Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.streaming import PageHinkley

N_FEATURES = 16
#: the forward kernels every predict runs
_FORWARD = (
    "runtime.cluster_similarities",
    "runtime.confidences",
    "runtime.model_dots",
    "runtime.weighted_prediction",
)
#: the training kernels every ``fit_epoch`` runs
_TRAINING = ("runtime.weighted_model_step", "runtime.segment_delta")
#: the engine's documented plan-vs-model float-rounding tolerance
PLAN_RTOL, PLAN_ATOL = 1e-9, 1e-10
#: nominal conformal coverage of the stream's calibrator
NOMINAL_COVERAGE = 0.9


class Meter:
    """The timed phase's clock, with reference bursts between operations.

    This host's CPU speed drifts by about a fifth from one minute to the
    next (a fixed ``np.sin`` loop measured 3.7 to 5.2 ms), which no run
    length averages away.  So every ``interval`` seconds :meth:`tick`
    times one fixed burst of ``np.sin`` work, the same kind of work the
    encoders do, and the runner scales the pass's times by the burst's
    median.  Burst time is kept out of every measured interval.
    """

    def __init__(self, interval: float = 0.05):
        self.clock = time.perf_counter
        self.interval = interval
        self.bursts: list[float] = []
        self.paused = 0.0
        self._next = 0.0
        rng = np.random.default_rng(0)
        self._ref_in = rng.normal(size=(16, 4096))
        self._ref_out = np.empty_like(self._ref_in)

    def burst(self) -> None:
        """Time one reference burst now."""
        t0 = self.clock()
        np.sin(self._ref_in, out=self._ref_out)
        t1 = self.clock()
        self.bursts.append(t1 - t0)
        self.paused += t1 - t0
        self._next = t1 + self.interval

    def tick(self) -> None:
        """Between operations: run a burst if one is due."""
        if self.clock() >= self._next:
            self.burst()

    def mark(self) -> tuple[float, float]:
        return self.clock(), self.paused

    def since(self, mark: tuple[float, float]) -> float:
        """Seconds since ``mark``, less the bursts run in between."""
        return self.clock() - mark[0] - (self.paused - mark[1])


@dataclass
class Rep:
    """What one repetition of a timed phase measured."""

    #: rows the throughput metric counts (row-epochs for training)
    rows: int
    #: wall seconds the throughput metric divides by
    rows_wall: float
    latency: list[float] = field(default_factory=list)
    read_latency: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: quality figures; the traced run must reproduce them bit for bit
    quality: dict = field(default_factory=dict)
    #: counts the per-layer report carries (drift events, epochs, ...)
    counts: dict = field(default_factory=dict)
    #: descriptive extras for the printed record (MSE trail, ...)
    notes: dict = field(default_factory=dict)


def _child_seed(seed: int, *key: int) -> int:
    """A deterministic child seed of ``seed`` for one input stream."""
    seq = np.random.SeedSequence([int(seed), *key])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def _regime_rows(seed: int, n: int, fit_rows: int):
    """``n`` standardised regime-mixture rows; scaling fitted on the head."""
    data = load_dataset(
        "regime", seed=_child_seed(seed, 1), n_samples=n, n_features=N_FEATURES
    )
    scaler = StandardScaler().fit(data.X[:fit_rows])
    return scaler.transform(data.X), np.asarray(data.y, dtype=np.float64)


def _rmse(pred, y) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - np.asarray(y)) ** 2)))


def _heldout_requests(model, X, y, meter: Meter, rep: Rep) -> float:
    """Held-out predict as fixed-size requests; returns the held-out RMSE.

    ``X`` is ``(requests, rows, features)``; every call is one latency
    sample of the uncompiled ``MultiModelRegHD.predict`` path.
    """
    preds = _requests(model.predict, X, meter, rep)
    rep.read_latency = rep.latency
    return _rmse(preds, y)


def _requests(predict, X, meter: Meter, rep: Rep):
    """Call ``predict`` on every ``X[i]``; a latency sample per call.

    Returns the ``(requests, rows)`` predictions.  An exception or a
    non-finite prediction counts as a failed request (its row stays NaN);
    finiteness is checked once after the loop, to keep the client's own
    time per call small.
    """
    clock = meter.clock
    preds = np.full(X.shape[:2], np.nan)
    for i in range(len(X)):
        meter.tick()
        t0 = clock()
        try:
            out = predict(X[i])
        except Exception as exc:  # counted below, and the run goes on
            rep.notes.setdefault("errors", []).append(repr(exc))
            continue
        finally:
            rep.latency.append(clock() - t0)
        preds[i] = out
    rep.attempted += len(X)
    rep.failed += int(np.sum(~np.isfinite(preds).all(axis=1)))
    return preds


def _heldout_split(seed: int, train_rows: int, requests: int, rows: int):
    """Training rows, then held-out rows shaped as ``requests`` requests."""
    X, y = _regime_rows(seed, train_rows + requests * rows, train_rows)
    return {
        "X": X[:train_rows],
        "y": y[:train_rows],
        "X_h": X[train_rows:].reshape(requests, rows, N_FEATURES),
        "y_h": y[train_rows:].reshape(requests, rows),
    }


class Serve:
    """Read-only packed serving through ``CompiledPlan.predict``."""

    name = "serve"
    stateful = False
    #: layers that must do work in the timed phase / in set-up
    expect = ("engine.plan_predict", "runtime.encode_pack", *_FORWARD)
    expect_setup = ("core.partial_fit", "engine.compile")

    def __init__(self, quick: bool):
        self.dim = 512 if quick else 4096
        self.fit_rows, self.fit_batch = (256, 64) if quick else (1024, 128)
        self.batches = 1000 if quick else 1024
        self.batch_rows = 8 if quick else 32
        #: leading query batches re-checked against the uncompiled model
        self.check_batches = 8

    def inputs(self, seed: int) -> dict:
        return _heldout_split(
            seed, self.fit_rows, self.batches, self.batch_rows
        )

    def setup(self, inp: dict) -> dict:
        config = RegHDConfig(
            dim=self.dim,
            n_models=8,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        )
        model = MultiModelRegHD(N_FEATURES, config)
        for lo in range(0, self.fit_rows, self.fit_batch):
            hi = lo + self.fit_batch
            model.partial_fit(inp["X"][lo:hi], inp["y"][lo:hi])
        return {"model": model, "plan": model.compile()}

    def roles(self, state: dict) -> dict:
        plan = state["plan"]
        roles = {
            "model": state["model"],
            "encoder": state["model"].encoder,
            "runtime": state["model"].runtime,
            "plan": plan,
            "backend": plan.backend,
        }
        if plan.fused_encode:
            roles["fused_backend"] = plan.backend
        return roles

    def backend(self, state: dict) -> str:
        return state["plan"].backend_name

    def timed(self, state: dict, inp: dict, meter: Meter) -> Rep:
        Q = inp["X_h"]
        rep = Rep(rows=Q.shape[0] * Q.shape[1], rows_wall=0.0)
        start = meter.mark()
        preds = _requests(state["plan"].predict, Q, meter, rep)
        rep.rows_wall = meter.since(start)
        rep.read_latency = rep.latency
        rep.quality["rmse"] = _rmse(preds, inp["y_h"])
        rep.notes["preds"] = preds
        return rep

    def check(self, state: dict, inp: dict, rep: Rep) -> None:
        """Compare leading plan outputs with the uncompiled model."""
        preds = rep.notes.pop("preds")
        for i in range(self.check_batches):
            rep.attempted += 1
            ref = state["model"].predict(inp["X_h"][i])
            if not np.allclose(preds[i], ref, rtol=PLAN_RTOL, atol=PLAN_ATOL):
                rep.failed += 1
                rep.notes.setdefault("errors", []).append(
                    f"plan/model mismatch in query batch {i}"
                )


class Stream:
    """Resilient prequential stream with a read after every update."""

    name = "stream"
    stateful = True
    expect = (
        "streaming.update",
        "streaming.predict",
        "core.predict",
        "core.partial_fit",
        "core.fit_epoch",
        "core.predict_encoded",
        "encoding.encode_batch",
        *_FORWARD,
        *_TRAINING,
        "engine.plan_predict",
        "engine.refresh",
        "reliability.guard",
        "reliability.watchdog",
        "reliability.checkpoint",
        "reliability.scrub",
        "robust.conformal",
    )
    expect_setup = ("engine.compile",)

    def __init__(self, quick: bool, work_dir: str):
        self.dim = 256 if quick else 2048
        self.batches = 1001  # the first is absorbed during set-up
        self.batch_rows = 8 if quick else 16
        self.read_rows = 4 if quick else 8
        self.flip_every, self.flip_rate, self.flip_from = 5, 0.015, 0.2
        # Checkpoint cost grows with the stream's history, so checkpoints
        # set the update tail.  One in 40 batches (2.5%) puts the p99
        # inside that population instead of on its edge, where it would
        # swing with noise.
        self.checkpoint_every = 40
        self.work_dir = work_dir

    def inputs(self, seed: int) -> dict:
        n, b, r = self.batches, self.batch_rows, self.read_rows
        X, y = _regime_rows(seed, n * (b + r), n * b)
        Xb = X[: n * b].reshape(n, b, N_FEATURES)
        yb = y[: n * b].reshape(n, b).copy()
        # One abrupt concept change midway: the target mapping inverts.
        yb[n // 2 :] = 2.0 - yb[n // 2 :]
        flips = {
            i: _child_seed(seed, 2, i)
            for i in range(int(self.flip_from * n), n)
            if i % self.flip_every == 0
        }
        return {
            "X": Xb,
            "y": yb,
            "R": X[n * b :].reshape(n, r, N_FEATURES),
            "flips": flips,
        }

    def setup(self, inp: dict) -> dict:
        n = self.batches
        tmp = tempfile.TemporaryDirectory(dir=self.work_dir)
        stream = ResilientStreamingRegHD(
            N_FEATURES,
            RegHDConfig(dim=self.dim, n_models=4),
            guard="repair",
            checkpoint_dir=tmp.name,
            checkpoint_every=self.checkpoint_every,
            watchdog=Watchdog(
                baseline_batches=max(3, n // 6),
                window=4,
                warn_factor=3.0,
                fail_factor=8.0,
            ),
            scrub_every=self.flip_every,
            detector=PageHinkley(delta=0.005, threshold=3.0),
            conformal=AdaptiveConformal(
                alpha=1.0 - NOMINAL_COVERAGE,
                window=max(32, min(512, n * 8)),
                gamma=0.005,
            ),
            forgetting=0.997,
        )
        stream.update(inp["X"][0], inp["y"][0])
        stream.predict(inp["R"][0])
        return {"stream": stream, "tmp": tmp}

    def close(self, state: dict) -> None:
        state["tmp"].cleanup()

    def roles(self, state: dict) -> dict:
        stream = state["stream"]
        plan = stream.model.compile()
        return {
            "stream": stream,
            "model": stream.model,
            "encoder": stream.model.encoder,
            "runtime": stream.model.runtime,
            "guard": stream.guard,
            "watchdog": stream.watchdog,
            "scrubber": stream.scrubber,
            "conformal": stream.conformal,
            # A plan compiled from the live model: the class and backend
            # the stream's own read path serves through.
            "plan": plan,
            "backend": plan.backend,
        }

    def backend(self, state: dict) -> str:
        return state["stream"].model.runtime.name

    def timed(self, state: dict, inp: dict, meter: Meter) -> Rep:
        stream, clock = state["stream"], meter.clock
        X, y, R, flips = inp["X"], inp["y"], inp["R"], inp["flips"]
        rep = Rep(rows=(len(X) - 1) * X.shape[1], rows_wall=0.0)
        scored: list[float] = []
        start = meter.mark()
        for i in range(1, len(X)):
            meter.tick()
            if i in flips:
                # Out-of-band memory fault, as the replay engine injects
                # it; the next update's scheduled scrub repairs it.
                corrupt_model(stream.model, "bit_flip", self.flip_rate, flips[i])
                stream.invalidate_plan()
            rep.attempted += 2
            t0 = clock()
            try:
                report = stream.update(X[i], y[i])
                rep.latency.append(clock() - t0)
                t0 = clock()
                out = stream.predict(R[i])
                rep.read_latency.append(clock() - t0)
            except Exception as exc:  # counted, and the run goes on
                rep.failed += 1
                rep.notes.setdefault("errors", []).append(repr(exc))
                continue
            mse = report.prequential_mse
            if mse is not None:
                if not math.isfinite(mse):
                    rep.failed += 1
                scored.append(mse)
            if not np.all(np.isfinite(out)):
                rep.failed += 1
        rep.rows_wall = meter.since(start)
        tail = scored[-max(1, len(scored) // 4) :]
        coverage = stream.conformal.coverage
        rep.quality["rmse"] = float(np.sqrt(np.mean(tail)))
        rep.quality["coverage_gap"] = abs(coverage - NOMINAL_COVERAGE)
        rep.counts["drift_events"] = len(stream.history.drift_events)
        rep.counts["rollbacks"] = len(stream.rollbacks)
        rep.notes["coverage"] = coverage
        return rep


class Train:
    """Offline Sec.-3 quantised ``fit``, then held-out predict requests."""

    name = "train"
    stateful = True
    expect = (
        "core.fit",
        "core.fit_epoch",
        "core.predict_encoded",
        "core.predict",
        "encoding.encode_batch",
        *_FORWARD,
        *_TRAINING,
    )
    expect_setup = ()

    def __init__(self, quick: bool):
        self.dim = 512 if quick else 4096
        self.train_rows = 400 if quick else 3000
        self.requests, self.request_rows = 1000, 2 if quick else 8

    def inputs(self, seed: int) -> dict:
        return _heldout_split(
            seed, self.train_rows, self.requests, self.request_rows
        )

    def setup(self, inp: dict) -> dict:
        config = RegHDConfig(
            dim=self.dim,
            n_models=8,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        )
        return {"model": MultiModelRegHD(N_FEATURES, config)}

    def roles(self, state: dict) -> dict:
        model = state["model"]
        return {
            "model": model,
            "encoder": model.encoder,
            "runtime": model.runtime,
        }

    def backend(self, state: dict) -> str:
        return state["model"].runtime.name

    def timed(self, state: dict, inp: dict, meter: Meter) -> Rep:
        model = state["model"]
        rep = Rep(rows=0, rows_wall=0.0, attempted=1)
        start = meter.mark()
        model.fit(inp["X"], inp["y"])
        rep.rows_wall = meter.since(start)
        history = model.history_
        rep.rows = len(inp["y"]) * history.n_epochs
        rep.quality["rmse"] = _heldout_requests(
            model, inp["X_h"], inp["y_h"], meter, rep
        )
        trail = history.train_curve()
        rep.quality["epochs"] = history.n_epochs
        rep.counts.update(
            epochs=history.n_epochs,
            converged=int(history.converged),
            diverged=int(history.diverged),
            train_mse_last_over_min=float(trail[-1] / trail.min()),
        )
        rep.notes["train_mse_trail"] = [float(v) for v in trail]
        return rep


class TrainSharded:
    """Process-pool shard training: map, mean-merge, apply; then held-out."""

    name = "train_sharded"
    stateful = True
    expect = (
        "distributed.map",
        "distributed.reduce",
        "distributed.apply",
        "core.predict",
        "core.predict_encoded",
        "encoding.encode_batch",
        *_FORWARD,
    )
    expect_setup = ()

    def __init__(self, quick: bool):
        self.dim = 256 if quick else 2048
        self.train_rows = 400 if quick else 4000
        self.requests, self.request_rows = 1000, 2 if quick else 8
        self.shards, self.workers = 2, 2
        self.rounds = 2 if quick else 3

    def inputs(self, seed: int) -> dict:
        return _heldout_split(
            seed, self.train_rows, self.requests, self.request_rows
        )

    def setup(self, inp: dict) -> dict:
        config = RegHDConfig(dim=self.dim, n_models=4)
        return {"model": MultiModelRegHD(N_FEATURES, config)}

    def roles(self, state: dict) -> dict:
        model = state["model"]
        return {
            "model": model,
            "encoder": model.encoder,
            "runtime": model.runtime,
            "shard_trainer": ShardTrainer,
        }

    def backend(self, state: dict) -> str:
        return state["model"].runtime.name

    def timed(self, state: dict, inp: dict, meter: Meter) -> Rep:
        model = state["model"]
        rep = Rep(rows=0, rows_wall=0.0, attempted=1)
        start = meter.mark()
        reports = train_sharded(
            model,
            inp["X"],
            inp["y"],
            n_shards=self.shards,
            n_workers=self.workers,
            rounds=self.rounds,
        )
        rep.rows_wall = meter.since(start)
        rep.rows = len(inp["y"]) * len(reports)
        rep.counts["delta_bytes"] = sum(r.shard_bytes for r in reports)
        rep.quality["rmse"] = _heldout_requests(
            model, inp["X_h"], inp["y_h"], meter, rep
        )
        return rep


def make(name: str, *, quick: bool, work_dir: str):
    """The workload object for ``name``."""
    if name == "serve":
        return Serve(quick)
    if name == "stream":
        return Stream(quick, work_dir)
    if name == "train":
        return Train(quick)
    if name == "train_sharded":
        return TrainSharded(quick)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("serve", "stream", "train", "train_sharded")
