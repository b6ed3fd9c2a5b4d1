"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The program runs from ``src/`` of the same checkout; nothing is
installed.  With ``--trace 0`` the run is untraced and the last stdout
line carries the end-to-end metrics.  With ``--trace 1`` an untraced
pass runs first, then a traced pass of exactly the same work, and the
last line carries the per-layer metrics.  The lines before it print
every metric by name with its unit and sample count, the environment
stamp, and any failure.  ``--quick`` shrinks the model and data for the
benchmark's own tests; call counts stay the same.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for checkpoints, inside the checkout and ignored by git
WORK_DIR = ROOT / ".perfbench_work"

#: set-ups measured before the first timed repetition: at least
#: SETUP_REPS, and more while they add up to under SETUP_MIN_S, so a
#: millisecond set-up still gets a steady median (setup_s is the median
#: of these and of any later set-up)
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 0.25, 64
#: largest share of the traced timed wall that no wrapped layer may cover
MAX_OTHER_SHARE = 0.05
#: every reported time is scaled to a host on which the reference burst
#: (see workloads.Meter) takes exactly this long
REFERENCE_MS = 1.0

#: the bounded end-to-end metrics of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("read_latency_p50_ms", "ms"),
    ("read_latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: printed beside them, unbounded: on the host the benchmark was built
#: on, about 1% of calls are hit by a host stall, so a p99 (and a p95 on
#: `stream`) swings with the number of stalls in a run
PRINTED_ONLY = (("latency_p99_ms", "ms"), ("read_latency_p99_ms", "ms"))


@dataclass
class Pass:
    """One pass over a workload: its set-ups and timed repetitions."""

    setup_s: list = field(default_factory=list)
    reps: list = field(default_factory=list)
    timed_s: float = 0.0
    state: dict | None = None
    #: median reference burst of the timed phase / of the set-ups, in ms
    burst_ms: float = 0.0
    setup_burst_ms: float = 0.0

    @property
    def scale(self) -> float:
        """Factor taking timed-phase seconds to reference-host seconds."""
        return REFERENCE_MS / self.burst_ms

    @property
    def setup_scale(self) -> float:
        """The same factor for the set-ups, from their own bursts."""
        return REFERENCE_MS / self.setup_burst_ms


def _close(wl, state) -> None:
    close = getattr(wl, "close", None)
    if close is not None and state is not None:
        close(state)


def run_pass(wl, inp, *, seconds=None, reps=None, tracer=None) -> Pass:
    """Set up, then repeat the timed phase for ``seconds`` or ``reps`` times.

    A stateful workload gets a fresh set-up before every repetition
    after the first; those set-ups are timed too.
    """
    from workloads import Meter

    clock = time.perf_counter
    meter, setup_meter = Meter(), Meter()
    out = Pass()

    def setup():
        if tracer is not None:
            tracer.phase = "setup"
        _close(wl, out.state)
        setup_meter.burst()
        t0 = clock()
        out.state = wl.setup(inp)
        out.setup_s.append(clock() - t0)

    while len(out.setup_s) < SETUP_REPS or (
        sum(out.setup_s) < SETUP_MIN_S and len(out.setup_s) < SETUP_MAX_REPS
    ):
        setup()
    while True:
        if tracer is not None:
            tracer.phase = "timed"
        meter.burst()
        mark = meter.mark()
        rep = wl.timed(out.state, inp, meter)
        out.timed_s += meter.since(mark)
        if tracer is not None:
            tracer.phase = "check"
        check = getattr(wl, "check", None)
        if check is not None:
            check(out.state, inp, rep)
        out.reps.append(rep)
        if (reps is not None and len(out.reps) >= reps) or (
            reps is None and out.timed_s >= seconds
        ):
            break
        if wl.stateful:
            setup()
    if tracer is not None:
        tracer.phase = "after"
    out.burst_ms = statistics.median(meter.bursts) * 1e3
    out.setup_burst_ms = statistics.median(setup_meter.bursts) * 1e3
    return out


def _percentile_ms(samples: list, q: float) -> float:
    """Exact percentile of raw samples (linear interpolation), in ms."""
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3


def end_to_end(run: Pass, scaled: bool) -> dict:
    """Metric name -> (value, unit, sample count) for an untraced pass.

    ``scaled`` times are scaled to the reference host; otherwise raw.
    """
    scale = run.scale if scaled else 1.0
    setup_scale = run.setup_scale if scaled else 1.0
    latency = [s * scale for rep in run.reps for s in rep.latency]
    reads = [s * scale for rep in run.reps for s in rep.read_latency]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "setup_s": (
            statistics.median(run.setup_s) * setup_scale,
            len(run.setup_s),
        ),
        "rows_per_s": (
            sum(r.rows for r in run.reps)
            / (sum(r.rows_wall for r in run.reps) * scale),
            len(run.reps),
        ),
        "latency_p50_ms": (_percentile_ms(latency, 50), len(latency)),
        "latency_p90_ms": (_percentile_ms(latency, 90), len(latency)),
        "latency_p99_ms": (_percentile_ms(latency, 99), len(latency)),
        "read_latency_p50_ms": (_percentile_ms(reads, 50), len(reads)),
        "read_latency_p90_ms": (_percentile_ms(reads, 90), len(reads)),
        "read_latency_p99_ms": (_percentile_ms(reads, 99), len(reads)),
        # ru_maxrss is KiB on Linux; the larger of this process and its
        # largest child (the shard workers).
        "peak_rss_mb": (usage / 1024.0, 1),
    }
    return {
        name: (*values[name], unit) for name, unit in END_TO_END + PRINTED_ONLY
    }


def per_layer(wl, untraced: Pass, traced: Pass, tracer) -> dict:
    """Metric name -> (value, unit, sample count) for the traced pass.

    Times and calls are per repetition of the timed phase, so runs that
    fit a different number of repetitions into ``--seconds`` compare;
    times are scaled to the reference host like the end-to-end ones.
    """
    from layers import PER_LAYER, require_calls

    self_ms, calls, covered_ms = tracer.reduce("timed")
    require_calls(calls, wl.expect, f"the timed phase of {wl.name}")
    setup_calls = tracer.reduce("setup")[1]
    require_calls(setup_calls, wl.expect_setup, f"the set-up of {wl.name}")
    n = len(traced.reps)
    scale = traced.scale
    first = traced.reps[0]
    values: dict[str, float] = {}
    for key, ms in self_ms.items():
        values[f"{key}.self_ms"] = ms * scale / n
    values["encoding.encode_batch.calls"] = (
        calls.get("encoding.encode_batch", 0) / n
    )
    values["encoding.encode_batch.rows"] = (
        tracer.rows.get(("encoding.encode_batch", "timed"), 0) / n
    )
    values["reliability.checkpoint.calls"] = (
        calls.get("reliability.checkpoint", 0) / n
    )
    compiles = tracer.returns.get("engine.compile", [])
    if compiles:
        values["engine.compile.ms"] = (
            tracer.total_ms("engine.compile") * scale / len(compiles)
        )
        plan = compiles[-1]
        values["engine.plan_nbytes"] = plan.nbytes
        stats = plan.refresh_stats
        moved = stats["rows_refreshed"] + stats["rows_reused"]
        values["engine.refresh.rows_refreshed_share"] = (
            stats["rows_refreshed"] / moved if moved else 0.0
        )
    counts = first.counts
    for name in ("epochs", "converged", "diverged", "train_mse_last_over_min"):
        if name in counts:
            values[f"core.{name}"] = counts[name]
    if "drift_events" in counts:
        values["streaming.drift_events"] = counts["drift_events"]
    if "rollbacks" in counts:
        values["reliability.rollbacks"] = counts["rollbacks"]
    if "delta_bytes" in counts:
        values["distributed.delta_bytes"] = counts["delta_bytes"]
    values["other.self_ms"] = (traced.timed_s * 1e3 - covered_ms) * scale / n
    values["trace.overhead_ratio"] = (traced.timed_s * scale) / (
        untraced.timed_s * untraced.scale
    )
    values["quality.rmse"] = first.quality["rmse"]
    values["quality.coverage_gap"] = first.quality.get("coverage_gap", 0.0)
    return {
        name: (values.get(name, 0), n, unit) for name, unit, _ in PER_LAYER
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library if possible."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _number(value):
    """JSON has no NaN or infinity; a failed run may produce them."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def print_table(title: str, metrics: dict) -> None:
    print(f"{title}:")
    for name, (value, count, unit) in metrics.items():
        print(f"  {name:40s} {value!s:>24} {unit:8s} n={count}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # Program-side telemetry and tracing stay off in every pass: the
    # end-to-end numbers must not include them.
    program_env = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_TRACE", "REPRO_TELEMETRY")
    }
    sys.path.insert(0, str(SRC))
    import numpy as np
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from layers import SpanTracer, install

    if args.workload not in workloads.NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.NAMES)}",
            file=sys.stderr,
        )
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, quick=args.quick, work_dir=str(WORK_DIR))
    inp = wl.inputs(args.seed)

    untraced = run_pass(wl, inp, seconds=args.seconds)
    reps = list(untraced.reps)
    checks: list[tuple[bool, str]] = []
    for index, rep in enumerate(reps[1:], start=2):
        checks.append((
            rep.quality == reps[0].quality,
            f"repetition {index} quality {rep.quality} != {reps[0].quality}",
        ))
    metrics = end_to_end(untraced, scaled=True)
    raw_metrics = end_to_end(untraced, scaled=False)
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "quick": args.quick,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": wl.backend(untraced.state),
        "blas_threads": blas_threads(),
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "program_env_unset": {k: v for k, v in program_env.items() if v},
        "repetitions": len(reps),
        "reference_burst_ms": untraced.burst_ms,
        "setup_reference_burst_ms": untraced.setup_burst_ms,
    }

    layer_metrics = traced = None
    if args.trace:
        tracer = SpanTracer()
        roles = wl.roles(untraced.state)
        with tracer.installed():
            install(tracer, roles)
            traced = run_pass(wl, inp, reps=len(reps), tracer=tracer)
        reps += traced.reps
        checks.append((
            traced.reps[0].quality == untraced.reps[0].quality,
            f"traced quality {traced.reps[0].quality} != untraced "
            f"{untraced.reps[0].quality}",
        ))
        layer_metrics = per_layer(wl, untraced, traced, tracer)
        other = layer_metrics["other.self_ms"][0]
        wall_ms = traced.timed_s * 1e3 * traced.scale / len(traced.reps)
        checks.append((
            other <= MAX_OTHER_SHARE * wall_ms,
            f"layers cover only {1 - other / wall_ms:.1%} of the traced "
            f"timed wall (need {1 - MAX_OTHER_SHARE:.0%})",
        ))
    for run in (untraced, traced):
        if run is not None:
            _close(wl, run.state)
    try:
        WORK_DIR.rmdir()
    except OSError:  # not empty, or already gone: leave it
        pass

    attempted = sum(rep.attempted for rep in reps) + len(checks)
    failed = sum(rep.failed for rep in reps) + sum(not ok for ok, _ in checks)
    errors = [e for rep in reps for e in rep.notes.get("errors", [])]
    errors += [message for ok, message in checks if not ok]
    if layer_metrics is not None:
        _, count, unit = layer_metrics["quality.error_rate"]
        layer_metrics["quality.error_rate"] = (failed / attempted, count, unit)

    first = untraced.reps[0]
    record = {
        "rmse": first.quality["rmse"],
        "error_rate": failed / attempted,
        **{k: v for k, v in first.quality.items() if k != "rmse"},
        **first.counts,
        **{k: v for k, v in first.notes.items() if k != "errors"},
    }
    print(f"perfbench {wl.name}: {json.dumps(stamp)}")
    print_table(
        f"end-to-end (untraced, scaled to a {REFERENCE_MS} ms reference burst)",
        metrics,
    )
    print_table("end-to-end (untraced, raw)", raw_metrics)
    print(f"quality (first repetition): {json.dumps(record)}")
    if layer_metrics is not None:
        print_table("per-layer (traced, per repetition)", layer_metrics)
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    chosen = layer_metrics if args.trace else {
        name: metrics[name] for name, _ in END_TO_END
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": _number(value), "unit": unit}
                    for name, (value, _, unit) in chosen.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
