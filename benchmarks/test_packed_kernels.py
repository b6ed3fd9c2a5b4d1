"""Microbenchmarks for the packed runtime kernels (ISSUE-7).

Times the primitive kernels the packed backend is built from, on
serving-shaped operands (many query rows × few model rows):

* ``pack_bits`` / ``pack_sign_words`` — float signs → uint64 words;
* popcount — ``np.bitwise_count`` versus the uint8 LUT fallback;
* ``_pairwise_popcount_xor`` — cache-blocked versus one monolithic
  block (the pre-v2 behaviour, forced via a huge block budget);
* fused ``encode_pack_tile`` versus the unfused stage chain it replaces:
  the estimator's encode → normalise, then the query's packed words and
  scales.

Writes ``benchmarks/results/packed_kernels.txt`` and, when the
repo-root ``BENCH_inference.json`` exists, appends the numbers under a
``kernels`` key so the canonical perf record carries the kernel split
alongside the end-to-end rows/s.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from _common import save_result
from repro.encoding.nonlinear import NonlinearEncoder
from repro.evaluation import render_table
from repro.ops.normalize import normalize_rows
from repro.runtime import (
    EncoderOperands,
    FusedScratch,
    Query,
    encode_pack_tile,
    pack_sign_words,
)
from repro.runtime import packing
from repro.telemetry.timing import monotonic

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_inference.json"

#: (query_rows, model_rows, dim) shapes — the serving popcount geometry.
SHAPES = ((512, 8, 4096), (512, 8, 10000))


def _time(fn, *, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = np.inf
    for _ in range(repeats):
        start = monotonic()
        fn()
        best = min(best, monotonic() - start)
    return float(best)


@pytest.fixture(scope="module")
def kernel_rows():
    rng = np.random.default_rng(11)
    rows: list[dict] = []
    for n, m, dim in SHAPES:
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(m, dim))
        pa = pack_sign_words(A)
        pb = pack_sign_words(B)

        t_pack = _time(lambda: pack_sign_words(A))

        def blocked():
            packing._pairwise_popcount_xor(pa, pb)

        t_blocked = _time(blocked)

        # One monolithic block: the pre-blocking behaviour, forced by a
        # budget larger than the whole (n, m, words) XOR temporary.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(packing, "POPCOUNT_BLOCK_BYTES", 1 << 32)
            t_unblocked = _time(blocked)

        # LUT fallback for hosts without np.bitwise_count (numpy < 2).
        had_fast = packing._HAS_BITWISE_COUNT
        packing._HAS_BITWISE_COUNT = False
        try:
            t_lut = _time(blocked)
        finally:
            packing._HAS_BITWISE_COUNT = had_fast

        rows.append(
            {
                "n": n,
                "m": m,
                "dim": dim,
                "pack_ms": t_pack * 1e3,
                "popcount_blocked_ms": t_blocked * 1e3,
                "popcount_unblocked_ms": t_unblocked * 1e3,
                "popcount_lut_ms": t_lut * 1e3,
                "bitwise_count": bool(had_fast),
            }
        )
    return rows


@pytest.fixture(scope="module")
def fused_rows():
    rng = np.random.default_rng(12)
    features, tile = 16, 512
    rows: list[dict] = []
    for dim in (4096, 10000):
        enc = NonlinearEncoder(features, dim, rng.integers(1 << 30))
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = rng.normal(size=(tile, features))
        fused_scratch = FusedScratch(tile, dim)

        def unfused():
            query = Query(normalize_rows(enc.encode_batch(X)))
            query.words
            query.scales

        t_unfused = _time(unfused)
        t_fused = _time(lambda: encode_pack_tile(X, operands, fused_scratch))
        rows.append(
            {
                "dim": dim,
                "tile_rows": tile,
                "unfused_ms": t_unfused * 1e3,
                "fused_ms": t_fused * 1e3,
                "fused_speedup": t_unfused / t_fused,
            }
        )
    return rows


def test_kernel_microbench(kernel_rows, fused_rows):
    table = render_table(
        kernel_rows, precision=2, title="packed kernel microbenchmarks"
    )
    fused_table = render_table(
        fused_rows, precision=2, title="fused encode-pack vs stage chain"
    )
    text = table + "\n\n" + fused_table
    save_result("packed_kernels", text)
    print("\n" + text)

    # Append under the canonical perf record when it exists (quick CI
    # checkouts that never ran `repro bench` simply skip the append).
    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text())
        record["kernels"] = {
            "popcount": kernel_rows,
            "fused_encode_pack": fused_rows,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    # Shape assertions, not absolute-speed ones (CI machines vary):
    for r in fused_rows:
        assert r["fused_speedup"] > 1.0, (
            f"fused encode-pack slower than the stage chain at "
            f"D={r['dim']}: {r['fused_speedup']:.2f}x"
        )


def test_fused_matches_stage_chain_bitwise():
    """The fused pipeline's words/scales equal the unfused derivations."""
    rng = np.random.default_rng(13)
    for dim in (256, 4096):
        enc = NonlinearEncoder(16, dim, 99)
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = rng.normal(size=(100, 16))
        words, scales = encode_pack_tile(X, operands, FusedScratch(100, dim))
        S = enc.encode_batch(X)
        np.testing.assert_array_equal(words, pack_sign_words(S))
        norms = np.maximum(np.linalg.norm(S, axis=1), 1e-12)
        np.testing.assert_allclose(
            scales, np.mean(np.abs(S), axis=1) / norms, rtol=1e-12
        )
