"""Fused encode→pack pipeline for binary-query inference (packed backend).

When every heavy serving stage runs on packed sign words (quantised
cluster search *and* fully-binary model dots), the full ``(tile, D)``
float hypervector batch is dead weight: only its sign bits and two row
reductions (the Euclidean norm and the mean magnitude feeding the
binarisation scale) survive into the kernels.  This module computes
exactly those outputs from raw feature rows, one column block at a time,
so the intermediate float encoding never exists beyond a
``(tile, block)`` slab.

Two things make the fused path faster than encode-then-pack:

* **single-trig encode** — Eq. (1) is ``cos(p + φ) · sin(p)`` with
  ``p = (X @ B) · scale``.  The product-to-sum identity

      ``cos(p + φ) · sin(p) = ½ · (sin(2p + φ) − sin(φ))``

  needs *one* transcendental evaluation per element instead of two
  (``sin(φ)`` is precomputed per plan).  Trig dominates serving time at
  paper-scale D, so this roughly halves the encode stage.  The identity
  is exact in real arithmetic; in floats the two forms agree to a few
  ulps, which leaves the sign bits — all the packed kernels consume —
  identical in practice and the scale reductions equal to rounding.
* **blocked reductions** — the squared-sum / absolute-sum accumulators
  and the sign-bit packing consume each block while it is cache-hot,
  instead of re-streaming a multi-megabyte tile once per derivation.

The block width is :data:`FUSED_BLOCK_COLS` clipped to ``D`` (a multiple
of 64 so each block lands on packed-word boundaries), exported as the
``reghd_fused_block_cols`` telemetry gauge.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.telemetry import metrics as _metrics
from repro.types import FloatArray

__all__ = [
    "EncoderOperands",
    "FUSED_BLOCK_COLS",
    "FusedScratch",
    "encode_pack_tile",
    "fused_block_cols",
]

#: column block width (a multiple of 64): wide enough that the BLAS
#: projection per block amortises, narrow enough that the three
#: (tile, block) slabs stay near cache while the reductions and the bit
#: packer consume them.
FUSED_BLOCK_COLS = 1024


def fused_block_cols(dim: int) -> int:
    """Column block width for a fused encode over ``dim`` dimensions:
    :data:`FUSED_BLOCK_COLS`, never wider than ``dim`` padded to 64."""
    return min(FUSED_BLOCK_COLS, -(-int(dim) // 64) * 64)


class EncoderOperands(NamedTuple):
    """Projection operands of one nonlinear encoder, plan- or call-scoped,
    with ``sin(φ)`` precomputed for the single-trig encode."""

    bases: FloatArray
    phases: FloatArray
    scale: float
    sin_phases: FloatArray

    @classmethod
    def of(cls, encoder) -> "EncoderOperands":
        """The operands of a :class:`~repro.encoding.NonlinearEncoder`
        (views of its arrays plus a fresh ``sin(φ)``)."""
        phases = np.asarray(encoder.phases)
        return cls(
            np.asarray(encoder.bases), phases, float(encoder.scale), np.sin(phases)
        )


class FusedScratch:
    """Preallocated buffers for one worker's fused encode→pack tiles."""

    def __init__(self, tile_rows: int, dim: int):
        self.tile_rows = int(tile_rows)
        self.dim = int(dim)
        self.block_cols = fused_block_cols(dim)
        self.n_words = -(-self.dim // 64)
        #: projection / encoding block, reused per column block
        self.proj = np.empty((tile_rows, self.block_cols), dtype=np.float64)
        #: reduction temporary (squares, magnitudes) per column block
        self.work = np.empty((tile_rows, self.block_cols), dtype=np.float64)
        #: sign bits per column block, feeding the packer
        self.bits = np.empty((tile_rows, self.block_cols), dtype=np.bool_)
        #: packed output words for a full tile
        self.words = np.empty((tile_rows, self.n_words), dtype=np.uint64)
        #: per-row reduction accumulators
        self.sumsq = np.empty(tile_rows, dtype=np.float64)
        self.sumabs = np.empty(tile_rows, dtype=np.float64)
        registry = _metrics.active()
        if registry is not None:
            registry.gauge("reghd_fused_block_cols").set(self.block_cols)

    @property
    def nbytes(self) -> int:
        """Total scratch footprint in bytes."""
        return (
            self.proj.nbytes
            + self.work.nbytes
            + self.bits.nbytes
            + self.words.nbytes
            + self.sumsq.nbytes
            + self.sumabs.nbytes
        )


def encode_pack_tile(
    X: FloatArray,
    enc: EncoderOperands,
    scratch: FusedScratch,
    *,
    norm_eps: float = 1e-12,
) -> tuple[np.ndarray, FloatArray]:
    """Raw feature rows → packed sign words + binary-query scales.

    Returns ``(words, scales)`` where ``words`` is the ``(t, ceil(D/64))``
    uint64 sign packing of the Eq.-(1) encoding (bit 1 where the encoded
    value is ``>= 0``, padding bits zero — the :func:`pack_sign_words`
    convention) and ``scales`` is the per-row binarisation scale of the
    normalised queries, ``mean(|H|) / max(‖H‖, eps)``.  Both are views
    into ``scratch`` valid until its next use.

    The full float encoding is never materialised: each column block is
    encoded with the single-trig identity, reduced into the norm/scale
    accumulators and packed while cache-resident.
    """
    t, dim = X.shape[0], scratch.dim
    bc = scratch.block_cols
    words = scratch.words[:t]
    words_u8 = words.view(np.uint8)
    sumsq = scratch.sumsq[:t]
    sumabs = scratch.sumabs[:t]
    sumsq[:] = 0.0
    sumabs[:] = 0.0
    two_scale = 2.0 * enc.scale
    proj_flat = scratch.proj.reshape(-1)
    work_flat = scratch.work.reshape(-1)
    bits_flat = scratch.bits.reshape(-1)
    for d0 in range(0, dim, bc):
        d1 = min(d0 + bc, dim)
        w = d1 - d0
        # Contiguous (t, w) views carved from the flat buffers — np.dot
        # requires a C-contiguous output array.
        pb = proj_flat[: t * w].reshape(t, w)
        tb = work_flat[: t * w].reshape(t, w)
        # H = ½(sin(2p + φ) − sin φ) with p = (X @ B) · scale: one trig
        # call per element in place of the cos·sin product.
        np.dot(X, enc.bases[:, d0:d1], out=pb)
        np.multiply(pb, two_scale, out=pb)
        np.add(pb, enc.phases[d0:d1], out=pb)
        np.sin(pb, out=pb)
        np.subtract(pb, enc.sin_phases[d0:d1], out=pb)
        np.multiply(pb, 0.5, out=pb)
        # Row reductions while the block is hot: ‖H‖² and Σ|H|.
        np.multiply(pb, pb, out=tb)
        sumsq += tb.sum(axis=1)
        np.abs(pb, out=tb)
        sumabs += tb.sum(axis=1)
        # Sign bits → packed bytes; block starts are multiples of 64, so
        # per-block packbits output lands on whole-byte offsets.
        bits = np.greater_equal(pb, 0, out=bits_flat[: t * w].reshape(t, w))
        packed = np.packbits(bits, axis=1)
        words_u8[:, d0 // 8 : d0 // 8 + packed.shape[1]] = packed
    # Zero the padding bytes so padding bits cancel in XOR, exactly as
    # pack_sign_words guarantees.
    used_bytes = -(-dim // 8)
    if used_bytes < words_u8.shape[1]:
        words_u8[:, used_bytes:] = 0
    norms = np.sqrt(sumsq, out=sumsq)
    np.maximum(norms, norm_eps, out=norms)
    scales = np.divide(sumabs, float(dim), out=sumabs)
    np.divide(scales, norms, out=scales)
    return words, scales
