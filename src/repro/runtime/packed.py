"""The bit-packed kernel backend: XOR + popcount where quantisation allows.

Where a computation is defined over ±1 sign patterns, this backend runs
it over bit-packed uint64 words: the quantised cluster search (paper
Sec. 3.1 — any :class:`ClusterQuant` other than ``NONE``) and the
fully-binary model dots (Sec. 3.2, ``PredictQuant.BINARY_BOTH``).  The
packed sign products are *bit-exact* against the dense sign matmul (the
products are small integers), so quantised-search training under this
backend reproduces the dense trajectory exactly; only the fully-binary
dots differ, by float rounding in the scale multiplication order.

When both heavy stages run packed (``cluster_quant != NONE`` and
``predict_quant == BINARY_BOTH``) the float encoding has no remaining
consumer, so compiled plans fuse encode→pack
(:func:`repro.runtime.fused.encode_pack_tile`): raw feature rows go
straight to uint64 sign words plus binary-query scales, one
cache-resident column block at a time, and the full float hypervector
tile is never materialised.  Fused-plan predictions agree with the dense
reference to float rounding; training never takes the fused path.

Everything not expressible over sign bits (full-precision cosine
similarities, integer-operand dots, the update arithmetic that must hit
the integer shadow copies exactly) falls through to the inherited dense
kernels.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.quantization import ClusterQuant, PredictQuant
from repro.registry import register_backend
from repro.runtime import fused, kernels
from repro.runtime.base import KernelBackend
from repro.runtime.query import QueryCache
from repro.types import FloatArray


@register_backend("packed")
class PackedBackend(KernelBackend):
    """Hamming-kernel backend over bit-packed uint64 sign words."""

    def packs_similarities(self, cluster_quant: ClusterQuant) -> bool:
        return cluster_quant is not ClusterQuant.NONE

    def packs_dots(self, predict_quant: PredictQuant) -> bool:
        return predict_quant is PredictQuant.BINARY_BOTH

    def encode_pack(
        self,
        X: FloatArray,
        enc: fused.EncoderOperands,
        scratch: fused.FusedScratch,
    ) -> tuple[np.ndarray, FloatArray]:
        """Fused raw-rows → (packed sign words, binary-query scales)."""
        return fused.encode_pack_tile(X, enc, scratch)

    def make_training_cache(
        self,
        S: FloatArray,
        *,
        cluster_quant: ClusterQuant,
        predict_quant: PredictQuant,
    ) -> QueryCache | None:
        """Pack the training matrix once when any packed kernel will run."""
        if self.packs_similarities(cluster_quant) or self.packs_dots(
            predict_quant
        ):
            return QueryCache(S)
        return None

    def cluster_similarities(self, query, clusters) -> FloatArray:
        if self.packs_similarities(clusters.quant):
            return kernels.hamming_similarities(
                query.words, clusters.words, clusters.dim
            )
        return super().cluster_similarities(query, clusters)

    def model_dots(self, query, models) -> FloatArray:
        if self.packs_dots(models.quant):
            return kernels.packed_scaled_dots(
                query.words,
                models.words,
                query.scales,
                models.scales,
                models.dim,
            )
        return super().model_dots(query, models)
