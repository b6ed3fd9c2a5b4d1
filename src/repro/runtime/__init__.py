"""Backend-dispatched execution runtime: one kernel layer for the library.

RegHD's Sec.-3 efficiency argument — binarisation turns cosine similarity
into Hamming distance — is only worth anything if *every* consumer of the
similarity/dot kernels can route through the cheap representation.  This
package is that single routing point:

* :mod:`repro.runtime.kernels` — the stateless arithmetic (similarities,
  softmax confidences, dots, segment/scatter accumulation), defined once;
* :class:`KernelBackend` / :class:`DenseBackend` / :class:`PackedBackend`
  — the dispatch layer choosing dense float or packed XOR+popcount
  execution per kernel, resolved via :func:`resolve_backend` from an
  explicit name, ``RegHDConfig.backend``, or ``REPRO_BACKEND``;
* :class:`Query` / :class:`QueryCache` — query-side operands with lazy,
  reusable derived representations (signs, packed words, scales);
* :mod:`repro.runtime.operands` — model-side operands: live training
  views over the dual copies, and frozen snapshots with per-row
  incremental refresh for compiled serving plans;
* :mod:`repro.runtime.packing` — the bit-packing primitives themselves.

The training hot loops (:mod:`repro.core`), the compiled inference engine
(:mod:`repro.engine`) and the streaming/reliability serving paths all
execute through these objects; the repo-consistency guards fail the build
if kernel math reappears anywhere else.
"""

from repro.runtime import kernels
from repro.runtime.quantization import (
    ClusterQuant,
    DualCopy,
    PredictQuant,
    binarize_preserving_scale,
)
from repro.runtime.packing import (
    pack_bits,
    pack_sign_words,
    packed_hamming_distance,
    packed_hamming_similarity,
    packed_sign_products,
    unpack_bits,
)
from repro.runtime.fused import (
    EncoderOperands,
    FusedScratch,
    encode_pack_tile,
    fused_block_cols,
)
from repro.runtime.query import Query, QueryCache
from repro.runtime.operands import (
    ClusterOperand,
    FrozenClusterOperand,
    FrozenModelOperand,
    ModelOperand,
    PackedWordsCache,
    freeze_cluster_operand,
    freeze_model_operand,
    refresh_cluster_operand,
    refresh_model_operand,
)
from repro.runtime.base import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    RUNTIME_VERSION,
    KernelBackend,
    resolve_backend,
)
from repro.runtime.dense import DenseBackend
from repro.runtime.packed import PackedBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "RUNTIME_VERSION",
    "KernelBackend",
    "DenseBackend",
    "PackedBackend",
    "resolve_backend",
    "EncoderOperands",
    "FusedScratch",
    "encode_pack_tile",
    "fused_block_cols",
    "ClusterQuant",
    "PredictQuant",
    "DualCopy",
    "binarize_preserving_scale",
    "Query",
    "QueryCache",
    "ClusterOperand",
    "ModelOperand",
    "PackedWordsCache",
    "FrozenClusterOperand",
    "FrozenModelOperand",
    "freeze_cluster_operand",
    "freeze_model_operand",
    "refresh_cluster_operand",
    "refresh_model_operand",
    "kernels",
    "pack_bits",
    "pack_sign_words",
    "packed_hamming_distance",
    "packed_hamming_similarity",
    "packed_sign_products",
    "unpack_bits",
]
