"""Hyperdimensional-computing primitive operations.

This subpackage is the lowest layer of the library: seeded hypervector
generation, similarity metrics, bundling/binding algebra, and the
quantisers used by RegHD's Section-3 binarisation framework.
"""

from repro.ops.binding import bind, permute, unbind, xor_bind
from repro.ops.bundling import (
    Accumulator,
    bundle,
    majority_bundle,
    weighted_bundle,
)
from repro.ops.item_memory import ItemMemory
from repro.ops.normalize import normalize_rows, softmax
from repro.runtime.packing import (
    pack_bits,
    pack_sign_words,
    packed_hamming_distance,
    packed_hamming_similarity,
    packed_sign_products,
    unpack_bits,
)
from repro.ops.generate import (
    random_binary,
    random_bipolar,
    random_gaussian,
    random_level_set,
    random_orthogonal_bipolar,
)
from repro.ops.quantize import (
    binarize,
    bipolarize,
    binary_to_bipolar,
    bipolar_to_binary,
    stochastic_binarize,
)
from repro.ops.similarity import (
    cosine_similarity,
    dot_similarity,
    hamming_distance,
    hamming_similarity,
    pairwise_cosine,
)

__all__ = [
    "bind",
    "permute",
    "unbind",
    "xor_bind",
    "Accumulator",
    "bundle",
    "majority_bundle",
    "weighted_bundle",
    "ItemMemory",
    "normalize_rows",
    "softmax",
    "pack_bits",
    "pack_sign_words",
    "packed_hamming_distance",
    "packed_hamming_similarity",
    "packed_sign_products",
    "unpack_bits",
    "random_binary",
    "random_bipolar",
    "random_gaussian",
    "random_level_set",
    "random_orthogonal_bipolar",
    "binarize",
    "bipolarize",
    "binary_to_bipolar",
    "bipolar_to_binary",
    "stochastic_binarize",
    "cosine_similarity",
    "dot_similarity",
    "hamming_distance",
    "hamming_similarity",
    "pairwise_cosine",
]
