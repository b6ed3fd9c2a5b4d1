"""Tests for bit-packed binary hypervector operations."""

import numpy as np
import pytest

from repro.exceptions import DimensionalityError
from repro.ops.generate import random_binary

# The module itself, for the tile budget / popcount knobs.
from repro.runtime import packing
from repro.runtime.packing import (
    pack_bits,
    pack_sign_words,
    packed_hamming_distance,
    packed_hamming_similarity,
    packed_sign_products,
    unpack_bits,
)
from repro.ops.similarity import hamming_distance, hamming_similarity


class TestPackUnpack:
    def test_roundtrip_single(self):
        bits = random_binary(1, 100, seed=0)[0]
        packed, dim = pack_bits(bits)
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    def test_roundtrip_batch(self):
        bits = random_binary(5, 77, seed=1)
        packed, dim = pack_bits(bits)
        assert packed.shape == (5, 10)  # ceil(77/8)
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    def test_exact_byte_multiple(self):
        bits = random_binary(2, 64, seed=2)
        packed, dim = pack_bits(bits)
        assert packed.shape == (2, 8)
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0, 2, 1]))

    def test_rejects_negative_ints(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0, -1, 1], dtype=np.int32))

    def test_rejects_fractional_floats(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0.0, 0.5, 1.0]))

    def test_rejects_exotic_dtypes(self):
        with pytest.raises(ValueError):
            pack_bits(np.array(["0", "1"]))
        with pytest.raises(ValueError):
            pack_bits(np.array([0 + 0j, 1 + 0j]))

    def test_accepts_bool_and_exact_floats(self):
        for arr in (
            np.array([True, False, True]),
            np.array([1.0, 0.0, 1.0]),
            np.array([1, 0, 1], dtype=np.int64),
        ):
            packed, dim = pack_bits(arr)
            np.testing.assert_array_equal(
                unpack_bits(packed, dim), arr.astype(np.uint8)
            )

    def test_empty_input_allowed(self):
        packed, dim = pack_bits(np.empty((3, 0), dtype=np.uint8))
        assert dim == 0 and packed.shape == (3, 0)

    def test_rejects_3d(self):
        with pytest.raises(DimensionalityError):
            pack_bits(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_unpack_dim_validation(self):
        packed, _ = pack_bits(random_binary(1, 16, seed=0)[0])
        with pytest.raises(DimensionalityError):
            unpack_bits(packed, 0)
        with pytest.raises(DimensionalityError):
            unpack_bits(packed, 99)


class TestPackedHamming:
    def test_matches_unpacked_single(self):
        a = random_binary(1, 123, seed=0)[0]
        b = random_binary(1, 123, seed=1)[0]
        pa, dim = pack_bits(a)
        pb, _ = pack_bits(b)
        assert packed_hamming_distance(pa, pb) == hamming_distance(a, b)

    def test_matches_unpacked_batch(self):
        a = random_binary(4, 200, seed=2)
        b = random_binary(6, 200, seed=3)
        pa, dim = pack_bits(a)
        pb, _ = pack_bits(b)
        np.testing.assert_allclose(
            packed_hamming_distance(pa, pb), hamming_distance(a, b)
        )

    def test_similarity_matches(self):
        a = random_binary(3, 500, seed=4)
        b = random_binary(3, 500, seed=5)
        pa, dim = pack_bits(a)
        pb, _ = pack_bits(b)
        np.testing.assert_allclose(
            packed_hamming_similarity(pa, pb, dim), hamming_similarity(a, b)
        )

    def test_self_distance_zero(self):
        a = random_binary(1, 64, seed=6)[0]
        pa, _ = pack_bits(a)
        assert packed_hamming_distance(pa, pa) == 0.0

    def test_padding_bits_cancel(self):
        """Non-multiple-of-8 dims must not leak padding into the count."""
        a = np.ones(9, dtype=np.uint8)
        b = np.zeros(9, dtype=np.uint8)
        pa, _ = pack_bits(a)
        pb, _ = pack_bits(b)
        assert packed_hamming_distance(pa, pb) == 9.0

    def test_width_mismatch(self):
        pa, _ = pack_bits(random_binary(1, 64, seed=0)[0])
        pb, _ = pack_bits(random_binary(1, 128, seed=0)[0])
        with pytest.raises(DimensionalityError):
            packed_hamming_distance(pa, pb)

    def test_similarity_dim_validation(self):
        pa, _ = pack_bits(random_binary(1, 64, seed=0)[0])
        with pytest.raises(DimensionalityError):
            packed_hamming_similarity(pa, pa, 0)

    def test_column_tiling_matches_untiled(self):
        """A tiny cache-block budget forces many blocks yet changes nothing."""
        a = random_binary(7, 300, seed=10)
        b = random_binary(31, 300, seed=11)
        pa, _ = pack_bits(a)
        pb, _ = pack_bits(b)
        whole = packed_hamming_distance(pa, pb)
        packing.set_popcount_block_kib(1)
        try:
            np.testing.assert_array_equal(packed_hamming_distance(pa, pb), whole)
        finally:
            packing.set_popcount_block_kib(None)
        np.testing.assert_array_equal(whole, hamming_distance(a, b))

    def test_table_fallback_matches_bitwise_count(self, monkeypatch):
        """The uint8-view table path must agree with np.bitwise_count."""
        a = random_binary(4, 515, seed=12)
        b = random_binary(9, 515, seed=13)
        pa, _ = pack_bits(a)
        pb, _ = pack_bits(b)
        fast = packed_hamming_distance(pa, pb)
        monkeypatch.setattr(packing, "_HAS_BITWISE_COUNT", False)
        np.testing.assert_array_equal(packed_hamming_distance(pa, pb), fast)


class TestPackedSignProducts:
    def test_matches_float_sign_matmul_exactly(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(11, 333))
        B = rng.normal(size=(5, 333))
        sa = np.where(A >= 0, 1.0, -1.0)
        sb = np.where(B >= 0, 1.0, -1.0)
        got = packed_sign_products(pack_sign_words(A), pack_sign_words(B), 333)
        np.testing.assert_array_equal(got, sa @ sb.T)

    def test_tie_value_is_plus_one(self):
        """Exact zeros pack as +1, matching np.sign's 0 -> +1 fixup."""
        A = np.zeros((1, 64))
        B = np.ones((1, 64))
        got = packed_sign_products(pack_sign_words(A), pack_sign_words(B), 64)
        assert got[0, 0] == 64.0

    def test_out_bits_scratch(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(6, 128))
        scratch = np.empty((8, 128), dtype=bool)
        np.testing.assert_array_equal(
            pack_sign_words(A, out_bits=scratch), pack_sign_words(A)
        )

    def test_validation(self):
        words = pack_sign_words(np.zeros((2, 64)))
        with pytest.raises(DimensionalityError):
            pack_sign_words(np.zeros(64))
        with pytest.raises(DimensionalityError):
            packed_sign_products(words, words, 0)
        with pytest.raises(DimensionalityError):
            packed_sign_products(words, pack_sign_words(np.zeros((2, 128))), 64)
