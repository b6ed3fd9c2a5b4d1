"""Query-side operand bundle handed to kernel backends.

A :class:`Query` wraps one batch of encoded hypervectors ``S`` together
with the derived representations the kernels may need — the ±1 sign
pattern, the bit-packed uint64 words, the per-row binarisation scales and
the scale-preserving binarised matrix.  Derivations are lazy (signs,
words and scales cached), so a dense backend that only reads ``S`` never
pays for packing, while the packed backend computes words exactly once
per batch.

:class:`QueryCache` extends that reuse across a whole training run: the
trainer presents the same encoded matrix ``S`` every epoch, so its packed
words and scales are computed once up front and epoch batches are served
as row slices of the cached arrays.
"""

from __future__ import annotations

import numpy as np

from repro.ops.quantize import bipolarize
from repro.runtime.packing import pack_sign_words
from repro.types import FloatArray


class Query:
    """One batch of encoded queries plus lazily derived representations.

    Parameters
    ----------
    S:
        The ``(n, D)`` encoded, row-normalised batch.  May be ``None``
        for fully-packed serving queries built by the fused encode→pack
        pipeline — those carry ``words``/``scales`` directly and no
        kernel on that path reads the float batch.
    words, scales:
        Optional precomputed packed words and scales (the fused pipeline
        and the training :class:`QueryCache`); derived on demand
        otherwise.
    """

    __slots__ = ("S", "_signs", "_words", "_scales")

    def __init__(
        self,
        S: FloatArray | None,
        *,
        words: np.ndarray | None = None,
        scales: FloatArray | None = None,
    ):
        self.S = S
        self._signs = None
        self._words = words
        self._scales = scales

    def _require_S(self, derived: str) -> FloatArray:
        if self.S is None:
            raise ValueError(
                f"Query built without a float batch cannot derive {derived}"
            )
        return self.S

    @property
    def signs(self) -> FloatArray:
        """±1 sign pattern of ``S`` (zeros map to +1)."""
        if self._signs is None:
            self._signs = bipolarize(self._require_S("signs")).astype(
                np.float64
            )
        return self._signs

    @property
    def words(self) -> np.ndarray:
        """Bit-packed uint64 sign words of ``S``."""
        if self._words is None:
            self._words = pack_sign_words(self._require_S("words"))
        return self._words

    @property
    def scales(self) -> FloatArray:
        """Per-row binarisation scale ``mean(|S_i|)``."""
        if self._scales is None:
            self._scales = np.mean(np.abs(self._require_S("scales")), axis=1)
        return self._scales

    @property
    def binarized(self) -> FloatArray:
        """Scale-preserving binarised queries, ``sign(S) * mean(|S|)``.

        Built on each access from the cached :attr:`signs` and
        :attr:`scales` (its one consumer, the dense model dots, reads it
        once per batch); zero-scale rows stay zero, as in
        :func:`~repro.runtime.quantization.binarize_preserving_scale`.
        """
        scales = self.scales
        out = self.signs * scales[:, np.newaxis]
        out[scales == 0.0] = 0.0
        return out


class QueryCache:
    """Epoch-spanning cache of packed query operands for one training set.

    Built by :meth:`KernelBackend.make_training_cache` when a packed
    kernel will run during training.  The full training matrix is packed
    once; every epoch batch is then served as a slice, so the per-epoch
    packing cost drops to zero after the first epoch.
    """

    def __init__(self, S: FloatArray):
        self.S = S
        self._words = pack_sign_words(S)
        self._scales = np.mean(np.abs(S), axis=1)

    def query(self) -> Query:
        """A :class:`Query` over the full cached training matrix."""
        return Query(self.S, words=self._words, scales=self._scales)

    def slice(self, idx: np.ndarray, S_batch: FloatArray) -> Query:
        """A :class:`Query` for the batch ``S[idx]`` with cached operands.

        ``S_batch`` is the already-materialised row slice (the hot loop
        needs it for the updates anyway), so the cache only contributes
        the packed words and scales.
        """
        return Query(self.S[idx] if S_batch is None else S_batch,
                     words=self._words[idx], scales=self._scales[idx])
