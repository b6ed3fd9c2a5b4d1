"""Fuzz the on-disk loaders with truncated and bit-flipped bytes.

Every loader must either raise the library's typed error
(:class:`ConfigurationError` for model and delta files,
:class:`CheckpointCorruptError` for a checkpoint), load something
identical to what was saved (a flip in a field nothing reads), or — for
recovery — fall back to an older checkpoint.  A raw zipfile/json/numpy
exception or a silently shortened history is a failure.
"""

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig
from repro.exceptions import (
    CheckpointCorruptError,
    ConfigurationError,
    RecoveryError,
)
from repro.reliability import CheckpointManager, ResilientStreamingRegHD
from repro.reliability.checkpoint import JOURNAL_NAME
from repro.serialization import load_delta, load_model, save_delta, save_model

CONFIG = RegHDConfig(dim=64, n_models=2, seed=0)
#: zip local-header, central-directory and end-of-directory signatures
_SIGNATURES = (b"PK\x03\x04", b"PK\x01\x02", b"PK\x05\x06")


def _zip_mutations(data: bytes):
    """Truncations plus bit flips: three bits of every byte in the fixed
    fields of every zip header (version, flags, method, CRC, sizes), one
    bit of every 31st byte elsewhere."""
    for length in [*range(0, len(data), 29), *range(len(data) - 16, len(data))]:
        yield data[:length]
    header = set()
    for sig in _SIGNATURES:
        start = data.find(sig)
        while start != -1:
            header.update(range(start, min(start + 32, len(data))))
            start = data.find(sig, start + 1)
    for offset in range(len(data)):
        bits = (0, 3, 6) if offset in header else (
            [offset % 8] if offset % 31 == 0 else []
        )
        for bit in bits:
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            yield bytes(flipped)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    model = MultiModelRegHD(4, CONFIG)
    X = rng.normal(size=(32, 4))
    model.partial_fit(X, X.sum(axis=1))
    return model, X


class TestModelAndDeltaFiles:
    def test_load_model(self, fitted, tmp_path):
        model, X = fitted
        data = save_model(model, tmp_path / "model.npz").read_bytes()
        expected = model.predict(X)
        target = tmp_path / "fuzzed.npz"
        for blob in _zip_mutations(data):
            target.write_bytes(blob)
            try:
                loaded = load_model(target)
            except ConfigurationError:
                continue
            np.testing.assert_array_equal(loaded.predict(X), expected)

    def test_load_delta(self, fitted, tmp_path):
        model, X = fitted
        model.begin_delta()
        model.partial_fit(X, X.sum(axis=1))
        delta = model.capture_delta()
        data = save_delta(delta, tmp_path / "delta.npz").read_bytes()
        target = tmp_path / "fuzzed.npz"
        for blob in _zip_mutations(data):
            target.write_bytes(blob)
            try:
                loaded = load_delta(target)
            except ConfigurationError:
                continue
            assert loaded.fingerprint == delta.fingerprint
            assert loaded.n_samples == delta.n_samples
            assert loaded.moments == delta.moments
            assert loaded.arrays.keys() == delta.arrays.keys()
            for name, arr in delta.arrays.items():
                np.testing.assert_array_equal(loaded.arrays[name], arr)


@pytest.fixture
def checkpointed(tmp_path):
    """Six batches checkpointed at 3 and 6, plus the live history."""
    stream = ResilientStreamingRegHD(
        4, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=3
    )
    rng = np.random.default_rng(1)
    for _ in range(6):
        X = rng.normal(size=(8, 4))
        stream.update(X, X.sum(axis=1))
    return tmp_path, list(stream.history.reports)


def _recover_outcome(directory, reports):
    """Recover and check the history matches the restored checkpoint;
    returns the restored batch, or None when nothing was recoverable."""
    try:
        recovered = ResilientStreamingRegHD.recover(directory)
    except RecoveryError:
        return None
    batch = recovered._batch_counter
    assert list(recovered.history.reports) == reports[:batch]
    return batch


class TestCheckpointFiles:
    def test_corrupt_npz(self, checkpointed):
        directory, reports = checkpointed
        manager = CheckpointManager(directory)
        newest = manager.checkpoints()[-1]
        data = newest.path.read_bytes()
        mutations = list(_zip_mutations(data))
        for blob in mutations[:: max(1, len(mutations) // 150)]:
            newest.path.write_bytes(blob)
            with pytest.raises(CheckpointCorruptError):
                manager.load(newest)
            assert _recover_outcome(directory, reports) == 3

    def test_corrupt_journal(self, checkpointed):
        directory, reports = checkpointed
        journal = directory / JOURNAL_NAME
        data = journal.read_bytes()
        cases = [data[:length] for length in range(0, len(data), 13)]
        for offset in range(0, len(data), 7):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << (offset % 8)
            cases.append(bytes(flipped))
        outcomes = set()
        for blob in cases:
            journal.write_bytes(blob)
            outcomes.add(_recover_outcome(directory, reports))
        # Damage to lines 1-3 leaves nothing; to lines 4-6, batch 3.
        assert outcomes == {None, 3}
        journal.write_bytes(data)
        assert _recover_outcome(directory, reports) == 6
