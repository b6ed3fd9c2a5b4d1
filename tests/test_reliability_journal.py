"""Tests for the report journal kept beside the checkpoints."""

import json

import numpy as np
import pytest

from repro import RegHDConfig
from repro.exceptions import CheckpointCorruptError, RecoveryError
from repro.reliability import (
    CheckpointManager,
    HealthState,
    ResilientStreamingRegHD,
    Watchdog,
)
from repro.reliability.checkpoint import JOURNAL_NAME

CONFIG = RegHDConfig(dim=64, n_models=2, seed=0)
COEF = np.array([1.0, 2.0, 3.0, 4.0])


def _feed(stream, batches, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        X = rng.normal(size=(8, 4))
        stream.update(X, X @ COEF)


def _journal_seqs(directory):
    lines = (directory / JOURNAL_NAME).read_bytes().splitlines()
    return [json.loads(line)["seq"] for line in lines]


class TestFlatCost:
    def test_checkpoints_stay_flat_over_a_long_stream(
        self, tmp_path, monkeypatch
    ):
        """Checkpoint size and journal growth do not depend on how long
        the stream has run, and a late rollback rewinds the history to
        exactly the checkpointed prefix."""
        stream = ResilientStreamingRegHD(
            4, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=50
        )
        rng = np.random.default_rng(0)
        written = []  # (batch, history seq, .npz bytes, journal lines)
        for batch in range(1, 2001):
            X = rng.normal(size=(8, 4))
            if batch == 1990:
                prefix = list(stream.history.reports)
                # A watchdog that fails this batch forces the rollback.
                stream.watchdog = Watchdog()
                monkeypatch.setattr(
                    stream.watchdog, "update", lambda error: HealthState.FAILED
                )
            report = stream.update(X, X @ COEF)
            if batch == 1990:
                assert report.rolled_back
                break
            if report.checkpointed:
                newest = stream.checkpoints.checkpoints()[-1]
                written.append(
                    (
                        newest.batch,
                        stream.history.seq,
                        newest.path.stat().st_size,
                        len(_journal_seqs(tmp_path)),
                    )
                )

        assert [w[0] for w in written] == list(range(50, 1951, 50))
        # The .npz metadata is a numpy unicode string (4 bytes per
        # character): beyond the digits of the batch and sequence numbers
        # it names, every checkpoint has the same size.
        flat = {
            size - 4 * (len(str(batch)) + len(str(seq)))
            for batch, seq, size, _ in written
        }
        assert len(flat) == 1
        assert max(w[2] for w in written) - written[0][2] <= 16
        # Each checkpoint journals exactly its own interval's reports.
        assert [w[3] for w in written] == [w[1] for w in written]
        assert [w[1] for w in written] == list(range(50, 1951, 50))

        # The rollback restored the batch-1950 checkpoint: the history is
        # the pre-rollback prefix up to it plus the rollback report.
        assert stream.rollbacks[-1].restored_batch == 1950
        assert list(stream.history.reports) == prefix[:1950] + [report]
        assert stream.history.seq == 1951
        assert _journal_seqs(tmp_path) == list(range(1, 1951))

        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert list(recovered.history.reports) == prefix[:1950]


class TestJournalValidity:
    def _stream(self, directory, **kwargs):
        return ResilientStreamingRegHD(
            4, CONFIG, checkpoint_dir=directory, checkpoint_every=3, **kwargs
        )

    def test_load_rebuilds_the_window(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        _, extra, info = stream.checkpoints.load_latest()
        history = extra["stream"]["history"]
        assert info.batch == 6
        assert history["seq"] == 6
        assert history["max_reports"] is None
        assert [r["batch"] for r in history["reports"]] == [1, 2, 3, 4, 5, 6]

    def test_corrupt_line_falls_back_to_older_checkpoint(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b'"batch": 5', b'"batch": 7')
        journal.write_bytes(b"".join(lines))

        manager = CheckpointManager(tmp_path)
        newest = manager.checkpoints()[-1]
        manager.verify(newest)  # the .npz itself is intact
        with pytest.raises(CheckpointCorruptError, match="first: #5"):
            manager.load(newest)
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 3
        assert [r.batch for r in recovered.history.reports] == [1, 2, 3]

    def test_truncated_journal_falls_back(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        journal = tmp_path / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes()[:-20])
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 3
        assert recovered.history.n_batches == 3

    def test_missing_journal_means_no_valid_checkpoint(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        (tmp_path / JOURNAL_NAME).unlink()
        with pytest.raises(RecoveryError, match="no valid checkpoint"):
            ResilientStreamingRegHD.recover(tmp_path)

    def test_recover_cuts_abandoned_lines(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        # A crash after the batch-6 journal write but with the batch-6
        # .npz corrupt: recovery restores batch 3 and drops lines 4..6.
        newest = CheckpointManager(tmp_path).checkpoints()[-1]
        newest.path.write_bytes(b"junk")
        recovered = ResilientStreamingRegHD.recover(
            tmp_path, checkpoint_every=3
        )
        assert recovered._batch_counter == 3
        assert _journal_seqs(tmp_path) == [1, 2, 3]
        _feed(recovered, 3, seed=1)
        assert _journal_seqs(tmp_path) == [1, 2, 3, 4, 5, 6]
        again = ResilientStreamingRegHD.recover(tmp_path)
        assert list(again.history.reports) == list(recovered.history.reports)

    def test_fresh_stream_restarts_the_journal(self, tmp_path):
        _feed(self._stream(tmp_path), 6)
        # A new run in the same directory, not resumed from it.
        _feed(self._stream(tmp_path), 3, seed=2)
        assert _journal_seqs(tmp_path) == [1, 2, 3]

    def test_failed_save_leaves_journal_and_flag_unchanged(
        self, tmp_path, monkeypatch
    ):
        stream = self._stream(tmp_path)
        _feed(stream, 3)
        before = (tmp_path / JOURNAL_NAME).read_bytes()

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr("repro.reliability.checkpoint.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            _feed(stream, 3, seed=1)
        monkeypatch.undo()
        assert (tmp_path / JOURNAL_NAME).read_bytes() == before
        assert stream.history.reports[-1].checkpointed is False
        assert not list(tmp_path.glob(".ckpt-*"))
        stream.checkpoint()
        assert _journal_seqs(tmp_path) == [1, 2, 3, 4, 5, 6]


    def test_repeated_line_counts_as_corrupt(self, tmp_path):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines + [lines[4]]))
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 3

    def test_rollback_to_newest_checkpoint_leaves_journal_alone(
        self, tmp_path, monkeypatch
    ):
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        rewrites = []
        rewrite = CheckpointManager._rewrite
        monkeypatch.setattr(
            CheckpointManager,
            "_rewrite",
            lambda self, *args: rewrites.append(args) or rewrite(self, *args),
        )
        stream.watchdog = Watchdog()
        monkeypatch.setattr(
            stream.watchdog, "update", lambda error: HealthState.FAILED
        )
        _feed(stream, 1, seed=1)
        assert stream.rollbacks[-1].restored_batch == 6
        assert rewrites == []
        assert _journal_seqs(tmp_path) == [1, 2, 3, 4, 5, 6]

    def test_abandoned_timeline_checkpoint_stays_invalid(self, tmp_path):
        """A checkpoint whose window was re-journaled by a later timeline
        is never restored with that timeline's reports."""
        stream = self._stream(tmp_path)
        _feed(stream, 6)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b'"batch": 5', b'"batch": 7')
        journal.write_bytes(b"".join(lines))
        abandoned = CheckpointManager(tmp_path).checkpoints()[-1]

        # Recovery falls back to batch 3; the run goes on with other data
        # past batch 6 and checkpoints at batch 7.
        resumed = ResilientStreamingRegHD.recover(tmp_path)
        assert resumed._batch_counter == 3
        _feed(resumed, 4, seed=3)
        newest = resumed.checkpoint()
        assert _journal_seqs(tmp_path) == [1, 2, 3, 4, 5, 6, 7]

        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointCorruptError, match="another timeline"):
            manager.load(abandoned)
        # With the batch-7 checkpoint lost too, recovery skips the
        # abandoned batch-6 one rather than mixing the two runs.
        newest.path.write_bytes(b"junk")
        again = ResilientStreamingRegHD.recover(tmp_path)
        assert again._batch_counter == 3
        assert list(again.history.reports) == list(resumed.history.reports)[:3]


class TestInlineHistoryCheckpoint:
    def test_resume_from_checkpoint_with_inline_reports(self, tmp_path):
        """A checkpoint that carries its reports inline (the format from
        before the journal) resumes, and later checkpoints stay valid."""
        stream = ResilientStreamingRegHD(4, CONFIG)
        _feed(stream, 5)
        state = stream._stream_state()
        state["history"] = stream.history.get_state()
        CheckpointManager(tmp_path).save(
            stream.model, batch=5, extra={"stream": state}
        )
        assert not (tmp_path / JOURNAL_NAME).exists()

        resumed = ResilientStreamingRegHD.recover(
            tmp_path, checkpoint_every=2
        )
        assert list(resumed.history.reports) == list(stream.history.reports)
        assert _journal_seqs(tmp_path) == [1, 2, 3, 4, 5]
        _feed(resumed, 3, seed=1)
        assert [r.checkpointed for r in resumed.history.reports][5:] == [
            True,
            False,
            True,
        ]
        for info in CheckpointManager(tmp_path).checkpoints():
            CheckpointManager(tmp_path).load(info)
        again = ResilientStreamingRegHD.recover(tmp_path)
        assert again._batch_counter == 8
        assert list(again.history.reports) == list(resumed.history.reports)


class TestBoundedJournal:
    def test_compaction_keeps_disk_use_bounded(self, tmp_path):
        stream = ResilientStreamingRegHD(
            4,
            CONFIG,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            keep_checkpoints=2,
            max_history=10,
        )
        rng = np.random.default_rng(0)
        longest = 0
        for _ in range(200):
            X = rng.normal(size=(8, 4))
            if stream.update(X, X @ COEF).checkpointed:
                longest = max(longest, len(_journal_seqs(tmp_path)))
        # Kept checkpoints cover seqs 186..200 (15 lines); the journal is
        # rewritten whenever it holds more than twice what they need.
        assert longest <= 2 * 15 + 5
        assert _journal_seqs(tmp_path)[-1] == 200
        recovered = ResilientStreamingRegHD.recover(
            tmp_path, keep_checkpoints=2
        )
        assert [r.batch for r in recovered.history.reports] == list(
            range(191, 201)
        )
        # The older kept checkpoint still has its whole window on disk.
        manager = CheckpointManager(tmp_path, keep=2)
        _, extra = manager.load(manager.checkpoints()[0])
        assert [r["batch"] for r in extra["stream"]["history"]["reports"]] == (
            list(range(186, 196))
        )
