"""Atomic, checksummed, rotating model checkpoints with a report journal.

Checkpoint protocol (documented in README "Checkpoint format"):

* one checkpoint == one ``.npz`` produced by
  :func:`repro.serialization.save_model` (registry-driven state protocol,
  so *any* registered model type checkpoints the same way): model
  hypervectors, encoder bases, target scaling, plus wrapper state in the
  ``extra`` metadata.  A stream's per-batch report history is the one
  piece that lives beside it (below), so a recovery point is the
  ``.npz`` plus the prefix of the directory's journal that it names;
* **atomic**: the file is written to a temporary name in the target
  directory and published with :func:`os.replace`, so readers never
  observe a half-written checkpoint under its final name;
* **self-validating**: the final name embeds the CRC32 of the file bytes
  (``ckpt-<batch:08d>-<crc32:08x>.npz``); a reader recomputes the CRC
  before trusting a file, so truncation and bit rot are detected without
  a sidecar that could itself go missing;
* **journaled history**: reports go to an append-only ``history.jsonl``,
  each encoded once — when a checkpoint first covers it — as one line
  carrying its absolute sequence number and a CRC32 chained from the
  previous line's (the line also names that predecessor CRC, so it
  verifies on its own).  The checkpoint's ``extra["stream"]["history"]``
  records only ``max_reports``, the sequence number it covers and that
  line's chained CRC, so checkpoint size and write cost stay flat
  however long the stream runs.  A line inside a checkpoint's window
  that is missing, fails its CRC or does not chain to its neighbour —
  or a window ending on a CRC other than the one the checkpoint names,
  i.e. lines re-written by another timeline — makes that checkpoint
  corrupt.  A restore cuts the journal back to the restored sequence
  number (later lines belong to the abandoned timeline); under a
  bounded history it is rewritten down to the lines the kept
  checkpoints still cover once it holds more than twice that many.
  Both rewrites publish through a temporary file and :func:`os.replace`;
* **rotating**: only the newest ``keep`` checkpoints are retained, and
  :meth:`CheckpointManager.load_latest` walks newest-to-oldest past any
  corrupt checkpoint — one bad checkpoint costs one checkpoint interval,
  not the run.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import zlib
from dataclasses import dataclass

from repro.exceptions import CheckpointCorruptError, RecoveryError
from repro.reliability.retry import retry
from repro.serialization import load_model, read_metadata, save_model
from repro.telemetry import metrics as _metrics

_NAME = re.compile(r"^ckpt-(?P<batch>\d{8})-(?P<crc>[0-9a-f]{8})\.npz$")

#: file name of the report journal inside a checkpoint directory
JOURNAL_NAME = "history.jsonl"

#: one journal line: sequence number, predecessor's CRC, chained CRC32
#: of "<seq> <report>" seeded with the predecessor's CRC, report
_LINE = re.compile(
    rb'^\{"seq": (\d+), "prev": "([0-9a-f]{8})", "crc": "([0-9a-f]{8})", '
    rb'"report": (.*)\}$'
)


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: its path, batch index and declared CRC."""

    path: pathlib.Path
    batch: int
    crc: int


@dataclass(frozen=True)
class _Line:
    """One CRC-valid journal line."""

    raw: bytes
    prev: int
    crc: int
    payload: bytes


@retry(attempts=3, base_delay=0.02, retry_on=(OSError,))
def _read_bytes(path: pathlib.Path) -> bytes:
    return path.read_bytes()


def file_crc(path: pathlib.Path) -> int:
    """CRC32 of a file's bytes (retried on transient I/O errors)."""
    return zlib.crc32(_read_bytes(path)) & 0xFFFFFFFF


def _line_crc(seq: int, payload: bytes, prev: int) -> int:
    return zlib.crc32(b"%d %s" % (seq, payload), prev) & 0xFFFFFFFF


def _journal_lines(entries, prev: int) -> tuple[bytes, int]:
    """Encode ``(seq, report)`` entries as chained lines after ``prev``;
    returns the bytes and the last line's CRC."""
    out = []
    for seq, report in entries:
        payload = json.dumps(report).encode()
        crc = _line_crc(seq, payload, prev)
        out.append(
            b'{"seq": %d, "prev": "%08x", "crc": "%08x", "report": %s}\n'
            % (seq, prev, crc, payload)
        )
        prev = crc
    return b"".join(out), prev


def _read_journal(path: pathlib.Path) -> dict[int, _Line]:
    """CRC-valid journal lines by sequence number.

    Lines that fail to parse or fail their CRC are skipped, and so is a
    sequence number that appears twice (no writer produces that): their
    content cannot be trusted, so they count as missing.
    """
    if not path.exists():
        return {}
    lines: dict[int, _Line] = {}
    repeated = set()
    for raw in _read_bytes(path).split(b"\n"):
        match = _LINE.match(raw)
        if match is None:
            continue
        seq = int(match.group(1))
        prev, crc = int(match.group(2), 16), int(match.group(3), 16)
        if crc != _line_crc(seq, match.group(4), prev):
            continue
        if seq in lines:
            repeated.add(seq)
        lines[seq] = _Line(raw, prev, crc, match.group(4))
    for seq in repeated:
        del lines[seq]
    return lines


def _window(history: dict) -> range:
    """Sequence numbers of the reports a checkpoint's history covers."""
    seq = int(history["seq"])
    bound = history.get("max_reports")
    start = 1 if bound is None else max(1, seq - int(bound) + 1)
    return range(start, seq + 1)


class CheckpointManager:
    """Write, rotate, verify and recover checkpoints in one directory.

    Parameters
    ----------
    directory:
        Checkpoint directory; created if missing.
    keep:
        Number of newest checkpoints to retain (>= 1).  Keep at least 2 in
        production so a corrupt newest file still leaves a fallback.
    """

    def __init__(self, directory: str | pathlib.Path, *, keep: int = 3):
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.journal = self.directory / JOURNAL_NAME
        # Highest sequence number journaled for the live timeline and its
        # line's chained CRC; None until the journal on disk is reconciled
        # with a live history.
        self._journaled: int | None = None
        self._tip = 0
        self._journal_lines = 0
        # First journal line each checkpoint known to this manager needs.
        self._window_start: dict[str, int] = {}

    # -- writing -----------------------------------------------------------

    def save(
        self,
        model,
        *,
        batch: int,
        extra: dict | None = None,
        history=None,
    ) -> CheckpointInfo:
        """Checkpoint ``model`` (+ wrapper state) for ``batch``, atomically.

        ``history`` (a :class:`~repro.streaming.StreamHistory`) has its
        not-yet-journaled reports appended to the journal, and the
        checkpoint records the window it covers under
        ``extra["stream"]["history"]``; :meth:`load` rebuilds the reports
        from the journal.  Returns the published checkpoint and prunes
        beyond ``keep``.
        """
        if batch < 0:
            raise RecoveryError(f"batch must be >= 0, got {batch}")
        if history is not None:
            if self._journaled is None:
                # A fresh stream: lines on disk belong to another run.
                self._rewrite(1, 0)
                self._journaled = history.seq - len(history.reports)
                self._tip = 0
            entries = history.encoded_since(self._journaled)
            lines, tip = _journal_lines(entries, self._tip)
            covers = {
                "max_reports": history.max_reports,
                "seq": history.seq,
                "crc": f"{tip:08x}",
            }
            extra = dict(extra or {})
            extra["stream"] = {**extra.get("stream", {}), "history": covers}
            size = self.journal.stat().st_size
        tmp = self.directory / f".ckpt-{batch:08d}.tmp.npz"
        save_model(model, tmp, extra=extra)
        crc = file_crc(tmp)
        final = self.directory / f"ckpt-{batch:08d}-{crc:08x}.npz"
        try:
            if history is not None:
                with open(self.journal, "ab") as fh:
                    fh.write(lines)
            os.replace(tmp, final)
        except BaseException:
            # Neither half of the recovery point is published alone.
            tmp.unlink(missing_ok=True)
            if history is not None:
                os.truncate(self.journal, size)
            raise
        if history is not None:
            self._journaled, self._tip = history.seq, tip
            self._journal_lines += len(entries)
            self._window_start[final.name] = _window(covers).start
        self.prune()
        self._compact()
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_checkpoint_writes_total").inc()
            registry.record_event(
                "checkpoint_write",
                batch=batch,
                checkpoint_id=final.stem,
                bytes=final.stat().st_size,
            )
        return CheckpointInfo(path=final, batch=batch, crc=crc)

    def prune(self) -> list[pathlib.Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals."""
        removed = []
        for info in self.checkpoints()[: -self.keep or None]:
            info.path.unlink(missing_ok=True)
            self._window_start.pop(info.path.name, None)
            removed.append(info.path)
        return removed

    # -- the report journal ------------------------------------------------

    def _rewrite(self, start: int, stop: int) -> int:
        """Keep only valid journal lines numbered ``start..stop``; returns
        the CRC of line ``stop`` (0 when it is not kept)."""
        lines = _read_journal(self.journal)
        kept = [seq for seq in sorted(lines) if start <= seq <= stop]
        tmp = self.directory / f".{JOURNAL_NAME}.tmp"
        tmp.write_bytes(b"".join(lines[seq].raw + b"\n" for seq in kept))
        os.replace(tmp, self.journal)
        self._journal_lines = len(kept)
        return lines[stop].crc if stop in kept else 0

    def restore_history(self, history, state: dict) -> None:
        """Restore ``history`` from a snapshot :meth:`load` returned and
        reconcile the journal with it.

        Lines past the restored sequence number belong to the abandoned
        timeline and are cut — unless the live journal already ends at
        the restored checkpoint (a rollback to the newest one), where
        there is nothing to cut.  A snapshot that carries its reports
        inline (written before the journal existed) has them journaled
        here, so the checkpoints that follow find their windows whole.
        """
        history.set_state(state)
        if "crc" in state:
            tip = int(state["crc"], 16)
            if (self._journaled, self._tip) != (history.seq, tip):
                self._rewrite(1, history.seq)
                self._journaled, self._tip = history.seq, tip
            return
        start = history.seq - len(history.reports)
        prev = self._rewrite(1, start)
        entries = history.encoded_since(start)
        lines, self._tip = _journal_lines(entries, prev)
        with open(self.journal, "ab") as fh:
            fh.write(lines)
        self._journal_lines += len(entries)
        self._journaled = history.seq

    def _compact(self) -> None:
        """Drop lines no kept checkpoint covers, once they are the majority.

        Checkpoints this manager did not write or restore count as
        covering everything, so only a bounded history is ever compacted.
        """
        if self._journaled is None:
            return
        start = min(
            (self._window_start.get(c.path.name, 1) for c in self.checkpoints()),
            default=1,
        )
        if self._journal_lines > 2 * (self._journaled - start + 1):
            self._rewrite(start, self._journaled)

    # -- discovery / validation -------------------------------------------

    def checkpoints(self) -> list[CheckpointInfo]:
        """All on-disk checkpoints, oldest first (no validation)."""
        found = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                found.append(
                    CheckpointInfo(
                        path=path,
                        batch=int(match.group("batch")),
                        crc=int(match.group("crc"), 16),
                    )
                )
        return sorted(found, key=lambda c: (c.batch, c.path.name))

    def verify(self, info: CheckpointInfo) -> None:
        """Raise :class:`CheckpointCorruptError` unless ``info`` checks out."""
        try:
            actual = file_crc(info.path)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"{info.path}: unreadable checkpoint: {exc}"
            ) from exc
        if actual != info.crc:
            raise CheckpointCorruptError(
                f"{info.path}: CRC mismatch — name declares {info.crc:08x}, "
                f"file bytes hash to {actual:08x}"
            )

    def latest_valid(self) -> CheckpointInfo | None:
        """Newest checkpoint whose ``.npz`` passes its CRC, or None.

        Corrupt/truncated files are skipped (not deleted — they are
        evidence for the operator) and the scan continues to older
        checkpoints.  The journal window is checked by :meth:`load`.
        """
        for info in reversed(self.checkpoints()):
            try:
                self.verify(info)
            except CheckpointCorruptError:
                continue
            return info
        return None

    # -- reading -----------------------------------------------------------

    def load(self, info: CheckpointInfo):
        """Restore (model, extra-state dict) from a verified checkpoint.

        A journaled history comes back as the full
        ``{"max_reports", "reports", "seq"}`` snapshot that
        :meth:`~repro.streaming.StreamHistory.set_state` takes.
        """
        self.verify(info)
        try:
            model = load_model(info.path)
            extra = read_metadata(info.path).get("extra", {})
        except Exception as exc:  # a CRC-valid file that still won't decode
            raise CheckpointCorruptError(
                f"{info.path}: checkpoint failed to decode: {exc}"
            ) from exc
        history = extra.get("stream", {}).get("history")
        if history is not None and "reports" not in history:
            window = _window(history)
            history["reports"] = self._read_window(
                info, window, history.get("crc")
            )
            self._window_start[info.path.name] = window.start
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_checkpoint_restores_total").inc()
            registry.record_event(
                "checkpoint_restore",
                batch=info.batch,
                checkpoint_id=info.path.stem,
            )
        return model, extra

    def _read_window(
        self, info: CheckpointInfo, window: range, crc: str | None
    ) -> list:
        lines = _read_journal(self.journal)
        missing = [seq for seq in window if seq not in lines]
        if missing:
            raise CheckpointCorruptError(
                f"{info.path}: {len(missing)} of its {len(window)} history "
                f"reports are missing or corrupt in {self.journal} "
                f"(first: #{missing[0]})"
            )
        unlinked = [
            seq for seq in window[1:] if lines[seq].prev != lines[seq - 1].crc
        ]
        tip = lines[window[-1]].crc if window else 0
        if unlinked or f"{tip:08x}" != crc:
            raise CheckpointCorruptError(
                f"{info.path}: its history reports in {self.journal} were "
                f"written by another timeline"
            )
        try:
            return [json.loads(lines[seq].payload) for seq in window]
        except ValueError as exc:
            raise CheckpointCorruptError(
                f"{self.journal}: history report failed to decode: {exc}"
            ) from exc

    def load_latest(self):
        """Restore from the newest checkpoint that loads.

        Walks newest-to-oldest past checkpoints that fail their CRC,
        their decode or their journal window.  Returns ``(model, extra,
        info)``; raises :class:`RecoveryError` when none is valid.
        """
        for info in reversed(self.checkpoints()):
            try:
                model, extra = self.load(info)
            except CheckpointCorruptError:
                continue
            return model, extra, info
        raise RecoveryError(f"no valid checkpoint found in {self.directory}")
