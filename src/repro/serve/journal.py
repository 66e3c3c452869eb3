"""Per-session write-ahead journal: framed chunk log + state snapshots.

A live replay session must survive a SIGKILLed server bit-identically,
so every ingested chunk is made durable *before* it is applied:

* **Chunk journal** (``journal.bin``): an append-only sequence of
  self-checking frames, one per ingested :class:`EventBatch`.  Each
  frame is ``magic | payload-length | blake2b-digest | payload`` where
  the payload is the batch's raw columns (:func:`encode_batch`, the
  same bytes a feed request carries).  A crash can only
  tear the *tail* frame (the file is append-only and flushed+fsynced
  per chunk), and a torn or bit-rotted tail is detected by the length
  and digest checks: recovery replays every intact frame and truncates
  the debris, so the next append lands on a clean boundary.  Frames
  are written as ``RJC2``; ``RJC1`` frames (an ``.npz`` payload) from
  older journals are still read, so those sessions recover too.

* **State snapshots** (``snapshot-<applied>.pkl``): a pickled session
  state published every N chunks through
  :func:`repro.util.durable.write_atomic` (fsynced temp file, rename,
  fsynced directory).
  Recovery loads the newest loadable snapshot and replays only the
  journal frames past it -- restart cost is bounded by the snapshot
  interval, not the session length.  The latest few snapshots are kept
  so a corrupt newest snapshot degrades to the previous one (and, in
  the worst case, to a full journal replay from the empty state).

Everything here is synchronous and file-based on purpose: the service
layer (:mod:`repro.serve.service`) serializes appends per session, and
recovery needs no coordination beyond reading the directory.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.engine.batch import EventBatch
from repro.util.durable import fsync_dir, write_atomic

#: Frame magic: rolls with any incompatible frame-layout change.
FRAME_MAGIC = b"RJC2"

#: Magic of frames whose payload is ``.npz`` (read, never written).
_NPZ_FRAME_MAGIC = b"RJC1"

#: Frame header: magic + uint64 payload length + 16-byte blake2b digest.
_HEADER = struct.Struct("<4sQ16s")

#: Number of state snapshots kept per session (newest first).
SNAPSHOTS_KEPT = 2

JOURNAL_NAME = "journal.bin"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{10})\.pkl$")

#: EventBatch columns a frame may carry, in write order.
_COLUMNS = (
    "file_id", "size", "time", "is_write", "device", "error",
    "user", "latency", "transfer",
)

#: Columns every chunk must carry (the rest are optional).
_REQUIRED = _COLUMNS[:6]

#: Chunk header: uint64 event count + uint16 column-table length.
_CHUNK_HEADER = struct.Struct("<QH")

#: dtype kinds a chunk column may have: bool, int, uint, float.
_NUMERIC_KINDS = frozenset("biuf")


class JournalError(RuntimeError):
    """A journal frame or snapshot failed its integrity checks."""


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def encode_batch(batch: EventBatch) -> bytes:
    """One batch as raw columns: the frame payload and the feed body.

    Layout: ``uint64 events | uint16 table-length | table | columns``.
    The table is ASCII ``name:dtype.str`` entries joined by commas
    (``file_id:<i8,...``), one per present column in write order, and
    each column's ``events * itemsize`` bytes follow in table order.
    """
    columns = [
        (name, column)
        for name in _COLUMNS
        if (column := getattr(batch, name)) is not None
    ]
    table = ",".join(
        f"{name}:{column.dtype.str}" for name, column in columns
    ).encode("ascii")
    return b"".join([
        _CHUNK_HEADER.pack(len(batch), len(table)),
        table,
        *(column.tobytes() for _, column in columns),
    ])


def _column_table(table: bytes) -> Dict[str, np.dtype]:
    """Parse and validate a chunk's ``name:dtype.str`` column table."""
    try:
        entries = table.decode("ascii").split(",") if table else []
    except UnicodeDecodeError:
        raise JournalError("chunk column table is not ASCII") from None
    columns: Dict[str, np.dtype] = {}
    for entry in entries:
        name, _, code = entry.partition(":")
        if name not in _COLUMNS:
            raise JournalError(f"unknown chunk column {name!r}")
        if name in columns:
            raise JournalError(f"duplicate chunk column {name!r}")
        try:
            dtype = np.dtype(code)
        except (TypeError, ValueError):
            raise JournalError(f"column {name!r}: bad dtype {code!r}") from None
        if dtype.kind not in _NUMERIC_KINDS:
            raise JournalError(f"column {name!r}: non-numeric dtype {code!r}")
        columns[name] = dtype
    return columns


def decode_batch(payload: bytes) -> EventBatch:
    """Inverse of :func:`encode_batch`; validates untrusted bytes.

    Raises :class:`JournalError` for a short header, an unknown or
    duplicate column, a dtype that is not bool/int/uint/float, a column
    that runs past the payload, a missing required column or trailing
    bytes.  Columns come back as owned, writable arrays of exactly the
    encoded dtype, byte order included.
    """
    view = memoryview(payload)
    if len(view) < _CHUNK_HEADER.size:
        raise JournalError(f"chunk of {len(view)} bytes is shorter than its header")
    count, table_length = _CHUNK_HEADER.unpack_from(view)
    offset = _CHUNK_HEADER.size + table_length
    if len(view) < offset:
        raise JournalError("chunk is shorter than its column table")
    columns = {}
    for name, dtype in _column_table(bytes(view[_CHUNK_HEADER.size:offset])).items():
        end = offset + count * dtype.itemsize
        if end > len(view):
            raise JournalError(f"column {name!r} runs past the chunk")
        columns[name] = np.frombuffer(view, dtype, count, offset).copy()
        offset = end
    if offset != len(view):
        raise JournalError(f"{len(view) - offset} trailing bytes after the columns")
    missing = [name for name in _REQUIRED if name not in columns]
    if missing:
        raise JournalError(f"chunk lacks required columns {missing}")
    return EventBatch(**columns)


def _decode_npz(payload: bytes) -> EventBatch:
    """An ``RJC1`` frame payload: the batch's columns in ``.npz`` form."""
    with np.load(io.BytesIO(payload)) as archive:
        columns = {name: archive[name] for name in archive.files}
    return EventBatch(**columns)


#: Payload decoder per readable frame magic.
_FRAME_DECODERS = {FRAME_MAGIC: decode_batch, _NPZ_FRAME_MAGIC: _decode_npz}


class SessionJournal:
    """The durable record of one session: chunk frames + snapshots."""

    def __init__(self, session_dir: Union[str, Path]) -> None:
        self.session_dir = Path(session_dir)
        self.session_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.session_dir / JOURNAL_NAME
        self._handle: Optional[io.BufferedWriter] = None

    # ------------------------------------------------------------------
    # Appending

    def _writer(self) -> io.BufferedWriter:
        if self._handle is None or self._handle.closed:
            created = not self.journal_path.exists()
            self._handle = open(self.journal_path, "ab")
            if created:
                # Until the first snapshot, nothing else makes the new
                # file's directory entry survive a host crash.
                fsync_dir(self.session_dir)
        return self._handle

    def append(self, batch: EventBatch) -> int:
        """Durably append one chunk frame; returns its byte offset.

        The frame is flushed and fsynced before returning: once this
        call completes, the chunk survives a SIGKILL.
        """
        payload = encode_batch(batch)
        frame = _HEADER.pack(FRAME_MAGIC, len(payload), _digest(payload))
        handle = self._writer()
        offset = handle.tell()
        handle.write(frame)
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
        return offset

    def close(self) -> None:
        """Release the append handle (recovery reopens on demand)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    # ------------------------------------------------------------------
    # Replay and repair

    def _scan(self) -> Tuple[List[Tuple[int, int, bytes]], int]:
        """(payload offset, length, magic) per intact frame + clean tail.

        Stops at the first torn or corrupt frame: a short header, an
        unknown magic, a payload shorter than its declared length, or a
        digest mismatch all mark the end of the recoverable prefix.
        """
        frames: List[Tuple[int, int, bytes]] = []
        good_end = 0
        if not self.journal_path.is_file():
            return frames, good_end
        with open(self.journal_path, "rb") as handle:
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                magic, length, digest = _HEADER.unpack(header)
                if magic not in _FRAME_DECODERS:
                    break
                payload = handle.read(length)
                if len(payload) < length or _digest(payload) != digest:
                    break
                frames.append((good_end + _HEADER.size, length, magic))
                good_end += _HEADER.size + length
        return frames, good_end

    def frame_count(self) -> int:
        """Number of intact frames currently in the journal."""
        return len(self._scan()[0])

    def replay(self, skip: int = 0) -> Iterator[EventBatch]:
        """Decode every intact frame past the first ``skip``, in order."""
        frames, _ = self._scan()
        if not frames[skip:]:
            return
        with open(self.journal_path, "rb") as handle:
            for offset, length, magic in frames[skip:]:
                handle.seek(offset)
                yield _FRAME_DECODERS[magic](handle.read(length))

    def repair(self) -> int:
        """Truncate torn tail bytes (if any); returns intact frame count.

        Called on recovery before the journal is appended to again, so a
        frame half-written by a killed server never corrupts the stream:
        the client that never got its ack re-sends the chunk and it is
        re-journaled cleanly.
        """
        frames, good_end = self._scan()
        if (
            self.journal_path.is_file()
            and self.journal_path.stat().st_size > good_end
        ):
            self.close()
            with open(self.journal_path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return len(frames)

    # ------------------------------------------------------------------
    # Snapshots

    def _snapshot_paths(self) -> List[Tuple[int, Path]]:
        """(applied count, path) for every snapshot file, newest first."""
        found = []
        for path in self.session_dir.iterdir():
            match = _SNAPSHOT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found, reverse=True)

    def write_snapshot(self, applied: int, state: Any) -> Path:
        """Persist the session state after ``applied`` chunks, atomically.

        The pickle stream is framed with its own digest so a bit-rotted
        snapshot is *detected* (and skipped) rather than silently
        restored.  Older snapshots beyond :data:`SNAPSHOTS_KEPT` are
        pruned.
        """
        payload = pickle.dumps(
            {"applied": applied, "state": state}, protocol=pickle.HIGHEST_PROTOCOL
        )
        path = self.session_dir / f"snapshot-{applied:010d}.pkl"
        write_atomic(path, _digest(payload) + payload)
        for _, stale in self._snapshot_paths()[SNAPSHOTS_KEPT:]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path

    def load_snapshot(self) -> Tuple[int, Any]:
        """Newest loadable snapshot as ``(applied, state)``.

        Falls back to older snapshots when the newest fails its digest
        or unpickle, and to ``(0, None)`` when none is loadable -- the
        caller then replays the whole journal from the empty state.
        """
        for applied, path in self._snapshot_paths():
            try:
                raw = path.read_bytes()
                digest, payload = raw[:16], raw[16:]
                if _digest(payload) != digest:
                    raise JournalError(f"snapshot digest mismatch: {path.name}")
                record = pickle.loads(payload)
                if record.get("applied") != applied:
                    raise JournalError(f"snapshot header mismatch: {path.name}")
                return applied, record["state"]
            except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                    AttributeError, JournalError):
                continue
        return 0, None
