"""Write-ahead journal: frame integrity, torn-tail repair, snapshots."""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np
import pytest

from repro.engine.batch import EventBatch
from repro.serve.journal import (
    SNAPSHOTS_KEPT,
    JournalError,
    SessionJournal,
    decode_batch,
    encode_batch,
)
from repro.serve.session import JournaledSession, ReplaySession, SessionSpec
from tests.serve.conftest import malformed_chunks, raw_chunk, synth_chunks

COLUMNS = ("file_id", "size", "time", "is_write", "device", "error",
           "user", "latency", "transfer")


def _assert_batches_equal(a, b):
    for name in COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        if left is None or right is None:
            assert left is None and right is None, name
        else:
            assert left.dtype == right.dtype, name
            np.testing.assert_array_equal(left, right, err_msg=name)


def test_encode_decode_roundtrip_preserves_all_columns(chunk_stream):
    for batch in chunk_stream:
        _assert_batches_equal(decode_batch(encode_batch(batch)), batch)


def test_roundtrip_without_optional_columns():
    batch = synth_chunks(1, 50)[0]
    stripped = type(batch)(
        file_id=batch.file_id, size=batch.size, time=batch.time,
        is_write=batch.is_write, device=batch.device, error=batch.error,
    )
    _assert_batches_equal(decode_batch(encode_batch(stripped)), stripped)


def test_encoding_is_the_documented_raw_layout(chunk_stream):
    batch = chunk_stream[0]
    columns = [(name, getattr(batch, name).dtype.str,
                getattr(batch, name).tobytes()) for name in COLUMNS]
    assert encode_batch(batch) == raw_chunk(len(batch), columns)


def test_zero_event_and_big_endian_batches_roundtrip_exact_dtypes():
    batch = synth_chunks(1, 40)[0]
    swapped = EventBatch(**{
        name: getattr(batch, name).astype(getattr(batch, name).dtype.newbyteorder(">"))
        for name in COLUMNS
    })
    assert swapped.file_id.dtype.str == ">i8"
    for original in (EventBatch.empty(), batch.slice(0, 0), swapped):
        decoded = decode_batch(encode_batch(original))
        _assert_batches_equal(decoded, original)
        for name in COLUMNS:
            column = getattr(decoded, name)
            if column is not None:
                assert column.flags.owndata and column.flags.writeable, name


@pytest.mark.parametrize("case", sorted(malformed_chunks()))
def test_malformed_chunk_raises_journal_error(case):
    with pytest.raises(JournalError):
        decode_batch(malformed_chunks()[case])


def _rjc1_frame(batch) -> bytes:
    """A frame as journals were written before RJC2: an ``.npz`` payload."""
    buffer = io.BytesIO()
    np.savez(buffer, **{
        name: column for name in COLUMNS
        if (column := getattr(batch, name)) is not None
    })
    payload = buffer.getvalue()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return struct.pack("<4sQ16s", b"RJC1", len(payload), digest) + payload


def test_rjc1_journal_recovers_like_an_in_process_session(tmp_path):
    chunks = synth_chunks(6, 200, seed=4)
    spec = SessionSpec(name="old", policy="lru", capacity_bytes=4 << 20)
    journaled = JournaledSession.create(tmp_path / "s", spec)
    journaled.journal.journal_path.write_bytes(
        b"".join(_rjc1_frame(chunk) for chunk in chunks[:4])
    )
    recovered = JournaledSession.open(tmp_path / "s")
    assert recovered.next_seq == 4
    for seq in range(4, len(chunks)):
        recovered.feed(chunks[seq], seq)  # appended as RJC2 frames
    recovered.journal.close()
    reopened = JournaledSession.open(tmp_path / "s")
    reference = ReplaySession(spec)
    for chunk in chunks:
        reference.feed(chunk)
    assert reopened.session.finalize() == reference.finalize()


@pytest.mark.parametrize("chop", [1, 10, 1000])
def test_mixed_rjc1_rjc2_journal_replays_and_repairs(tmp_path, chunk_stream, chop):
    journal = SessionJournal(tmp_path / "s")
    old = len(chunk_stream) // 2
    journal.journal_path.write_bytes(
        b"".join(_rjc1_frame(batch) for batch in chunk_stream[:old])
    )
    for batch in chunk_stream[old:]:
        journal.append(batch)
    journal.close()
    assert journal.frame_count() == len(chunk_stream)
    for original, replayed in zip(chunk_stream, journal.replay(), strict=True):
        _assert_batches_equal(replayed, original)
    # Tear the last (RJC2) frame; repair keeps every intact frame.
    size = journal.journal_path.stat().st_size
    with open(journal.journal_path, "r+b") as handle:
        handle.truncate(size - chop)
    assert journal.repair() == len(chunk_stream) - 1
    journal.append(chunk_stream[-1])
    journal.close()
    for original, replayed in zip(chunk_stream, journal.replay(), strict=True):
        _assert_batches_equal(replayed, original)


def test_append_replay_roundtrip(tmp_path, chunk_stream):
    journal = SessionJournal(tmp_path / "s")
    for batch in chunk_stream:
        journal.append(batch)
    journal.close()
    assert journal.frame_count() == len(chunk_stream)
    for original, replayed in zip(chunk_stream, journal.replay()):
        _assert_batches_equal(replayed, original)
    # skip= resumes mid-journal
    tail = list(journal.replay(skip=4))
    assert len(tail) == len(chunk_stream) - 4
    _assert_batches_equal(tail[0], chunk_stream[4])


@pytest.mark.parametrize("chop", [1, 10, 1000])
def test_torn_tail_is_detected_and_repaired(tmp_path, chunk_stream, chop):
    journal = SessionJournal(tmp_path / "s")
    for batch in chunk_stream:
        journal.append(batch)
    journal.close()
    # Tear the tail the way a crashed mid-write would.
    size = journal.journal_path.stat().st_size
    with open(journal.journal_path, "r+b") as handle:
        handle.truncate(size - chop)
    assert journal.frame_count() == len(chunk_stream) - 1
    assert journal.repair() == len(chunk_stream) - 1
    # Re-append lands on a clean boundary.
    journal.append(chunk_stream[-1])
    journal.close()
    assert journal.frame_count() == len(chunk_stream)
    _assert_batches_equal(
        list(journal.replay())[-1], chunk_stream[-1]
    )


def test_corrupt_mid_frame_stops_scan_at_damage(tmp_path, chunk_stream):
    journal = SessionJournal(tmp_path / "s")
    offsets = [journal.append(batch) for batch in chunk_stream]
    journal.close()
    # Flip one byte inside frame 2's payload: frames 0-1 stay usable.
    data = bytearray(journal.journal_path.read_bytes())
    data[offsets[2] + 40] ^= 0xFF
    journal.journal_path.write_bytes(bytes(data))
    assert journal.frame_count() == 2
    assert journal.repair() == 2


def test_snapshot_roundtrip_and_pruning(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    for applied in (4, 8, 12):
        journal.write_snapshot(applied, {"applied": applied, "x": [applied]})
    applied, state = journal.load_snapshot()
    assert applied == 12 and state == {"applied": 12, "x": [12]}
    snapshots = sorted(p.name for p in (tmp_path / "s").glob("snapshot-*.pkl"))
    assert len(snapshots) == SNAPSHOTS_KEPT


def test_corrupt_newest_snapshot_falls_back(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    journal.write_snapshot(4, "older")
    newest = journal.write_snapshot(8, "newest")
    data = bytearray(newest.read_bytes())
    data[-1] ^= 0xFF  # bit rot: digest check must reject it
    newest.write_bytes(bytes(data))
    assert journal.load_snapshot() == (4, "older")


def test_no_snapshot_means_empty_state(tmp_path):
    journal = SessionJournal(tmp_path / "s")
    assert journal.load_snapshot() == (0, None)
    assert journal.frame_count() == 0
    assert list(journal.replay()) == []
