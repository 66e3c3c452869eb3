"""Shared fixtures for the service-layer suite: deterministic chunk
streams shaped like real ingest (globally time-ordered, a few errors,
optional columns present)."""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.engine.batch import EventBatch


def synth_chunks(n_chunks: int = 6, events: int = 400, seed: int = 1,
                 n_files: int = 120) -> List[EventBatch]:
    """A deterministic, globally time-ordered chunked event stream."""
    rng = np.random.default_rng(seed)
    t0 = 0.0
    chunks = []
    for _ in range(n_chunks):
        times = np.sort(t0 + rng.random(events) * 3600.0)
        t0 = float(times[-1])
        chunks.append(EventBatch.from_columns(
            file_id=rng.integers(0, n_files, events),
            size=rng.integers(1, 1 << 20, events),
            time=times,
            is_write=rng.random(events) < 0.3,
            device=rng.integers(0, 3, events),
            error=(rng.random(events) < 0.05).astype(np.int8),
            user=rng.integers(0, 40, events),
            latency=rng.random(events) * 5.0,
            transfer=rng.random(events) * 2.0,
        ))
    return chunks


@pytest.fixture(scope="session")
def chunk_stream() -> List[EventBatch]:
    return synth_chunks()


def raw_chunk(count: int, columns: Sequence[Tuple[str, str, bytes]]) -> bytes:
    """A chunk in the documented raw layout, from (name, dtype.str, bytes).

    ``uint64 events | uint16 table-length | "name:dtype,..." | columns``
    -- written out here independently of the codec under test.
    """
    table = ",".join(f"{name}:{code}" for name, code, _ in columns).encode()
    return (struct.pack("<QH", count, len(table)) + table
            + b"".join(data for _, _, data in columns))


def malformed_chunks() -> Dict[str, bytes]:
    """Chunk payloads the decoder must reject, by defect."""
    required = [("file_id", "<i8"), ("size", "<i8"), ("time", "<f8"),
                ("is_write", "|b1"), ("device", "|i1"), ("error", "|i1")]
    good = [(name, code, np.zeros(2, code).tobytes()) for name, code in required]
    valid = raw_chunk(2, good)

    def file_id_as(code: str) -> bytes:
        return raw_chunk(2, [("file_id", code, bytes(2 * np.dtype(code).itemsize))]
                         + good[1:])

    return {
        "short-header": valid[:5],
        "short-table": valid[:12],
        "column-overrun": valid[:-1],
        "trailing-bytes": valid + b"\0",
        "unknown-column": raw_chunk(2, good + [("bogus", "<i8", bytes(16))]),
        "duplicate-column": raw_chunk(2, good + [good[0]]),
        "missing-column": raw_chunk(2, good[1:]),
        "object-dtype": file_id_as("|O"),
        "unicode-dtype": file_id_as("<U4"),
        "void-dtype": file_id_as("|V8"),
    }
