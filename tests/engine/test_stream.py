"""Vectorized stream transforms vs the record-based reference filters."""

import numpy as np
import pytest

from repro.engine.batch import EventBatch
from repro.engine.replay import prepare_stream
from repro.engine.stream import (
    BlockDeduper,
    prepare_batch,
    strip_errors,
)
from repro.hsm.manager import events_from_trace


def test_strip_errors_drops_failed_rows():
    batch = EventBatch.from_columns(
        [0, 1, -1, 2], [1, 1, 0, 1], [0.0, 1.0, 2.0, 3.0],
        [False] * 4, error=[0, 1, 1, 0],
    )
    (out,) = list(strip_errors([batch]))
    assert out.file_id.tolist() == [0, 2]


def test_deduper_keeps_one_per_block_and_direction():
    hour = 3600.0
    batch = EventBatch.from_columns(
        file_id=[7, 7, 7, 7, 7],
        size=[1] * 5,
        time=[0.0, hour, 9 * hour, 9.5 * hour, 30 * hour],
        is_write=[False, False, False, True, False],
    )
    deduper = BlockDeduper(window=8 * hour)
    kept = deduper.apply(batch)
    # Reads: blocks 0, 1, 3 -> three kept; the write is its own stream.
    assert kept.time.tolist() == [0.0, 9 * hour, 9.5 * hour, 30 * hour]


def test_deduper_state_spans_batches():
    hour = 3600.0
    deduper = BlockDeduper(window=8 * hour)
    first = EventBatch.from_columns([3], [1], [0.0], [False])
    second = EventBatch.from_columns([3, 3], [1, 1], [hour, 9 * hour], [False, False])
    assert len(deduper.apply(first)) == 1
    kept = deduper.apply(second)
    # Same block as the first batch's event -> dropped; next block kept.
    assert kept.time.tolist() == [9 * hour]


def test_deduper_rejects_negative_ids():
    batch = EventBatch.from_columns([-1], [1], [0.0], [False])
    with pytest.raises(ValueError):
        BlockDeduper().apply(batch)


def _tuples(batches):
    return [
        event
        for batch in batches
        for event in zip(
            batch.file_id.tolist(), batch.size.tolist(),
            batch.time.tolist(), batch.is_write.tolist(),
        )
    ]


def test_dedupe_matches_record_filter_exactly(tiny_trace):
    """The columnar pipeline reproduces the legacy record walk event for
    event, across batch boundaries (small chunks force carried state)."""
    legacy = events_from_trace(tiny_trace, deduped=True)
    batches = prepare_stream(tiny_trace, deduped=True, chunk_size=257)
    assert _tuples(batches) == legacy


def test_undeduped_stream_matches_legacy(tiny_trace):
    legacy = events_from_trace(tiny_trace, deduped=False)
    engine_n = sum(
        len(b) for b in prepare_stream(tiny_trace, deduped=False, chunk_size=1024)
    )
    assert engine_n == len(legacy)


def test_event_batches_clamp_sizes(tiny_trace):
    for batch in prepare_stream(tiny_trace):
        assert int(batch.size.min()) >= 1
        assert np.all(batch.error == 0)
        assert np.all(batch.file_id >= 0)


def test_prepare_batch_matches_record_walk(tiny_trace):
    """One chunk at a time with a carried deduper (the serve-session
    path) yields the record walk's reference stream, event for event,
    with the optional columns dropped and sizes clamped."""
    for deduped in (True, False):
        deduper = BlockDeduper() if deduped else None
        stepped = [
            prepare_batch(batch, deduper)
            for batch in tiny_trace.iter_batches(chunk_size=300)
        ]
        assert _tuples(stepped) == events_from_trace(tiny_trace, deduped=deduped)
        assert all(b.user is b.latency is b.transfer is None for b in stepped)
    clamped = prepare_batch(EventBatch.from_columns(
        [4, -1, 5], [0, 7, 9], [0.0, 1.0, 2.0], [True, False, False],
        error=[0, 1, 0], user=[1, 2, 3],
    ))
    assert clamped.file_id.tolist() == [4, 5]
    assert clamped.size.tolist() == [1, 9]
