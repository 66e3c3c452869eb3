"""Vectorized stream transforms vs the record-based reference filters."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import EventBatch
from repro.engine.replay import prepare_stream
from repro.engine.stream import (
    EIGHT_HOURS,
    BlockDeduper,
    prepare_batch,
    strip_errors,
)
from tests.oracles.hsm import events_from_trace
from tests.oracles.records import dedupe_for_file_analysis


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


def _record_filter_keeps(file_id, time, is_write):
    """Row indices the record filter's block rule keeps."""
    records = [
        SimpleNamespace(index=index, mss_path=f"/f{fid}", start_time=t,
                        is_write=write)
        for index, (fid, t, write) in enumerate(zip(file_id, time, is_write))
    ]
    return [record.index for record in dedupe_for_file_analysis(records)]


def _deduper_keeps(batch, cuts=(), restore_at=None):
    """Row indices a deduper keeps when fed ``batch`` split at ``cuts``,
    pickled and restored before the chunk at ``restore_at``."""
    indexed = EventBatch.from_columns(
        batch.file_id, batch.size, batch.time, batch.is_write,
        user=np.arange(len(batch)),
    )
    bounds = [0, *cuts, len(batch)]
    deduper = BlockDeduper()
    kept = []
    for chunk, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if chunk == restore_at:
            deduper = pickle.loads(pickle.dumps(deduper))
        kept += deduper.apply(indexed.slice(start, stop)).user.tolist()
    return kept


@pytest.mark.parametrize("times", [(-10.0, -5.0), (-30_000.0, -29_000.0)])
def test_deduper_keeps_first_read_at_negative_times(times):
    """Both reads fall in one negative block: the first is kept, exactly
    as the record filter keeps it."""
    batch = EventBatch.from_columns([5, 5], [1, 1], list(times), [False, False])
    assert _record_filter_keeps([5, 5], times, [False, False]) == [0]
    assert _deduper_keeps(batch) == [0]
    assert _deduper_keeps(batch, cuts=[1]) == [0]


@st.composite
def _chunked_streams(draw):
    """A time-ordered stream of reads and writes of a few files, split at
    random chunk boundaries, with one pickle round trip in between.

    Times sit on a quarter-hour grid around zero, so duplicate times,
    exact block boundaries and negative blocks all come up.
    """
    n = draw(st.integers(1, 60))
    quarter = EIGHT_HOURS / 32
    start = draw(st.integers(-96, 96))
    steps = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    time = (start + np.cumsum(steps)) * quarter
    file_id = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=6)))
    cuts = [cut for cut in cuts if cut < n]
    restore_at = draw(st.integers(0, len(cuts)))
    batch = EventBatch.from_columns(file_id, [1] * n, time, is_write)
    return batch, cuts, restore_at


@settings(max_examples=300, deadline=None)
@given(_chunked_streams())
def test_deduper_matches_record_filter_across_chunks(stream):
    batch, cuts, restore_at = stream
    expected = _record_filter_keeps(
        batch.file_id.tolist(), batch.time.tolist(), batch.is_write.tolist()
    )
    assert _deduper_keeps(batch, cuts, restore_at) == expected


def test_deduper_state_does_not_grow_with_file_ids():
    """The carried state is the newest block's kept keys, not a table
    indexed by file id."""
    deduper = BlockDeduper()
    deduper.apply(EventBatch.from_columns([10**7], [1], [0.0], [True]))
    assert len(pickle.dumps(deduper)) < 1024


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
