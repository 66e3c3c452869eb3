"""Managed-disk cache tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hsm.cache import CacheConfig, ManagedDiskCache
from repro.migration.basic import LRUPolicy
from repro.migration.stp import stp_14
from tests.oracles.hsm import EventCache


def _cache(capacity=1000, writeback_delay=100.0, policy=None,
           cls=EventCache, **kwargs):
    config = CacheConfig(
        capacity_bytes=capacity, writeback_delay=writeback_delay, **kwargs
    )
    return cls(config, policy or LRUPolicy())


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=0)
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=10, high_watermark=0.5, low_watermark=0.9)


def test_read_miss_then_hit():
    cache = _cache()
    first = cache.access(1, 100, 0.0, is_write=False)
    assert not first.hit
    assert first.staged_bytes == 100
    second = cache.access(1, 100, 10.0, is_write=False)
    assert second.hit
    metrics = cache.metrics
    assert metrics.reads == 2
    assert metrics.read_misses == 1
    assert metrics.compulsory_misses == 1
    assert metrics.read_miss_ratio == pytest.approx(0.5)


def test_compulsory_vs_capacity_misses():
    cache = _cache(capacity=250, high_watermark=1.0, low_watermark=0.9)
    cache.access(1, 200, 0.0, is_write=False)   # compulsory
    cache.access(2, 200, 1.0, is_write=False)   # compulsory; evicts 1
    cache.access(1, 200, 2.0, is_write=False)   # capacity miss
    assert cache.metrics.read_misses == 3
    assert cache.metrics.compulsory_misses == 2
    assert cache.metrics.capacity_miss_ratio == pytest.approx(1 / 3)


def test_write_makes_dirty_then_flushes():
    cache = _cache(writeback_delay=50.0)
    cache.access(1, 100, 0.0, is_write=True)
    assert cache.is_dirty(1)
    assert cache.metrics.tape_writes == 0
    cache.flush_due(60.0)
    assert not cache.is_dirty(1)
    assert cache.metrics.tape_writes == 1
    assert cache.metrics.bytes_flushed == 100


def test_write_through_mode():
    cache = _cache(writeback_delay=None)
    cache.access(1, 100, 0.0, is_write=True)
    assert not cache.is_dirty(1)
    assert cache.metrics.tape_writes == 1


def test_rewrite_absorbs_pending_flush():
    cache = _cache(writeback_delay=100.0)
    cache.access(1, 100, 0.0, is_write=True)
    cache.access(1, 100, 10.0, is_write=True)   # re-written before flushing
    assert cache.metrics.rewrites_absorbed == 1
    cache.flush_due(200.0)
    # Only one tape write for two logical writes: lazy write-back pays off.
    assert cache.metrics.tape_writes == 1


def test_eviction_of_dirty_file_forces_flush():
    cache = _cache(capacity=250, writeback_delay=1e9,
                   high_watermark=1.0, low_watermark=0.9)
    cache.access(1, 200, 0.0, is_write=True)
    cache.access(2, 200, 1.0, is_write=False)   # forces eviction of dirty 1
    assert cache.metrics.forced_flushes == 1
    assert cache.metrics.tape_writes == 1
    assert not cache.is_resident(1)


def test_watermark_eviction_to_low():
    cache = _cache(capacity=1000, high_watermark=0.8, low_watermark=0.5)
    for i in range(7):
        cache.access(i, 100, float(i), is_write=False)
    # Usage 700; adding 200 crosses 800 -> evict down to 500 - incoming.
    cache.access(99, 200, 10.0, is_write=False)
    assert cache.usage_bytes <= 500
    assert cache.metrics.evictions >= 3


def test_file_larger_than_cache_bypasses():
    # Oversized files move Cray<->tape directly instead of erroring out
    # (they can never be staged, but the reference itself is legal).
    cache = _cache(capacity=100)
    outcome = cache.access(1, 500, 0.0, is_write=False)
    assert not outcome.hit
    assert not cache.is_resident(1)
    assert cache.metrics.bypassed_reads == 1
    with pytest.raises(ValueError):
        cache.access(1, 0, 0.0, is_write=False)


def test_flush_all():
    cache = _cache(writeback_delay=1e9)
    cache.access(1, 100, 0.0, is_write=True)
    cache.access(2, 100, 1.0, is_write=True)
    assert cache.flush_all() == 2
    assert cache.metrics.tape_writes == 2


def test_span_tracking():
    cache = _cache()
    cache.access(1, 10, 100.0, is_write=False)
    cache.access(2, 10, 400.0, is_write=False)
    assert cache.metrics.span_seconds == pytest.approx(300.0)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),    # file id
            st.integers(min_value=1, max_value=400),   # size
            st.booleans(),                             # is_write
        ),
        min_size=1,
        max_size=120,
    ),
    st.sampled_from(["lru", "stp"]),
)
@settings(max_examples=60, deadline=None)
def test_cache_invariants_hold_under_any_workload(events, policy_name):
    """Capacity never exceeded; policy and cache agree; dirty <= resident."""
    policy = LRUPolicy() if policy_name == "lru" else stp_14()
    cache = _cache(capacity=1000, writeback_delay=500.0, policy=policy)
    sizes = {}
    time = 0.0
    for file_id, size, is_write in events:
        # Keep a stable size per file id, as real files have.
        size = sizes.setdefault(file_id, size)
        time += 10.0
        cache.access(file_id, size, time, is_write)
        cache.check_invariants()
    cache.flush_all()
    cache.check_invariants()
    metrics = cache.metrics
    assert metrics.reads + metrics.writes == len(events)
    assert metrics.read_hits + metrics.read_misses == metrics.reads
    assert metrics.compulsory_misses <= metrics.read_misses


# ---------------------------------------------------------------------------
# Batch splitting around degenerate sizes


def _mixed_stream():
    """Clean spans around two oversized events and a repeated bypass."""
    stream = []
    t = 0.0
    for i in range(40):                       # clean span 1
        stream.append((i % 7, 50, t, i % 3 == 0))
        t += 1.0
    stream.append((100, 5000, t, False))      # oversized read
    t += 1.0
    for i in range(40):                       # clean span 2
        stream.append((i % 5, 60, t, i % 4 == 0))
        t += 1.0
    stream.append((100, 5000, t, True))       # oversized write
    t += 1.0
    for i in range(20):                       # clean span 3
        stream.append((i % 3, 40, t, False))
        t += 1.0
    return stream


def test_access_batch_split_matches_per_event():
    """A batch with scattered oversized events must produce exactly the
    per-event metrics and state (the split path is semantics-preserving)."""
    stream = _mixed_stream()
    columns = [list(col) for col in zip(*stream)]
    batch_cache = _cache(capacity=1000, writeback_delay=50.0,
                         cls=ManagedDiskCache)
    event_cache = _cache(capacity=1000, writeback_delay=50.0)
    batch_cache.access_batch(*columns)
    for fid, size, time, write in stream:
        event_cache.access(fid, size, time, write)
    assert batch_cache.metrics == event_cache.metrics
    assert batch_cache.usage_bytes == event_cache.usage_bytes
    assert batch_cache.metrics.bypassed_reads == 1
    assert batch_cache.metrics.bypassed_writes == 1
    batch_cache.check_invariants()


def test_access_batch_split_keeps_fast_path_for_clean_spans(monkeypatch):
    """Only the degenerate events are handled one at a time: each clean
    span between them runs the buffered fast loop whole."""
    spans = []
    fast = ManagedDiskCache._access_batch_fast

    def _record_span(self, file_ids, *rest):
        spans.append(len(file_ids))
        return fast(self, file_ids, *rest)

    monkeypatch.setattr(ManagedDiskCache, "_access_batch_fast", _record_span)
    cache = _cache(capacity=1000, writeback_delay=None, cls=ManagedDiskCache)
    stream = _mixed_stream()
    cache.access_batch(*[list(col) for col in zip(*stream)])
    assert spans == [40, 40, 20]
    assert cache.metrics.reads > 0
    assert cache.metrics.bypassed_reads == 1


def test_access_batch_split_raises_on_bad_size_after_prefix():
    """A nonpositive size raises exactly where the per-event path would,
    with every earlier event (including a clean span) already applied."""
    cache = _cache(capacity=1000, writeback_delay=None, cls=ManagedDiskCache)
    with pytest.raises(ValueError, match="size must be positive"):
        cache.access_batch(
            [1, 2, 3], [10, -5, 20], [0.0, 1.0, 2.0], [True, False, False]
        )
    # The prefix landed; the bad event and its successors did not.
    assert cache.metrics.writes == 1
    assert cache.metrics.reads == 0
    assert cache.is_resident(1)
    assert cache.metrics.span_seconds == 0.0
