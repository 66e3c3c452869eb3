"""The acceptance gate: batch replay == per-record replay, exactly.

``HSM.replay`` over :class:`EventBatch`es must produce metrics identical
(exact counts; derived latencies within 1e-9) to pushing the same events
through the per-tuple oracle (:mod:`tests.oracles.hsm`).
"""

import dataclasses

import pytest

from repro.engine import prepare_stream, replay_policy
from repro.engine.batch import rechunk
from repro.hsm.manager import HSM, HSMConfig
from repro.migration.registry import make_policy
from tests.oracles.hsm import (
    EventCache,
    EventHSM,
    events_from_trace,
    opt_from_events,
)

POLICIES = ("lru", "stp", "saac", "fifo", "mru", "largest-first", "opt")


def run_per_tuple(events, policy_name, capacity, namespace=None,
                  writeback_delay=4 * 3600.0, prefetch=False):
    """The per-tuple oracle: ``EventHSM.run`` over ``events_from_trace`` tuples."""
    if policy_name == "opt":
        policy = opt_from_events((fid, t) for fid, _, t, _ in events)
    else:
        policy = make_policy(policy_name)
    config = HSMConfig.with_capacity(
        capacity, writeback_delay=writeback_delay, prefetch=prefetch
    )
    return EventHSM(config, policy, namespace=namespace).run(events)


@pytest.fixture(scope="module")
def streams(tiny_trace):
    return events_from_trace(tiny_trace), prepare_stream(tiny_trace)


@pytest.mark.parametrize("policy", POLICIES)
def test_metrics_identical_across_paths(policy, tiny_trace, streams):
    events, batches = streams
    capacity = int(tiny_trace.namespace.total_bytes * 0.02)
    legacy = run_per_tuple(events, policy, capacity)
    engine = replay_policy(batches, policy, capacity)
    assert dataclasses.asdict(legacy) == dataclasses.asdict(engine)
    assert engine.mean_read_latency() == pytest.approx(
        legacy.mean_read_latency(), abs=1e-9
    )
    assert engine.person_minutes_per_day() == pytest.approx(
        legacy.person_minutes_per_day(), abs=1e-9
    )


def test_equivalence_with_eager_writeback(tiny_trace, streams):
    events, batches = streams
    capacity = int(tiny_trace.namespace.total_bytes * 0.05)
    legacy = run_per_tuple(events, "stp", capacity, writeback_delay=None)
    engine = replay_policy(batches, "stp", capacity, writeback_delay=None)
    assert dataclasses.asdict(legacy) == dataclasses.asdict(engine)


def test_equivalence_with_prefetch(tiny_trace, streams):
    events, batches = streams
    capacity = int(tiny_trace.namespace.total_bytes * 0.03)
    for policy in ("stp", "lru", "opt", "random", "largest-first"):
        legacy = run_per_tuple(
            events, policy, capacity, namespace=tiny_trace.namespace,
            prefetch=True,
        )
        engine = replay_policy(
            batches, policy, capacity, namespace=tiny_trace.namespace,
            prefetch=True,
        )
        assert dataclasses.asdict(legacy) == dataclasses.asdict(engine), policy


def test_chunk_size_does_not_change_metrics(tiny_trace, streams):
    _, batches = streams
    capacity = int(tiny_trace.namespace.total_bytes * 0.02)
    baseline = replay_policy(batches, "lru", capacity)
    for chunk in (64, 1021, 10**6):
        rechunked = list(rechunk(batches, chunk))
        assert dataclasses.asdict(
            replay_policy(rechunked, "lru", capacity)
        ) == dataclasses.asdict(baseline)


def _drive_both(stream, expect_error=False):
    from repro.hsm.cache import CacheConfig, ManagedDiskCache
    from repro.migration.basic import LRUPolicy

    def build(cls):
        return cls(CacheConfig(capacity_bytes=100), LRUPolicy())

    columns = [list(col) for col in zip(*stream)]
    batch_cache = build(ManagedDiskCache)
    event_cache = build(EventCache)
    if expect_error:
        with pytest.raises(ValueError):
            batch_cache.access_batch(*columns)
        with pytest.raises(ValueError):
            for fid, size, time, write in stream:
                event_cache.access(fid, size, time, write)
    else:
        batch_cache.access_batch(*columns)
        for fid, size, time, write in stream:
            event_cache.access(fid, size, time, write)
    assert batch_cache.metrics == event_cache.metrics
    assert batch_cache.usage_bytes == event_cache.usage_bytes
    assert batch_cache.policy.resident_count == event_cache.policy.resident_count
    return batch_cache


def test_access_batch_partial_failure_matches_per_event():
    """A mid-batch invalid size leaves cache and policy in the same state
    the per-event path would."""
    _drive_both(
        [(1, 10, 0.0, True), (2, 20, 1.0, False), (3, -5, 2.0, False)],
        expect_error=True,
    )


def test_access_batch_oversized_bypass_matches_per_event():
    """Files larger than the cache bypass it identically on both paths."""
    cache = _drive_both(
        [(1, 10, 0.0, True), (2, 500, 1.0, False), (3, 20, 2.0, False),
         (2, 500, 3.0, True)]
    )
    assert cache.metrics.bypassed_reads == 1
    assert cache.metrics.bypassed_writes == 1
    assert not cache.is_resident(2)


def test_hsm_replay_then_flush(tiny_trace):
    batches = prepare_stream(tiny_trace)
    config = HSMConfig.with_capacity(int(tiny_trace.namespace.total_bytes * 0.02))
    from repro.migration.basic import LRUPolicy

    hsm = HSM(config, LRUPolicy())
    metrics = hsm.replay(batches)
    assert metrics.reads + metrics.writes == sum(len(b) for b in batches)
    assert not hsm.cache._dirty  # end-of-run flush happened
