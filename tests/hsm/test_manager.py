"""HSM manager, prefetch, metrics and policy-ordering tests."""

from types import SimpleNamespace

import pytest

from repro.engine import capacity_sweep_batches, prepare_stream, replay_policy
from repro.engine.batch import EventBatch
from repro.hsm.manager import HSM, HSMConfig, events_from_trace
from repro.hsm.metrics import HSMMetrics
from repro.hsm.prefetch import PrefetchConfig, SequentialPrefetcher
from repro.migration.basic import LRUPolicy
from repro.util.units import DAY


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_ratios():
    m = HSMMetrics(reads=100, read_hits=90, read_misses=10, compulsory_misses=4)
    assert m.read_miss_ratio == pytest.approx(0.10)
    assert m.read_hit_ratio == pytest.approx(0.90)
    assert m.capacity_miss_ratio == pytest.approx(0.06)


def test_metrics_empty():
    m = HSMMetrics()
    assert m.read_miss_ratio == 0.0
    assert m.person_minutes_per_day() == 0.0
    assert m.prefetch_accuracy() == 0.0


def test_person_minutes_formula():
    # 10 misses/day at 85 s each = 850 s/day ~= 14.2 person-minutes.
    m = HSMMetrics(reads=100, read_misses=10, span_seconds=1 * DAY)
    assert m.person_minutes_per_day(stall_seconds=85.0) == pytest.approx(
        10 * 85 / 60.0
    )


def test_mean_read_latency_interpolates():
    m = HSMMetrics(reads=10, read_hits=5, read_misses=5)
    assert m.mean_read_latency(hit_latency=10.0, miss_latency=100.0) == pytest.approx(55.0)


# ---------------------------------------------------------------------------
# Prefetcher


def test_prefetcher_candidates(small_namespace):
    big_dir = max(small_namespace.directories, key=lambda d: d.file_count)
    first = small_namespace.files[big_dir.file_ids[0]]
    prefetcher = SequentialPrefetcher(small_namespace, PrefetchConfig(depth=2))
    candidates = prefetcher.candidates(first.file_id)
    assert len(candidates) == 2
    assert candidates[0][0] == big_dir.file_ids[1]


def test_prefetcher_disabled(small_namespace):
    prefetcher = SequentialPrefetcher(
        small_namespace, PrefetchConfig(depth=2, enabled=False)
    )
    assert prefetcher.candidates(0) == []


def test_prefetcher_hit_consumes_once(small_namespace):
    prefetcher = SequentialPrefetcher(small_namespace)
    prefetcher.note_prefetched(5)
    assert prefetcher.consume_hit(5)
    assert not prefetcher.consume_hit(5)


def test_prefetcher_cancel(small_namespace):
    prefetcher = SequentialPrefetcher(small_namespace)
    prefetcher.note_prefetched(5)
    prefetcher.cancel(5)
    assert not prefetcher.consume_hit(5)


# ---------------------------------------------------------------------------
# HSM end to end


def _synthetic_events():
    """A small, repetitive reference stream with reuse."""
    events = []
    time = 0.0
    for cycle in range(8):
        for fid in range(12):
            time += 3600.0
            events.append((fid, 50 + fid * 10, time, cycle == 0))
    return events


def test_hsm_run_accumulates():
    events = _synthetic_events()
    config = HSMConfig.with_capacity(capacity_bytes=10_000)
    hsm = HSM(config, LRUPolicy())
    metrics = hsm.run(events)
    assert metrics.reads + metrics.writes == len(events)
    assert metrics.read_miss_ratio < 0.5   # plenty of reuse and room


def test_hsm_small_cache_misses_more():
    batches = [EventBatch.from_columns(*zip(*_synthetic_events()))]
    big = replay_policy(batches, "lru", capacity_bytes=10_000)
    small = replay_policy(batches, "lru", capacity_bytes=300)
    assert small.read_miss_ratio > big.read_miss_ratio


def test_hsm_prefetch_requires_namespace():
    config = HSMConfig.with_capacity(1000, prefetch=True)
    with pytest.raises(ValueError):
        HSM(config, LRUPolicy(), namespace=None)


class _OneDirectory:
    """Ten 10-byte files in one directory, in sequence order."""

    def __init__(self):
        self.files = [SimpleNamespace(file_id=i, size=10) for i in range(10)]

    def sibling_after(self, entry):
        following = entry.file_id + 1
        return self.files[following] if following < len(self.files) else None


def test_prefetch_evictions_cancel_outstanding_prefetches():
    """A prefetched file that a later prefetch evicts is no longer a
    prefetch: staged again by a demand miss, its next read is no hit."""
    hsm = HSM(HSMConfig.with_capacity(40, prefetch=True), LRUPolicy(),
              namespace=_OneDirectory())
    # 0 misses and prefetches 1, 2; 5's prefetches of 6, 7 evict 1, 2;
    # 1 misses (demand-staged, prefetching 2, 3); then 1 and 2 hit, and
    # only 2 was staged by a prefetch.
    for time, file_id in enumerate([0, 5, 1, 1, 2]):
        hsm.handle((file_id, 10, float(time), False))
    assert hsm.metrics.prefetches_issued == 6
    assert hsm.metrics.read_hits == 2
    assert hsm.metrics.prefetch_hits == 1


def test_events_from_trace_structure(tiny_trace):
    events = events_from_trace(tiny_trace)
    assert events, "expected a non-empty event stream"
    times = [t for _, _, t, _ in events]
    assert times == sorted(times)
    for file_id, size, _, is_write in events[:100]:
        assert size >= 1
        assert 0 <= file_id < tiny_trace.namespace.file_count
        assert isinstance(is_write, bool)


def test_events_from_trace_dedupe_reduces(tiny_trace):
    deduped = events_from_trace(tiny_trace, deduped=True)
    raw = events_from_trace(tiny_trace, deduped=False)
    assert len(deduped) < len(raw)


def test_opt_is_lower_bound(tiny_trace):
    batches = prepare_stream(tiny_trace)
    capacity = int(tiny_trace.namespace.total_bytes * 0.02)
    opt = replay_policy(batches, "opt", capacity, namespace=tiny_trace.namespace)
    lru = replay_policy(batches, "lru", capacity, namespace=tiny_trace.namespace)
    stp = replay_policy(batches, "stp", capacity, namespace=tiny_trace.namespace)
    assert opt.read_miss_ratio <= lru.read_miss_ratio + 1e-9
    assert opt.read_miss_ratio <= stp.read_miss_ratio + 1e-9


def test_policy_ordering_matches_literature(calib_trace):
    """Lawrie/Smith: STP best of the simple online policies; size-only and
    MRU are poor."""
    batches = prepare_stream(calib_trace)
    capacity = int(calib_trace.namespace.total_bytes * 0.015)
    results = {
        name: replay_policy(batches, name, capacity, namespace=calib_trace.namespace)
        for name in ("stp", "lru", "largest-first", "mru", "random")
    }
    assert results["stp"].read_miss_ratio <= results["lru"].read_miss_ratio + 0.01
    assert results["stp"].read_miss_ratio < results["largest-first"].read_miss_ratio
    assert results["stp"].read_miss_ratio < results["mru"].read_miss_ratio
    assert results["stp"].read_miss_ratio < results["random"].read_miss_ratio


def test_capacity_sweep_monotone(tiny_trace):
    batches = prepare_stream(tiny_trace)
    total = tiny_trace.namespace.total_bytes
    fractions = [0.005, 0.02, 0.08]
    misses = [
        metrics.read_miss_ratio
        for _, metrics in capacity_sweep_batches(batches, "stp", total, fractions)
    ]
    assert misses[0] >= misses[1] >= misses[2]


def test_lazy_writeback_saves_tape_writes(tiny_trace):
    batches = prepare_stream(tiny_trace)
    capacity = int(tiny_trace.namespace.total_bytes * 0.05)
    lazy = replay_policy(batches, "stp", capacity, writeback_delay=8 * 3600.0)
    eager = replay_policy(batches, "stp", capacity, writeback_delay=None)
    assert lazy.tape_writes <= eager.tape_writes
    assert lazy.rewrites_absorbed >= 0


def test_prefetch_improves_miss_ratio(calib_trace):
    """Sequential prefetch should convert sibling misses into hits."""
    batches = prepare_stream(calib_trace)
    capacity = int(calib_trace.namespace.total_bytes * 0.03)
    plain = replay_policy(batches, "stp", capacity, namespace=calib_trace.namespace)
    fetched = replay_policy(
        batches, "stp", capacity, namespace=calib_trace.namespace, prefetch=True
    )
    assert fetched.prefetches_issued > 0
    assert fetched.prefetch_hits > 0
    assert fetched.read_miss_ratio < plain.read_miss_ratio
