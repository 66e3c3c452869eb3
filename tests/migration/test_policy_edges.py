"""Migration edge cases: oversized evictions, double inserts, OPT ties."""

import pytest

from repro.hsm.cache import CacheConfig
from repro.migration.basic import LRUPolicy
from repro.migration.opt import NEVER, OptimalPolicy
from repro.migration.policy import MigrationPolicy
from repro.migration.saac import SAACPolicy
from tests.oracles.hsm import EventCache


# ---------------------------------------------------------------------------
# Evicting around a file larger than the remaining capacity


def test_insert_larger_than_remaining_capacity_evicts_enough():
    """Staging a file bigger than the free space (but smaller than the
    cache) must evict residents until it physically fits."""
    cache = EventCache(
        CacheConfig(capacity_bytes=100, high_watermark=1.0, low_watermark=1.0),
        LRUPolicy(),
    )
    for fid in range(4):
        cache.access(fid, size=25, time=float(fid), is_write=False)
    assert cache.usage_bytes == 100
    # 60 bytes incoming: at least two 25-byte victims must go.
    outcome = cache.access(9, size=60, time=10.0, is_write=False)
    assert not outcome.hit
    assert len(outcome.evicted) >= 2
    assert cache.is_resident(9)
    assert cache.usage_bytes <= 100
    cache.check_invariants()


def test_file_larger_than_cache_bypasses():
    """A file bigger than the managed disk moves Cray<->tape directly:
    it counts as traffic but never becomes resident or evicts anyone."""
    cache = EventCache(CacheConfig(capacity_bytes=100), LRUPolicy())
    cache.access(7, size=50, time=0.0, is_write=False)

    outcome = cache.access(1, size=101, time=1.0, is_write=False)
    assert not outcome.hit and outcome.evicted == []
    assert not cache.is_resident(1)
    assert cache.metrics.bypassed_reads == 1
    assert cache.metrics.read_misses == 2  # the staging miss + the bypass
    assert cache.metrics.compulsory_misses == 2

    cache.access(1, size=101, time=2.0, is_write=True)
    assert cache.metrics.bypassed_writes == 1
    assert cache.metrics.tape_writes >= 1
    assert cache.usage_bytes == 50  # resident set untouched
    cache.check_invariants()

    with pytest.raises(ValueError, match="positive"):
        cache.access(1, size=0, time=3.0, is_write=False)


def test_eviction_protects_incoming_file():
    """The incoming file is never its own victim, even when it displaces
    everything else on the disk."""
    cache = EventCache(
        CacheConfig(capacity_bytes=100, high_watermark=1.0, low_watermark=1.0),
        LRUPolicy(),
    )
    cache.access(1, size=90, time=0.0, is_write=False)
    outcome = cache.access(2, size=95, time=1.0, is_write=False)
    assert outcome.evicted == [1]
    assert cache.is_resident(2)
    cache.check_invariants()


# ---------------------------------------------------------------------------
# Double inserts


@pytest.mark.parametrize("policy_factory", [MigrationPolicy, LRUPolicy, SAACPolicy])
def test_double_insert_raises(policy_factory):
    policy = policy_factory()
    policy.on_insert(1, size=10, time=0.0)
    with pytest.raises(ValueError, match="already resident"):
        policy.on_insert(1, size=10, time=1.0)
    # The failed insert must not corrupt the original metadata.
    assert policy.metadata(1).inserted_at == 0.0


def test_on_access_batch_missing_file_raises():
    policy = LRUPolicy()
    policy.on_insert(1, size=10, time=0.0)
    with pytest.raises(KeyError):
        policy.on_access_batch([1, 2], [1.0, 2.0])


def test_on_access_batch_matches_per_event_updates():
    a, b = LRUPolicy(), LRUPolicy()
    for policy in (a, b):
        policy.on_insert(1, size=10, time=0.0)
        policy.on_insert(2, size=10, time=0.0)
    a.on_access_batch([1, 2, 1], [1.0, 2.0, 3.0])
    for fid, time in ((1, 1.0), (2, 2.0), (1, 3.0)):
        b.on_access(fid, time, is_write=False)
    for fid in (1, 2):
        assert a.metadata(fid).last_access == b.metadata(fid).last_access
        assert a.metadata(fid).access_count == b.metadata(fid).access_count


def test_saac_gets_per_event_callbacks_from_batch():
    """SAAC overrides on_access, so the batch hook must feed it each
    access (its decayed rates depend on every event)."""
    a, b = SAACPolicy(), SAACPolicy()
    for policy in (a, b):
        policy.on_insert(1, size=10, time=0.0)
    a.on_access_batch([1, 1], [100.0, 200.0])
    b.on_access(1, 100.0, is_write=False)
    b.on_access(1, 200.0, is_write=False)
    assert a._activity[1].decayed_rate == b._activity[1].decayed_rate
    assert a._activity[1].last_update == b._activity[1].last_update


# ---------------------------------------------------------------------------
# OPT on a stream with ties


def test_opt_breaks_next_reference_ties_deterministically():
    """Two files next referenced at the same instant: selection is stable
    and both still outrank a sooner-referenced file."""
    schedule = {1: [100.0], 2: [100.0], 3: [50.0]}
    policy = OptimalPolicy(schedule)
    for fid in (1, 2, 3):
        policy.on_insert(fid, size=10, time=0.0)
    victims = policy.select_victims(25, now=0.0)
    assert set(victims[:2]) == {1, 2}
    assert victims[2:] == [3] if len(victims) > 2 else True
    again = OptimalPolicy(schedule)
    for fid in (1, 2, 3):
        again.on_insert(fid, size=10, time=0.0)
    assert again.select_victims(25, now=0.0) == victims


def test_opt_tie_at_now_is_excluded():
    """A reference exactly at ``now`` is not a *future* reference."""
    policy = OptimalPolicy({1: [10.0], 2: [10.0, 20.0]})
    assert policy.next_reference_after(1, 10.0) == NEVER
    assert policy.next_reference_after(2, 10.0) == 20.0


def test_opt_from_batches_handles_duplicate_times():
    from repro.engine.batch import EventBatch

    batch = EventBatch.from_columns(
        file_id=[5, 5, 6, 5], size=[1] * 4,
        time=[10.0, 10.0, 10.0, 30.0], is_write=[False] * 4,
    )
    policy = OptimalPolicy.from_batches([batch])
    assert policy.next_reference_after(5, 0.0) == 10.0
    assert policy.next_reference_after(5, 10.0) == 30.0
    assert policy.next_reference_after(6, 10.0) == NEVER
