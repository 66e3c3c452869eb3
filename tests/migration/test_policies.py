"""Migration-policy unit tests."""

import pytest

from repro.migration.basic import (
    FIFOPolicy,
    LRUPolicy,
    LargestFirstPolicy,
    MRUPolicy,
    RandomPolicy,
    SmallestFirstPolicy,
)
from repro.migration.opt import NEVER, OptimalPolicy
from repro.migration.policy import MigrationPolicy, ResidentFile
from repro.migration.registry import available_policies, make_policy, register_policy
from repro.migration.saac import SAACPolicy
from repro.migration.stp import SpaceTimePolicy, classic_stp, stp_14
from repro.util.units import DAY
from tests.oracles.hsm import opt_from_events


def _loaded(policy: MigrationPolicy):
    """Three resident files with distinct ages and sizes."""
    policy.on_insert(1, size=100, time=0.0)     # old, small
    policy.on_insert(2, size=10_000, time=50.0)  # mid, large
    policy.on_insert(3, size=500, time=90.0)     # young
    return policy


# ---------------------------------------------------------------------------
# Bookkeeping


def test_insert_access_evict_cycle():
    policy = _loaded(LRUPolicy())
    assert policy.resident_count == 3
    policy.on_access(1, time=95.0, is_write=False)
    assert policy.metadata(1).last_access == 95.0
    assert policy.metadata(1).access_count == 2
    policy.on_evict(1)
    assert not policy.is_resident(1)
    assert policy.resident_count == 2


def test_double_insert_rejected():
    policy = _loaded(LRUPolicy())
    with pytest.raises(ValueError):
        policy.on_insert(1, 5, 100.0)


def test_access_or_evict_of_missing_rejected():
    policy = LRUPolicy()
    with pytest.raises(KeyError):
        policy.on_access(9, 0.0, False)
    with pytest.raises(KeyError):
        policy.on_evict(9)


# ---------------------------------------------------------------------------
# Victim selection mechanics


def test_select_victims_frees_enough():
    policy = _loaded(LRUPolicy())
    victims = policy.select_victims(needed_bytes=10_050, now=100.0)
    freed = sum(policy.metadata(v).size for v in victims)
    assert freed >= 10_050


def test_select_victims_protects_named_file():
    policy = _loaded(LRUPolicy())
    victims = policy.select_victims(10**9, now=100.0, protect=2)
    assert 2 not in victims


def test_select_victims_empty_policy():
    assert LRUPolicy().select_victims(100, now=0.0) == []


# ---------------------------------------------------------------------------
# Ranking semantics


def test_lru_picks_least_recent():
    policy = _loaded(LRUPolicy())
    policy.on_access(1, time=99.0, is_write=False)
    victims = policy.select_victims(1, now=100.0)
    assert victims[0] == 2  # file 1 is now fresh; 2 older than 3


def test_mru_is_opposite_of_lru():
    lru = _loaded(LRUPolicy())
    mru = _loaded(MRUPolicy())
    assert lru.select_victims(1, now=100.0)[0] != mru.select_victims(1, now=100.0)[0]


def test_fifo_ignores_accesses():
    policy = _loaded(FIFOPolicy())
    policy.on_access(1, time=99.0, is_write=False)
    assert policy.select_victims(1, now=100.0)[0] == 1  # oldest insert


def test_size_policies():
    assert _loaded(LargestFirstPolicy()).select_victims(1, now=100.0)[0] == 2
    assert _loaded(SmallestFirstPolicy()).select_victims(1, now=100.0)[0] == 1


def test_random_policy_is_seeded():
    a = _loaded(RandomPolicy(seed=5)).select_victims(1, now=100.0)
    b = _loaded(RandomPolicy(seed=5)).select_victims(1, now=100.0)
    assert a == b


# ---------------------------------------------------------------------------
# STP


def test_stp_rank_formula():
    policy = SpaceTimePolicy(time_exponent=1.4, size_exponent=1.0)
    meta = ResidentFile(file_id=1, size=100, inserted_at=0.0, last_access=10.0)
    assert policy.rank(meta, now=110.0) == pytest.approx(100 * (100.0 ** 1.4))


def test_stp_prefers_large_and_old():
    policy = _loaded(stp_14())
    # File 1: age 100, size 100 -> 100 * 100^1.4 ~= 63,096
    # File 2: age 50, size 10,000 -> 10,000 * 50^1.4 ~= 2.39e6  <- largest
    assert policy.select_victims(1, now=100.0)[0] == 2


def test_stp_age_zero_rank_zero():
    policy = stp_14()
    meta = ResidentFile(file_id=1, size=100, inserted_at=0.0, last_access=50.0)
    assert policy.rank(meta, now=50.0) == 0.0


def test_stp_validation_and_names():
    with pytest.raises(ValueError):
        SpaceTimePolicy(time_exponent=-1)
    assert "1.4" in stp_14().name
    assert classic_stp().time_exponent == 1.0


# ---------------------------------------------------------------------------
# SAAC


def test_saac_prefers_cooling_files():
    policy = SAACPolicy(half_life=1 * DAY)
    # Both inserted together; "hot" keeps being accessed, "cooling" stops.
    policy.on_insert(1, size=1000, time=0.0)
    policy.on_insert(2, size=1000, time=0.0)
    for day in range(1, 9):
        policy.on_access(1, time=day * DAY, is_write=False)
        if day <= 4:
            policy.on_access(2, time=day * DAY, is_write=False)
    victims = policy.select_victims(1, now=9 * DAY)
    assert victims[0] == 2


def test_saac_validation():
    with pytest.raises(ValueError):
        SAACPolicy(half_life=0)


def test_saac_eviction_cleans_activity():
    policy = SAACPolicy()
    policy.on_insert(1, 10, 0.0)
    policy.on_evict(1)
    assert 1 not in policy._activity


# ---------------------------------------------------------------------------
# OPT


def test_opt_evicts_farthest_future():
    schedule = {1: [100.0, 200.0], 2: [150.0], 3: [105.0]}
    policy = OptimalPolicy(schedule)
    for fid in (1, 2, 3):
        policy.on_insert(fid, 10, 0.0)
    # At t=100: next refs are 1 -> 200, 2 -> 150, 3 -> 105.
    assert policy.select_victims(1, now=100.0)[0] == 1


def test_opt_never_referenced_goes_first():
    policy = OptimalPolicy({1: [50.0], 2: [60.0]})
    policy.on_insert(1, 10, 0.0)
    policy.on_insert(2, 10, 0.0)
    policy.on_insert(3, 10, 0.0)  # no future references at all
    assert policy.select_victims(1, now=0.0)[0] == 3


def test_opt_next_reference_after():
    policy = OptimalPolicy({1: [10.0, 20.0]})
    assert policy.next_reference_after(1, 5.0) == 10.0
    assert policy.next_reference_after(1, 10.0) == 20.0
    assert policy.next_reference_after(1, 20.0) == NEVER
    assert policy.next_reference_after(2, 0.0) == NEVER


def test_opt_from_events():
    policy = opt_from_events([(1, 30.0), (1, 10.0), (2, 5.0)])
    assert policy.next_reference_after(1, 0.0) == 10.0


# ---------------------------------------------------------------------------
# Registry


def test_registry_contents():
    names = available_policies()
    for expected in ("stp", "lru", "fifo", "saac", "random", "largest-first"):
        assert expected in names


def test_make_policy():
    assert isinstance(make_policy("lru"), LRUPolicy)
    assert isinstance(make_policy("stp"), SpaceTimePolicy)
    with pytest.raises(ValueError):
        make_policy("bogus")


def test_make_policy_seeds_stochastic_policies():
    """Regression: every sweep cell used to get the factory default
    ``RandomPolicy(seed=0)``, so all cells shared one victim RNG."""
    a = _loaded(make_policy("random", seed=5)).select_victims(1, now=100.0)
    b = _loaded(make_policy("random", seed=5)).select_victims(1, now=100.0)
    assert a == b  # deterministic per seed
    draws = {
        tuple(
            _loaded(make_policy("random", seed=seed)).select_victims(
                3, now=100.0
            )
        )
        for seed in range(8)
    }
    assert len(draws) > 1  # different seeds draw different victim streams
    # Deterministic policies accept and ignore the seed.
    assert isinstance(make_policy("lru", seed=7), LRUPolicy)


def test_register_policy_rejects_duplicates():
    with pytest.raises(ValueError):
        register_policy("lru", LRUPolicy)
