"""Self-healing store cache: quarantine + regeneration under shard damage.

The acceptance bar: a corrupted cached store slot is quarantined (not
silently deleted) and regenerated, with the final sweep rows identical
to a cold run against a pristine cache.
"""

from __future__ import annotations

import pytest

from repro.engine import SweepConfig, quarantine_slot, run_sweep
from repro.engine.store import StoreError, open_or_generate, store_dir_for
from repro.workload.config import WorkloadConfig
from repro.util.units import DAY
from tests.resilience.faults import delete_shard, flip_shard_byte, truncate_shard

TINY = WorkloadConfig(scale=0.002, seed=0, duration_seconds=90.0 * DAY,
                      fill_latencies=False)

SWEEP = dict(
    policies=("lru",),
    capacity_fractions=(0.01, 0.04),
    seeds=(0,),
    scale=0.002,
    duration_days=90.0,
    retry_backoff=0.0,
)


def _rows(result):
    return sorted(
        (row.seed, row.scenario, row.policy, row.capacity_fraction,
         row.capacity_bytes, row.metrics)
        for row in result.rows
    )


def _quarantines(cache, slot):
    return sorted(cache.glob(f"{slot.name}.quarantine-*"))


def test_truncated_slot_quarantined_and_regenerated(tmp_path):
    store = open_or_generate(TINY, tmp_path, variant="hsm")
    slot = store.path
    truncate_shard(slot)

    healed = open_or_generate(TINY, tmp_path, variant="hsm")

    assert healed.path == slot
    healed.verify()  # fully intact again
    assert len(_quarantines(tmp_path, slot)) == 1


def test_missing_shard_slot_quarantined_and_regenerated(tmp_path):
    store = open_or_generate(TINY, tmp_path, variant="hsm")
    delete_shard(store.path)

    healed = open_or_generate(TINY, tmp_path, variant="hsm")
    healed.verify()
    assert len(_quarantines(tmp_path, store.path)) == 1


def test_bit_rot_needs_deep_check(tmp_path):
    """A flipped byte keeps the size: the light validation of a cache hit
    keeps the slot, and only the deep check (``trace verify``) sees it."""
    store = open_or_generate(TINY, tmp_path, variant="hsm")
    flip_shard_byte(store.path)

    assert open_or_generate(TINY, tmp_path, variant="hsm").path == store.path
    assert not _quarantines(tmp_path, store.path)
    with pytest.raises(StoreError, match="checksum mismatch"):
        store.verify()


def test_quarantine_retention_is_bounded(tmp_path):
    # Four pre-existing quarantines with older (sortable) timestamps,
    # as repeated corruption across earlier runs would leave behind.
    slot = tmp_path / "slotdir"
    for stamp in range(4):
        (tmp_path / f"slotdir.quarantine-2026010{stamp}-000000-1").mkdir()
    slot.mkdir()

    fresh = quarantine_slot(slot, keep=3)

    assert fresh is not None and fresh.is_dir()
    remaining = sorted(tmp_path.glob("slotdir.quarantine-*"))
    assert len(remaining) == 3
    assert fresh in remaining  # the newest quarantine survives the prune

    # A vanished slot is not an error (a concurrent healer won the race).
    assert quarantine_slot(tmp_path / "never-existed") is None


def test_sweep_rows_identical_after_cache_corruption(tmp_path):
    """The acceptance check: corrupt the sweep's cached slot between
    runs; the healed run's rows equal a cold run's bit for bit."""
    cold_cache = tmp_path / "cold"
    hurt_cache = tmp_path / "hurt"
    cold = run_sweep(SweepConfig(**SWEEP, cache_dir=str(cold_cache)))

    run_sweep(SweepConfig(**SWEEP, cache_dir=str(hurt_cache)))
    slot = store_dir_for(hurt_cache, TINY, "hsm")
    truncate_shard(slot)

    healed = run_sweep(SweepConfig(**SWEEP, cache_dir=str(hurt_cache)))

    assert _rows(healed) == _rows(cold)
    assert healed.failed_cells == []
    assert len(_quarantines(hurt_cache, slot)) == 1


def test_scenario_compose_cached_heals(tmp_path):
    from repro.scenarios.cache import compose_cached
    from repro.scenarios.library import build_scenario

    spec = build_scenario("ncar-baseline", scale=0.002, seed=0, days=30.0)
    store = compose_cached(spec, tmp_path, variant="scenario-hsm")
    reference = [
        (batch.time.tolist(), batch.file_id.tolist())
        for batch in store.iter_batches()
    ]
    truncate_shard(store.path)

    healed = compose_cached(spec, tmp_path, variant="scenario-hsm")
    healed.verify()
    assert len(_quarantines(tmp_path, store.path)) == 1
    assert [
        (batch.time.tolist(), batch.file_id.tolist())
        for batch in healed.iter_batches()
    ] == reference
