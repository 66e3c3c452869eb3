"""Columnar trace-store tests: round-trip, cache keying, memmap behavior."""

import json

import numpy as np
import pytest

from repro.engine.batch import EventBatch, rechunk
from repro.engine.store import (
    StoreError,
    TraceStore,
    config_hash,
    open_cached,
    open_or_generate,
    store_dir_for,
    write_cached,
)
from repro.workload.config import NCAR_TEST_CONFIG, WorkloadConfig
from repro.workload.generator import generate_trace

ALL_COLUMNS = (
    "file_id", "size", "time", "is_write", "device", "error",
    "user", "latency", "transfer",
)


def small_batch(n=5, t0=0.0, optional=True):
    kwargs = {}
    if optional:
        kwargs = dict(
            user=np.arange(n), latency=np.linspace(0, 1, n),
            transfer=np.linspace(1, 2, n),
        )
    return EventBatch.from_columns(
        file_id=np.arange(n),
        size=np.full(n, 100),
        time=t0 + np.arange(n, dtype=float),
        is_write=(np.arange(n) % 2).astype(bool),
        device=np.zeros(n, dtype=np.int8),
        error=np.zeros(n, dtype=np.int8),
        **kwargs,
    )


def assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ALL_COLUMNS:
            a, b = getattr(g, name), getattr(w, name)
            if b is None:
                assert a is None, name
            else:
                assert a is not None, name
                assert np.asarray(a).dtype == np.asarray(b).dtype, name
                assert np.array_equal(np.asarray(a), np.asarray(b)), name


# ---------------------------------------------------------------------------
# Round-trip


@pytest.fixture(scope="module")
def test_trace():
    return generate_trace(NCAR_TEST_CONFIG)


def test_round_trip_is_bit_identical(tmp_path, test_trace):
    """Every column of every batch survives the disk round-trip exactly."""
    store = TraceStore.write(
        tmp_path / "s", test_trace.iter_batches(chunk_size=4096),
        config=NCAR_TEST_CONFIG,
    )
    reopened = TraceStore.open(tmp_path / "s")
    assert reopened.n_events == test_trace.n_events
    assert_batches_equal(
        reopened.batches(), list(test_trace.iter_batches(chunk_size=4096))
    )


def test_round_trip_without_optional_columns(tmp_path):
    batches = [small_batch(optional=False), small_batch(t0=10.0, optional=False)]
    store = TraceStore.write(tmp_path / "s", batches)
    got = store.batches()
    assert store.columns == ["file_id", "size", "time", "is_write", "device", "error"]
    assert_batches_equal(got, batches)
    assert got[0].user is None and got[0].latency is None


def test_empty_batches_are_dropped(tmp_path):
    batches = [EventBatch.empty(), small_batch(), EventBatch.empty(),
               small_batch(t0=10.0)]
    store = TraceStore.write(tmp_path / "s", batches)
    assert store.n_shards == 2
    assert_batches_equal(store.batches(), [b for b in batches if len(b)])


def test_empty_stream_round_trips(tmp_path):
    store = TraceStore.write(tmp_path / "s", [EventBatch.empty()])
    assert store.n_events == 0 and store.n_shards == 0
    assert store.batches() == []
    assert store.span_seconds == 0.0
    store.verify()


def test_inconsistent_columns_rejected(tmp_path):
    with pytest.raises(StoreError, match="inconsistent columns"):
        TraceStore.write(
            tmp_path / "s", [small_batch(), small_batch(optional=False)]
        )


def test_existing_store_not_clobbered(tmp_path):
    TraceStore.write(tmp_path / "s", [small_batch()])
    with pytest.raises(StoreError, match="already exists"):
        TraceStore.write(tmp_path / "s", [small_batch()])
    TraceStore.write(tmp_path / "s", [small_batch()], overwrite=True)


def test_open_rejects_non_stores(tmp_path):
    with pytest.raises(StoreError):
        TraceStore.open(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(StoreError, match="not a"):
        TraceStore.open(tmp_path)


def test_verify_catches_bit_rot(tmp_path):
    store = TraceStore.write(tmp_path / "s", [small_batch()])
    store.verify()
    victim = next((tmp_path / "s").glob("shard-00000.time.npy"))
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(StoreError, match="checksum mismatch"):
        TraceStore.open(tmp_path / "s").verify()


# ---------------------------------------------------------------------------
# Memmapped (read-only) batches through the batch transforms


@pytest.fixture()
def mapped(tmp_path):
    batches = [small_batch(), small_batch(t0=10.0)]
    return TraceStore.write(tmp_path / "s", batches).batches()


def test_mapped_arrays_are_read_only(mapped):
    assert isinstance(mapped[0].time, np.memmap)
    assert not mapped[0].time.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        mapped[0].time[0] = 99.0


def test_select_and_good_on_mapped(mapped):
    batch = mapped[0]
    picked = batch.select(batch.is_write)
    assert np.array_equal(np.asarray(picked.file_id), [1, 3])
    assert len(batch.good()) == len(batch)  # no errors in the fixture


def test_concat_and_rechunk_on_mapped(mapped):
    merged = EventBatch.concat(mapped)
    assert len(merged) == sum(len(b) for b in mapped)
    assert merged.time.flags.writeable  # concat copies off the maps
    chunks = list(rechunk(iter(mapped), chunk_size=3))
    assert sum(len(c) for c in chunks) == sum(len(b) for b in mapped)
    assert all(len(c) <= 3 for c in chunks)
    assert_batches_equal([EventBatch.concat(chunks)], [merged])


def test_store_rechunks_on_read(tmp_path):
    store = TraceStore.write(tmp_path / "s", [small_batch(n=10)])
    sizes = [len(b) for b in store.iter_batches(chunk_size=4)]
    assert sizes == [4, 4, 2]


# ---------------------------------------------------------------------------
# Content-addressed cache


def test_config_hash_sensitivity():
    base = WorkloadConfig(scale=0.004, seed=7)
    assert config_hash(base) == config_hash(WorkloadConfig(scale=0.004, seed=7))
    assert config_hash(base) != config_hash(WorkloadConfig(scale=0.004, seed=8))
    assert config_hash(base) != config_hash(base, variant="hsm")
    assert config_hash(base) != config_hash(base, generator_version=999)


def test_open_cached_miss_then_hit(tmp_path, test_trace):
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is None
    write_cached(
        NCAR_TEST_CONFIG, tmp_path, test_trace.iter_batches(),
        total_bytes=test_trace.namespace.total_bytes,
    )
    store = open_cached(NCAR_TEST_CONFIG, tmp_path)
    assert store is not None
    assert store.path == store_dir_for(tmp_path, NCAR_TEST_CONFIG)
    assert store.total_bytes == test_trace.namespace.total_bytes
    assert_batches_equal(store.batches(), list(test_trace.iter_batches()))


def test_generator_version_bump_invalidates(tmp_path, test_trace, monkeypatch):
    write_cached(NCAR_TEST_CONFIG, tmp_path, test_trace.iter_batches())
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is not None
    import repro.workload.generator as generator

    monkeypatch.setattr(generator, "GENERATOR_VERSION", 9999)
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is None


def test_v2_store_never_served_after_v3_bump(tmp_path, test_trace, monkeypatch):
    """A store captured under generator v2 (the pre-vectorization stream)
    must not satisfy a warm open under v3: ``open_or_generate`` has to
    regenerate, and the fresh manifest records the current version."""
    import repro.workload.generator as generator

    from repro.workload.generator import GENERATOR_VERSION

    # Capture the slot as the *old* pipeline would have keyed it.
    monkeypatch.setattr(generator, "GENERATOR_VERSION", 2)
    stale = write_cached(NCAR_TEST_CONFIG, tmp_path, test_trace.iter_batches())
    assert stale.manifest["generator_version"] == 2
    monkeypatch.undo()

    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is None
    fresh = open_or_generate(NCAR_TEST_CONFIG, tmp_path)
    assert fresh.manifest["generator_version"] == GENERATOR_VERSION
    assert fresh.path != stale.path  # the stale slot is simply unaddressed
    assert fresh.n_events > 0


def test_open_or_generate_generates_once(tmp_path, test_trace):
    store = open_or_generate(NCAR_TEST_CONFIG, tmp_path)
    assert store.n_events == test_trace.n_events
    manifest_before = (store.path / "manifest.json").stat().st_mtime_ns
    again = open_or_generate(NCAR_TEST_CONFIG, tmp_path)
    assert (again.path / "manifest.json").stat().st_mtime_ns == manifest_before
    assert_batches_equal(again.batches(), list(test_trace.iter_batches()))


def test_open_or_generate_hsm_variant(tmp_path, test_trace):
    from repro.engine.replay import prepare_stream

    store = open_or_generate(NCAR_TEST_CONFIG, tmp_path, variant="hsm")
    want = prepare_stream(test_trace, deduped=True)
    assert store.columns == ["file_id", "size", "time", "is_write", "device", "error"]
    assert_batches_equal(store.batches(), want)
    with pytest.raises(ValueError, match="unknown store variant"):
        open_or_generate(NCAR_TEST_CONFIG, tmp_path, variant="nope")


def test_write_cached_evicts_corrupt_slot(tmp_path, test_trace):
    """A corrupt occupant of the cache slot is replaced, not a wedge."""
    target = store_dir_for(tmp_path, NCAR_TEST_CONFIG)
    target.mkdir(parents=True)
    (target / "manifest.json").write_text("{ not json")
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is None
    store = write_cached(
        NCAR_TEST_CONFIG, tmp_path, test_trace.iter_batches(),
        total_bytes=test_trace.namespace.total_bytes,
    )
    assert store.path == target
    store.verify()
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is not None
    # No staging debris left behind.
    assert not list(tmp_path.glob(".tmp-*"))


def test_overwrite_removes_orphan_shards(tmp_path):
    TraceStore.write(
        tmp_path / "s", [small_batch(), small_batch(t0=10.0), small_batch(t0=20.0)]
    )
    assert len(list((tmp_path / "s").glob("shard-*.npy"))) == 27
    store = TraceStore.write(tmp_path / "s", [small_batch()], overwrite=True)
    assert store.n_shards == 1
    assert len(list((tmp_path / "s").glob("shard-*.npy"))) == 9
    store.verify()


# ---------------------------------------------------------------------------
# Integrity checks and self-healing (the resilience layer)


def test_verify_catches_truncated_shard(tmp_path):
    store = TraceStore.write(tmp_path / "s", [small_batch()])
    shard = next((tmp_path / "s").glob("shard-*.npy"))
    data = shard.read_bytes()
    shard.write_bytes(data[: len(data) // 2])
    with pytest.raises(StoreError, match="truncated shard"):
        TraceStore.open(tmp_path / "s").verify()
    with pytest.raises(StoreError, match="truncated shard"):
        TraceStore.open(tmp_path / "s").validate_light()


def test_verify_catches_missing_shard(tmp_path):
    store = TraceStore.write(tmp_path / "s", [small_batch()])
    next((tmp_path / "s").glob("shard-*.npy")).unlink()
    with pytest.raises(StoreError, match="missing shard"):
        TraceStore.open(tmp_path / "s").verify()
    with pytest.raises(StoreError, match="missing shard"):
        TraceStore.open(tmp_path / "s").validate_light()
    del store


def test_validate_light_misses_bit_rot(tmp_path):
    """Light validation is size-only by design: same-size damage needs
    verify() -- that asymmetry is why open_or_generate has check levels."""
    TraceStore.write(tmp_path / "s", [small_batch()])
    shard = next((tmp_path / "s").glob("shard-*.npy"))
    data = bytearray(shard.read_bytes())
    data[-1] ^= 0xFF
    shard.write_bytes(bytes(data))
    store = TraceStore.open(tmp_path / "s")
    store.validate_light()  # size unchanged: passes
    with pytest.raises(StoreError, match="checksum mismatch"):
        store.verify()


def test_validate_light_tolerates_presize_manifests(tmp_path):
    """Stores written before per-shard sizes were recorded still
    validate (existence-only fallback), and still fail on deletion."""
    TraceStore.write(tmp_path / "s", [small_batch()])
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["shards"]:
        del entry["nbytes"]
    manifest_path.write_text(json.dumps(manifest))
    store = TraceStore.open(tmp_path / "s")
    store.validate_light()
    next((tmp_path / "s").glob("shard-*.npy")).unlink()
    with pytest.raises(StoreError, match="missing shard"):
        store.validate_light()


def test_stale_staging_swept_by_ttl(tmp_path, test_trace):
    """A SIGKILLed writer's staging dir is reclaimed once it ages past
    the TTL; a fresh one (a live concurrent writer) is left alone."""
    import os

    from repro.engine.store import sweep_stale_staging

    stale = tmp_path / ".tmp-deadslot-abc123"
    stale.mkdir(parents=True)
    (stale / "shard-00000.time.npy").write_bytes(b"partial write")
    old = 7 * 3600.0
    os.utime(stale, (stale.stat().st_atime - old, stale.stat().st_mtime - old))
    fresh = tmp_path / ".tmp-liveslot-def456"
    fresh.mkdir()

    assert sweep_stale_staging(tmp_path) == 1
    assert not stale.exists()
    assert fresh.is_dir()

    # The next writer entry does the same sweep implicitly.
    stale.mkdir()
    os.utime(stale, (stale.stat().st_atime - old, stale.stat().st_mtime - old))
    write_cached(
        NCAR_TEST_CONFIG, tmp_path, test_trace.iter_batches(),
        total_bytes=test_trace.namespace.total_bytes,
    )
    assert not stale.exists()
    assert fresh.is_dir()


def test_trace_verify_cli_exit_codes(tmp_path, capsys):
    from repro.core.cli import main

    TraceStore.write(tmp_path / "s", [small_batch()])
    assert main(["trace", "verify", str(tmp_path / "s")]) == 0
    assert "ok:" in capsys.readouterr().out

    shard = next((tmp_path / "s").glob("shard-*.npy"))
    data = bytearray(shard.read_bytes())
    data[-1] ^= 0xFF
    shard.write_bytes(bytes(data))
    assert main(["trace", "verify", str(tmp_path / "s")]) == 1
    assert "checksum mismatch" in capsys.readouterr().err

    shard.unlink()
    assert main(["trace", "verify", str(tmp_path / "s")]) == 1
    assert "missing shard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "verify"])
@pytest.mark.parametrize("damage", ["torn", "not-an-object"])
def test_trace_cli_reports_unreadable_manifest(tmp_path, capsys, command, damage):
    """A torn or non-object manifest is one error line, not a traceback."""
    from repro.core.cli import main

    slot = store_dir_for(tmp_path, NCAR_TEST_CONFIG)
    TraceStore.write(slot, [small_batch()], config=NCAR_TEST_CONFIG)
    manifest = slot / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text[: len(text) // 2] if damage == "torn" else "[]")
    assert main(["trace", command, str(slot)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"trace {command}: ") and len(err.splitlines()) == 1
    # The cache treats the same damage as a miss.
    assert open_cached(NCAR_TEST_CONFIG, tmp_path) is None
