"""Runtime conservation-law checking: clean runs pass, corruption trips.

The acceptance bar from the issue: a deliberately corrupted counter
(injected behind the test-only ``hsm-batch`` fault point) is caught by
the invariant checker, dumped as a minimized quarantine bundle, and the
bundle replays the violation deterministically.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.engine.replay import replay_policy
from repro.engine.stackdist import multi_capacity_replay
from repro.hsm.cache import CacheConfig, ManagedDiskCache
from repro.migration.registry import make_policy
from repro.serve.session import JournaledSession, ReplaySession, SessionSpec
from repro.verify import (
    HSMInvariantChecker,
    InvariantViolation,
    check_journal_recovery,
    load_quarantine_bundle,
)
from repro.verify.diff import replay_bundle
from repro.verify.invariants import mask_is_suffix
from tests.serve.conftest import synth_chunks
from tests.verify.conftest import clean_stream

CAPACITY = 24 * 1024 * 1024


# ---------------------------------------------------------------------------
# Clean runs under checking


def test_des_replay_passes_under_invariants(invariants_on):
    metrics = replay_policy(clean_stream(1), "lru", CAPACITY)
    assert metrics.reads == metrics.read_hits + metrics.read_misses
    assert not any(invariants_on.glob("violation-*"))


def test_stack_replay_passes_under_invariants(invariants_on):
    rows = multi_capacity_replay(
        clean_stream(2), "lru", [CAPACITY // 4, CAPACITY, CAPACITY * 4]
    )
    assert len(rows) == 3
    assert not any(invariants_on.glob("violation-*"))


def test_prefetch_replay_passes_under_invariants(invariants_on):
    from repro.engine import prepare_stream
    from repro.workload.config import WorkloadConfig
    from repro.workload.generator import generate_trace

    trace = generate_trace(WorkloadConfig(
        scale=0.002, seed=0, duration_seconds=30 * 86400.0,
    ))
    batches = prepare_stream(trace)
    capacity = int(trace.namespace.total_bytes * 0.04)
    metrics = replay_policy(
        batches, "lru", capacity, namespace=trace.namespace, prefetch=True
    )
    assert metrics.prefetches_issued > 0
    assert not any(invariants_on.glob("violation-*"))


def test_session_feed_and_recovery_pass_under_invariants(invariants_on, tmp_path):
    chunks = synth_chunks(5, 250, seed=4)
    spec = SessionSpec(name="inv", policy="lru", capacity_bytes=CAPACITY)
    live = JournaledSession.create(tmp_path / "s", spec, snapshot_every=2)
    for seq, chunk in enumerate(chunks):
        live.feed(chunk, seq)
    live.close()

    recovered = JournaledSession.open(tmp_path / "s")
    assert recovered.session.applied_chunks == len(chunks)
    recovered.session.finalize()
    assert not any(invariants_on.glob("violation-*"))


def test_checks_disabled_without_env(tmp_path, monkeypatch):
    from repro.verify.invariants import invariants_enabled

    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    assert not invariants_enabled()
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert invariants_enabled()


# ---------------------------------------------------------------------------
# The checker catches real divergence


def test_manual_counter_skew_is_caught(invariants_on):
    batches = clean_stream(5, n_events=600)
    cache = ManagedDiskCache(
        CacheConfig(capacity_bytes=CAPACITY), make_policy("lru")
    )
    checker = HSMInvariantChecker(cache)
    batch = batches[0]
    cache.access_batch(
        batch.file_id.tolist(), batch.size.tolist(),
        batch.time.tolist(), batch.is_write.tolist(),
    )
    cache.metrics.read_hits += 1  # the silent divergence
    with pytest.raises(InvariantViolation) as excinfo:
        checker.after_batch(batch)
    assert excinfo.value.law in ("hit-miss-partition", "read-conservation")
    assert excinfo.value.bundle is not None


def test_journal_gap_raises(invariants_on):
    with pytest.raises(InvariantViolation) as excinfo:
        check_journal_recovery("s", 2, 5, 4)
    assert excinfo.value.law == "journal-gap-free"
    with pytest.raises(InvariantViolation) as excinfo:
        check_journal_recovery("s", 7, 5, 5)
    assert excinfo.value.law == "journal-snapshot-ahead"
    check_journal_recovery("s", 2, 5, 5)  # clean recovery passes


def test_mask_is_suffix():
    assert mask_is_suffix(0b000, 3)
    assert mask_is_suffix(0b100, 3)
    assert mask_is_suffix(0b110, 3)
    assert mask_is_suffix(0b111, 3)
    assert not mask_is_suffix(0b001, 3)
    assert not mask_is_suffix(0b011, 3)
    assert not mask_is_suffix(0b101, 3)
    assert not mask_is_suffix(0b010, 3)


# ---------------------------------------------------------------------------
# The acceptance gate: injected corruption -> violation -> replayable bundle


def test_injected_corruption_caught_and_bundle_replays(
    invariants_on, tmp_path, monkeypatch
):
    batches = clean_stream(6, n_events=1800, chunk=200)
    corrupt_at = 5
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"rules": [{
        "site": "hsm-batch", "match": f"batch:{corrupt_at}",
        "action": "corrupt",
    }]}))
    monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))

    with pytest.raises(InvariantViolation) as excinfo:
        replay_policy(batches, "lru", CAPACITY)
    violation = excinfo.value
    assert violation.law == "hit-miss-partition"
    assert violation.context["engine"] == "des"
    bundle = violation.bundle
    assert bundle is not None and bundle.is_dir()

    meta, window = load_quarantine_bundle(bundle)
    assert meta["law"] == "hit-miss-partition"
    assert meta["window_start"] == corrupt_at - len(window) + 1
    assert meta["fault_plan"]
    assert len(window) >= 1 and all(len(batch) for batch in window)

    # The bundle alone reproduces the violation: the bundled fault plan
    # is re-armed and re-aligned to the window, invariants force-enabled.
    monkeypatch.delenv("REPRO_FAULT_PLAN")
    outcome = replay_bundle(bundle)
    assert outcome["reproduced"], outcome
    assert outcome["replayed_law"] == "hit-miss-partition"

    # And replaying is repeatable (scratch state is re-armed each time).
    again = replay_bundle(bundle)
    assert again["reproduced"], again


def test_bundle_context_records_run_metadata(invariants_on, tmp_path, monkeypatch):
    batches = clean_stream(7, n_events=800, chunk=160)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"rules": [{
        "site": "hsm-batch", "match": "batch:2", "action": "corrupt",
    }]}))
    monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))
    with pytest.raises(InvariantViolation) as excinfo:
        replay_policy(batches, "fifo", CAPACITY, writeback_delay=3600.0)
    meta, _ = load_quarantine_bundle(excinfo.value.bundle)
    assert meta["context"]["policy"] == "fifo"
    assert meta["context"]["capacity_bytes"] == CAPACITY
    assert meta["context"]["writeback_delay"] == 3600.0


def test_session_chunk_corruption_is_caught(invariants_on):
    """The serve path wires the checker per chunk: a counter skewed
    between feeds trips the cumulative partition law on the next chunk."""
    chunks = synth_chunks(4, 200, seed=8)
    session = ReplaySession(SessionSpec(
        name="corrupt", policy="lru", capacity_bytes=CAPACITY,
    ))
    session.feed(chunks[0])
    session.hsm.cache.metrics.read_hits += 3
    with pytest.raises(InvariantViolation) as excinfo:
        session.feed(chunks[1])
    assert "serve.session" in excinfo.value.site


def test_hsm_batch_fault_trips_on_session_feed(invariants_on, tmp_path, monkeypatch):
    """Sessions feed the same kernel as the DES, so the ``hsm-batch``
    fault point reaches them and the violation names the session."""
    chunks = synth_chunks(4, 200, seed=9)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"rules": [{
        "site": "hsm-batch", "match": "batch:2", "action": "corrupt",
    }]}))
    monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))
    session = ReplaySession(SessionSpec(
        name="faulty", policy="lru", capacity_bytes=CAPACITY,
    ))
    session.feed(chunks[0])
    session.feed(chunks[1])
    # A snapshot round trip drops the checker; its successor must count
    # from the stream index so the bundle's window stays aligned.
    session = pickle.loads(pickle.dumps(session))
    with pytest.raises(InvariantViolation) as excinfo:
        session.feed(chunks[2])
    violation = excinfo.value
    assert violation.site == "serve.session:faulty"
    assert violation.law == "hit-miss-partition"
    assert violation.context["engine"] == "session"
    meta, window = load_quarantine_bundle(violation.bundle)
    assert meta["window_start"] == 2 and len(window) == 1

    monkeypatch.delenv("REPRO_FAULT_PLAN")
    assert replay_bundle(violation.bundle)["reproduced"]
