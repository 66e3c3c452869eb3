"""ReplaySession / JournaledSession: incremental replay correctness.

The anchor property: an incremental session fed chunk-by-chunk computes
exactly what the offline engine computes on the whole stream -- same
HSM counters, same tenant Table-3 cells -- and a journaled session
re-opened at any point recovers that state bit-identically.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.engine.batch import EventBatch
from repro.engine.replay import replay_policy
from repro.engine.stream import EIGHT_HOURS, hsm_batches_from_stream
from repro.serve.session import (
    SESSION_LAYOUT,
    JournaledSession,
    ReplaySession,
    SequenceGap,
    SessionError,
    SessionSpec,
)
from tests.serve.conftest import synth_chunks

CAPACITY = 16 * 1024 * 1024


def _assert_close(a, b, path=""):
    """Recursive dict equality with float tolerance (merge-order ulps)."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _assert_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=1e-9), path
    else:
        assert a == b, path


def _spec(**overrides) -> SessionSpec:
    base = dict(name="t", policy="lru", capacity_bytes=CAPACITY,
                labels=("alpha", "beta"), snapshot_every=None)
    base.update(overrides)
    base.pop("snapshot_every", None)
    return SessionSpec(**base)


def _full_stream(chunks, spec: SessionSpec) -> ReplaySession:
    session = ReplaySession(spec)
    for chunk in chunks:
        session.feed(chunk)
    return session


class TestSessionSpec:
    def test_rejects_opt_policy(self):
        with pytest.raises(SessionError, match="OPT"):
            _spec(policy="opt")

    def test_rejects_unknown_policy(self):
        with pytest.raises(SessionError, match="unknown policy"):
            _spec(policy="nope")

    @pytest.mark.parametrize("field,value", [
        ("name", ""), ("capacity_bytes", 0), ("labels", ()),
        ("window_seconds", 0.0),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(SessionError):
            _spec(**{field: value})

    def test_dict_roundtrip(self):
        spec = _spec(scenario={"name": "flash-crowd"})
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        payload = _spec().to_dict()
        payload["future_field"] = 1
        assert SessionSpec.from_dict(payload) == _spec()


class TestReplaySession:
    def test_matches_offline_engine(self, chunk_stream):
        for deduped in (True, False):
            spec = _spec(deduped=deduped)
            session = _full_stream(chunk_stream, spec)
            session.finalize()
            batches = list(hsm_batches_from_stream(chunk_stream, deduped=deduped))
            reference = replay_policy(
                batches, spec.policy, spec.capacity_bytes,
                writeback_delay=spec.writeback_delay,
                policy_seed=spec.policy_seed,
            )
            expected = dataclasses.asdict(reference)
            hsm = session.metrics()["hsm"]
            assert {name: hsm[name] for name in expected} == expected, deduped
            assert hsm["read_miss_ratio"] == reference.read_miss_ratio
            assert session.events_replayed == sum(len(b) for b in batches)

    def test_chunking_is_invisible(self, chunk_stream):
        spec = _spec()
        coarse = ReplaySession(spec)
        for chunk in chunk_stream:
            coarse.feed(chunk)
        fine = ReplaySession(spec)
        for chunk in chunk_stream:
            for piece in chunk.chunks(97):
                fine.feed(piece)
        # HSM counters are integer state transitions: exact.  Tenant
        # moments accumulate floats in merge order, so re-chunking may
        # differ at the last ulp (recovery replays identical chunks and
        # is tested exact elsewhere).
        assert coarse.metrics()["hsm"] == fine.metrics()["hsm"]
        _assert_close(coarse.metrics()["tenants"], fine.metrics()["tenants"])

    def test_tenant_attribution_covers_all_events(self, chunk_stream):
        session = ReplaySession(_spec())
        for chunk in chunk_stream:
            session.feed(chunk)
        tenants = session.metrics()["tenants"]
        assert set(tenants) == {"alpha", "beta"}
        raw_total = sum(len(chunk) for chunk in chunk_stream)
        good_total = sum(
            int(np.count_nonzero(chunk.error == 0)) for chunk in chunk_stream
        )
        # Table-3 cells count successful references; errors are tracked
        # in each tenant's error fraction.
        assert sum(t["references"] for t in tenants.values()) == good_total
        assert session.events_ingested == raw_total

    def test_rejects_time_regression(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[1])
        with pytest.raises(SessionError, match="time order"):
            session.feed(chunk_stream[0])

    def test_rejects_feed_after_finalize(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        session.finalize()
        with pytest.raises(SessionError, match="finalized"):
            session.feed(chunk_stream[1])

    def test_finalize_is_idempotent(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        assert session.finalize() == session.finalize()

    def test_rolling_window_evicts_old_chunks(self):
        chunks = synth_chunks(10, 200)
        # Window narrower than the stream: old chunks must drop out.
        span = float(chunks[-1].time[-1] - chunks[0].time[0])
        session = ReplaySession(_spec(window_seconds=span / 4))
        for chunk in chunks:
            session.feed(chunk)
        window = session.metrics()["window"]
        assert 0 < window["chunks"] < len(chunks)
        assert window["events"] < session.events_ingested
        assert window["events_per_stream_hour"] > 0

    def test_empty_chunk_is_harmless(self, chunk_stream):
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        ack = session.feed(EventBatch.empty())
        assert ack["events"] == 0
        session.feed(chunk_stream[1])
        assert session.applied_chunks == 3

    def test_pickle_carries_no_invariant_checker(self, chunk_stream, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        session = ReplaySession(_spec())
        session.feed(chunk_stream[0])
        assert session.hsm._checker is not None
        payload = pickle.dumps(session)
        assert b"HSMInvariantChecker" not in payload
        restored = pickle.loads(payload)
        assert restored.hsm._checker is None
        for chunk in chunk_stream[1:]:
            session.feed(chunk)
            restored.feed(chunk)
        assert restored.finalize() == session.finalize()


class TestJournaledSession:
    def test_reopen_recovers_bit_identically(self, tmp_path, chunk_stream):
        spec = _spec()
        uninterrupted = ReplaySession(spec)
        for chunk in chunk_stream:
            uninterrupted.feed(chunk)

        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=2)
        for seq, chunk in enumerate(chunk_stream[:4]):
            journaled.feed(chunk, seq)
        journaled.close()

        # A different process would do exactly this after a restart.
        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == 4
        for seq, chunk in enumerate(chunk_stream[4:], start=4):
            recovered.feed(chunk, seq)
        assert recovered.session.metrics() == uninterrupted.metrics()

    def test_reopen_without_snapshot_replays_journal(self, tmp_path, chunk_stream):
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=10_000)
        for seq, chunk in enumerate(chunk_stream):
            journaled.feed(chunk, seq)
        journaled.journal.close()  # no snapshot written: journal-only recovery

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == len(chunk_stream)
        reference = _full_stream(chunk_stream, spec)
        assert recovered.session.metrics() == reference.metrics()

    def test_reopen_ignores_snapshot_without_layout_tag(self, tmp_path, chunk_stream):
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=10_000)
        for seq, chunk in enumerate(chunk_stream[:4]):
            journaled.feed(chunk, seq)
        # A snapshot in an older object layout (no tag, no kernel
        # attributes) holding stale state: one chunk, claimed as four.
        stale = _full_stream(chunk_stream[:1], spec)
        for obj, name in ((stale, "layout"), (stale.hsm, "site"),
                          (stale.hsm, "batches_fed")):
            delattr(obj, name)
        journaled.journal.write_snapshot(4, stale)
        journaled.journal.close()

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == 4
        for seq, chunk in enumerate(chunk_stream[4:], start=4):
            recovered.feed(chunk, seq)
        reference = _full_stream(chunk_stream, spec)
        assert recovered.finalize() == reference.finalize()

    def test_reopen_ignores_table_deduper_snapshot(self, tmp_path, chunk_stream):
        """A layout-2 snapshot holds the dense ``_last_block`` table
        deduper, which later layouts cannot feed: it is ignored, and the
        state is rebuilt from journal chunk 0."""
        assert SESSION_LAYOUT > 2
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=10_000)
        for seq, chunk in enumerate(chunk_stream[:4]):
            journaled.feed(chunk, seq)
        stale = _full_stream(chunk_stream[:1], spec)
        stale.layout = 2
        table = np.full(1024, -1, dtype=np.int64)
        table[:240] = 0
        stale.deduper.__dict__.clear()
        stale.deduper.__dict__.update(window=EIGHT_HOURS, _last_block=table)
        journaled.journal.write_snapshot(4, stale)
        journaled.journal.close()

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.session.layout == SESSION_LAYOUT
        assert recovered.next_seq == 4
        for seq, chunk in enumerate(chunk_stream[4:], start=4):
            recovered.feed(chunk, seq)
        reference = _full_stream(chunk_stream, spec)
        assert recovered.finalize() == reference.finalize()

    def test_snapshot_size_does_not_grow_with_file_ids(self, tmp_path):
        """Ids spread up to 10**6 leave no id-indexed table in snapshots."""
        chunks = synth_chunks(8, 200, seed=5, n_files=10**6)
        journaled = JournaledSession.create(tmp_path / "s", _spec(),
                                            snapshot_every=4)
        for seq, chunk in enumerate(chunks):
            journaled.feed(chunk, seq)
        snapshots = sorted((tmp_path / "s").glob("snapshot-*.pkl"))
        assert len(snapshots) == 2
        for path in snapshots:
            assert path.stat().st_size < 256 * 1024, path.name

    def test_duplicate_chunk_acks_without_reapplying(self, tmp_path, chunk_stream):
        journaled = JournaledSession.create(tmp_path / "s", _spec())
        journaled.feed(chunk_stream[0], 0)
        before = journaled.session.metrics()
        ack = journaled.feed(chunk_stream[0], 0)
        assert ack["duplicate"] is True
        assert journaled.session.metrics() == before

    def test_sequence_gap_is_refused(self, tmp_path, chunk_stream):
        journaled = JournaledSession.create(tmp_path / "s", _spec())
        journaled.feed(chunk_stream[0], 0)
        with pytest.raises(SequenceGap):
            journaled.feed(chunk_stream[1], 5)

    def test_create_refuses_existing_dir(self, tmp_path):
        JournaledSession.create(tmp_path / "s", _spec())
        with pytest.raises(SessionError, match="exists"):
            JournaledSession.create(tmp_path / "s", _spec())

    def test_open_refuses_non_session_dir(self, tmp_path):
        (tmp_path / "x").mkdir()
        with pytest.raises(SessionError):
            JournaledSession.open(tmp_path / "x")


def _defective(chunk: EventBatch, tail: EventBatch, defect: str) -> EventBatch:
    """``chunk`` with one defect the session must refuse."""
    columns = {
        name: getattr(chunk, name).copy()
        for name in ("file_id", "size", "time", "is_write", "device", "error")
    }
    if defect == "before-tail":
        columns["time"][0] = float(tail.time[-1]) - 1.0
    elif defect == "unordered":
        columns["time"][0] = columns["time"][1] + 1.0
    elif defect == "negative-id":
        good = np.flatnonzero(columns["error"] == 0)
        columns["file_id"][good[len(good) // 2]] = -3
    return EventBatch(**columns)


class TestRefusedChunks:
    """A refused chunk changes nothing: not the journal, not the state,
    and a reopened session continues as if it had never been sent."""

    @pytest.mark.parametrize("defect", ["before-tail", "unordered", "negative-id"])
    def test_refused_chunk_leaves_no_trace(self, tmp_path, chunk_stream, defect):
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec,
                                            snapshot_every=2)
        for seq, chunk in enumerate(chunk_stream[:3]):
            journaled.feed(chunk, seq)
        before = journaled.session.metrics()
        bad = _defective(chunk_stream[3], chunk_stream[2], defect)
        with pytest.raises(SessionError):
            journaled.feed(bad, 3)
        assert journaled.journal.frame_count() == journaled.session.applied_chunks
        assert journaled.session.metrics() == before
        journaled.journal.close()  # a crash: recovery replays the journal

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.next_seq == 3
        for seq, chunk in enumerate(chunk_stream[3:], start=3):
            recovered.feed(chunk, seq)
        assert recovered.finalize() == _full_stream(chunk_stream, spec).finalize()

    def test_feed_after_finalize_leaves_no_trace(self, tmp_path, chunk_stream):
        spec = _spec()
        journaled = JournaledSession.create(tmp_path / "s", spec)
        for seq, chunk in enumerate(chunk_stream[:3]):
            journaled.feed(chunk, seq)
        final = journaled.finalize()
        with pytest.raises(SessionError, match="finalized"):
            journaled.feed(chunk_stream[3], 3)
        assert journaled.journal.frame_count() == journaled.session.applied_chunks
        assert journaled.session.metrics() == final
        journaled.journal.close()

        recovered = JournaledSession.open(tmp_path / "s")
        assert recovered.session.finalized
        assert recovered.finalize() == _full_stream(chunk_stream[:3], spec).finalize()

    def test_undeduped_session_accepts_negative_ids(self, chunk_stream):
        """Only the dedupe keys on file ids; a raw replay takes any id."""
        session = ReplaySession(_spec(deduped=False))
        session.feed(chunk_stream[0])
        session.feed(_defective(chunk_stream[1], chunk_stream[0], "negative-id"))
        assert session.applied_chunks == 2
