"""Service-layer benchmark: journaled ingest must not throttle replay.

Gates on a synthetic chunked stream:

* **journal tax** -- feeding chunks through a ``JournaledSession``
  (frame encode + fsync append + replay) costs at most ``JOURNAL_TAX``x
  the bare ``ReplaySession`` replay of the same chunks: durability is an
  I/O tail on the replay, not a second engine;
* **recovery identity** -- re-opening the journaled session directory
  reproduces the live session's metrics exactly (always enforced);
* **recovery speed** -- snapshot-based recovery replays only the
  journal tail, so it beats full-journal recovery on a long session.

``REPRO_BENCH_RELAXED=1`` keeps the identity checks but skips the
timing gates; the measured timings land as a bench RunRecord in the
runs root.
"""

import os
import time

import numpy as np

from repro.engine.batch import EventBatch
from repro.serve.session import JournaledSession, ReplaySession, SessionSpec

RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

#: Journaled ingest may cost at most this multiple of bare replay.
JOURNAL_TAX = 3.0

N_CHUNKS = 40
EVENTS_PER_CHUNK = 4096

from conftest import dump_bench_timings as _dump_timings  # noqa: E402


def _chunks():
    rng = np.random.default_rng(11)
    t0 = 0.0
    chunks = []
    for _ in range(N_CHUNKS):
        times = np.sort(t0 + rng.random(EVENTS_PER_CHUNK) * 3600.0)
        t0 = float(times[-1])
        chunks.append(EventBatch.from_columns(
            file_id=rng.integers(0, 4000, EVENTS_PER_CHUNK),
            size=rng.integers(1, 1 << 22, EVENTS_PER_CHUNK),
            time=times,
            is_write=rng.random(EVENTS_PER_CHUNK) < 0.3,
        ))
    return chunks


def _spec() -> SessionSpec:
    return SessionSpec(name="bench", policy="lru",
                       capacity_bytes=256 * 1024 * 1024)


def test_journaled_ingest_tax_and_recovery_identity(tmp_path):
    chunks = _chunks()
    events = N_CHUNKS * EVENTS_PER_CHUNK

    bare = ReplaySession(_spec())
    start = time.perf_counter()
    for chunk in chunks:
        bare.feed(chunk)
    bare_seconds = time.perf_counter() - start

    journaled = JournaledSession.create(tmp_path / "s", _spec(),
                                        snapshot_every=8)
    start = time.perf_counter()
    for seq, chunk in enumerate(chunks):
        journaled.feed(chunk, seq)
    journaled_seconds = time.perf_counter() - start
    journaled.close()

    start = time.perf_counter()
    recovered = JournaledSession.open(tmp_path / "s")
    recover_seconds = time.perf_counter() - start

    tax = journaled_seconds / bare_seconds
    _dump_timings({
        "serve_bare_events_per_s": events / bare_seconds,
        "serve_journaled_events_per_s": events / journaled_seconds,
        "serve_journal_tax": tax,
        "serve_recover_seconds": recover_seconds,
    })
    print(
        f"\ningest: bare {events / bare_seconds:,.0f} ev/s, journaled "
        f"{events / journaled_seconds:,.0f} ev/s (tax {tax:.2f}x), "
        f"recovery {recover_seconds:.3f}s"
    )

    # Identity is the point of the journal: always enforced.
    assert recovered.session.metrics() == bare.metrics()
    assert recovered.next_seq == N_CHUNKS

    if not RELAXED:
        assert tax <= JOURNAL_TAX, (
            f"journaled ingest costs {tax:.2f}x bare replay "
            f"(limit {JOURNAL_TAX}x)"
        )


def test_snapshot_recovery_beats_full_replay(tmp_path):
    chunks = _chunks()

    with_snapshots = JournaledSession.create(
        tmp_path / "snap", _spec(), snapshot_every=8
    )
    no_snapshots = JournaledSession.create(
        tmp_path / "full", _spec(), snapshot_every=10_000
    )
    for seq, chunk in enumerate(chunks):
        with_snapshots.feed(chunk, seq)
        no_snapshots.feed(chunk, seq)
    with_snapshots.close()
    no_snapshots.journal.close()  # close without a final snapshot

    start = time.perf_counter()
    fast = JournaledSession.open(tmp_path / "snap")
    snap_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = JournaledSession.open(tmp_path / "full")
    full_seconds = time.perf_counter() - start

    _dump_timings({
        "serve_recover_snapshot_seconds": snap_seconds,
        "serve_recover_full_replay_seconds": full_seconds,
    })
    print(
        f"\nrecovery: snapshot+tail {snap_seconds:.3f}s vs full replay "
        f"{full_seconds:.3f}s"
    )

    # Both recoveries land on the same state (always enforced).
    assert fast.session.metrics() == slow.session.metrics()
    if not RELAXED:
        assert snap_seconds < full_seconds, (
            "snapshot recovery should beat replaying the whole journal"
        )
