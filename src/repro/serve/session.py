"""Resumable incremental HSM replay: the unit of work ``repro serve`` runs.

The batch engine (:mod:`repro.engine.replay`) replays *finite* streams:
prepare every chunk, replay, flush, report.  A service ingests an
unbounded stream instead, so :class:`ReplaySession` refactors the same
pipeline -- error strip, streaming dedupe, HSM cache replay, Table-3
tenant accounting -- into an object that is fed one
:class:`~repro.engine.batch.EventBatch` at a time and can report live
metrics (cumulative plus a rolling stream-time window) at any chunk
boundary.  Feeding the same chunks in the same order always produces the
same state, which is what makes journal-based crash recovery exact.

:class:`JournaledSession` binds a session to a directory: every chunk is
appended to the write-ahead journal *before* it is applied, state
snapshots land every N chunks, and :meth:`JournaledSession.open`
reconstructs the exact pre-crash state from snapshot + journal tail.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.accumulators import OverallAccumulator
from repro.engine.batch import EventBatch
from repro.engine.resilience import fault_point
from repro.engine.stream import BlockDeduper, prepare_batch
from repro.hsm.manager import HSM, HSMConfig
from repro.serve.journal import SessionJournal
from repro.trace.record import Device
from repro.util.durable import write_json
from repro.util.units import DAY, HOUR
from repro.verify.invariants import (
    check_journal_recovery,
    invariant_context,
    invariants_enabled,
)

SESSION_META_NAME = "session.json"

#: session.json format marker.
SESSION_MAGIC = "repro-serve-session"

#: Layout tag of the pickled :class:`ReplaySession` state.  Bump it when
#: a change adds or renames attributes of the session or the objects it
#: holds: :meth:`JournaledSession.open` ignores snapshots without the
#: current tag and rebuilds the state from the journal instead.
#: Layout 3: the deduper holds its newest block and the keys kept in it.
SESSION_LAYOUT = 3


class SessionError(RuntimeError):
    """A session request that cannot be honored (bad spec, bad feed)."""


class SequenceGap(SessionError):
    """A fed chunk skipped ahead of the next expected sequence number."""


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines a session's replay behavior.

    JSON round-trippable: persisted as ``session.json`` in the session
    directory so a restarted server can rebuild the session without the
    submitting client.
    """

    name: str
    policy: str = "lru"
    capacity_bytes: int = 512 * 1024 * 1024
    writeback_delay: Optional[float] = 4 * HOUR
    #: Apply the Section 5.3 eight-hour dedupe before replay (the sweep
    #: default); the raw stream still feeds the tenant Table-3 cells.
    deduped: bool = True
    #: Tenant labels in compositor rank order (``file_id % k`` maps an
    #: event to its tenant).  A single label attributes everything to it.
    labels: Tuple[str, ...] = ("all",)
    #: Rolling-window width in *stream* seconds for live rate metrics.
    window_seconds: float = 1 * DAY
    #: Seed for stochastic policies (ignored by deterministic ones).
    policy_seed: int = 0
    #: Submitted scenario spec (provenance only; the server never
    #: generates events -- clients stream them in).
    scenario: Optional[dict] = None

    def __post_init__(self) -> None:
        from repro.migration.registry import available_policies

        if not self.name:
            raise SessionError("session name must be non-empty")
        if self.policy == "opt":
            raise SessionError(
                "OPT needs the full future schedule and cannot replay "
                "an incremental stream; pick an online policy"
            )
        if self.policy not in available_policies():
            raise SessionError(
                f"unknown policy {self.policy!r}; "
                f"choose from {sorted(available_policies())}"
            )
        if self.capacity_bytes <= 0:
            raise SessionError("capacity_bytes must be positive")
        if not self.labels:
            raise SessionError("need at least one tenant label")
        if self.window_seconds <= 0:
            raise SessionError("window_seconds must be positive")

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["labels"] = list(self.labels)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        if "labels" in kwargs:
            kwargs["labels"] = tuple(kwargs["labels"])
        return cls(**kwargs)


@dataclass
class _WindowEntry:
    """Per-chunk deltas for the rolling stream-time window."""

    end_time: float
    events: int
    reads: int
    read_misses: int
    bytes_moved: int


class RollingWindow:
    """Sliding stream-time window over per-chunk replay deltas.

    Holds one entry per applied chunk and drops entries older than the
    window, so live metrics report *recent* traffic (event rate, miss
    ratio over the last day) instead of the all-time cumulative view.
    Entirely driven by stream time: deterministic, replayable, and
    independent of ingest wall-clock.
    """

    def __init__(self, window_seconds: float) -> None:
        self.window_seconds = window_seconds
        self._entries: Deque[_WindowEntry] = deque()

    def push(self, entry: _WindowEntry) -> None:
        self._entries.append(entry)
        cutoff = entry.end_time - self.window_seconds
        while self._entries and self._entries[0].end_time <= cutoff:
            self._entries.popleft()

    def summary(self) -> dict:
        entries = self._entries
        events = sum(entry.events for entry in entries)
        reads = sum(entry.reads for entry in entries)
        misses = sum(entry.read_misses for entry in entries)
        moved = sum(entry.bytes_moved for entry in entries)
        span = (
            min(
                self.window_seconds,
                entries[-1].end_time - entries[0].end_time,
            )
            if len(entries) > 1
            else self.window_seconds
        )
        span = max(span, 1e-9)
        return {
            "seconds": self.window_seconds,
            "chunks": len(entries),
            "events": events,
            "reads": reads,
            "read_misses": misses,
            "miss_ratio": (misses / reads) if reads else 0.0,
            "bytes_moved": moved,
            "events_per_stream_hour": events / (span / HOUR),
        }


class ReplaySession:
    """Incremental HSM replay with live cumulative + windowed metrics.

    Deterministic: state after ``feed(c_0), ..., feed(c_n)`` depends
    only on the spec and the chunk contents, never on wall-clock or
    ingest pacing -- the property the crash-recovery tests pin.
    """

    def __init__(self, spec: SessionSpec) -> None:
        from repro.migration.registry import make_policy

        self.layout = SESSION_LAYOUT
        self.spec = spec
        self.hsm = HSM(
            HSMConfig.with_capacity(
                spec.capacity_bytes, writeback_delay=spec.writeback_delay
            ),
            make_policy(spec.policy, seed=spec.policy_seed),
            site=f"serve.session:{spec.name}",
        )
        self.deduper = BlockDeduper() if spec.deduped else None
        self.accumulators: List[OverallAccumulator] = [
            OverallAccumulator() for _ in spec.labels
        ]
        self.window = RollingWindow(spec.window_seconds)
        self.applied_chunks = 0
        self.events_ingested = 0
        self.events_replayed = 0
        self.last_time: Optional[float] = None
        self.finalized = False

    # ------------------------------------------------------------------
    # Ingest

    def check(self, batch: EventBatch) -> None:
        """Raise :class:`SessionError` if :meth:`feed` would refuse ``batch``.

        Changes nothing, so a journaled session runs it before the
        journal append: a refused chunk reaches neither the journal nor
        any state.
        """
        if self.finalized:
            raise SessionError("session is finalized; no further chunks")
        if not len(batch):
            return
        if not np.all(np.isfinite(batch.time)):
            raise SessionError("chunk times must be finite")
        if np.any(np.diff(batch.time) < 0):
            raise SessionError("chunk times must be nondecreasing")
        start = float(batch.time[0])
        if self.last_time is not None and start < self.last_time:
            raise SessionError(
                f"chunk starts at t={start:.3f}, before the stream "
                f"tail t={self.last_time:.3f}; chunks must arrive "
                "in time order"
            )
        if self.deduper is not None and np.any(batch.file_id[batch.error == 0] < 0):
            raise SessionError(
                "a successful reference has a negative file id; the "
                "eight-hour dedupe needs non-negative ids"
            )

    def feed(self, batch: EventBatch) -> dict:
        """Apply one chunk; returns the per-chunk ack payload."""
        self.check(batch)
        n = len(batch)
        metrics = self.hsm.metrics
        reads_before = metrics.reads
        misses_before = metrics.read_misses
        moved_before = metrics.bytes_staged + metrics.bytes_written
        replayed = 0
        if n:
            self._account_tenants(batch)
            prepared = prepare_batch(batch, self.deduper)
            replayed = len(prepared)
            if replayed:
                with self._invariant_context():
                    self.hsm.feed(prepared)
            self.last_time = float(batch.time[-1])
            self.window.push(_WindowEntry(
                end_time=self.last_time,
                events=n,
                reads=metrics.reads - reads_before,
                read_misses=metrics.read_misses - misses_before,
                bytes_moved=(metrics.bytes_staged + metrics.bytes_written)
                - moved_before,
            ))
        self.applied_chunks += 1
        self.events_ingested += n
        self.events_replayed += replayed
        return {
            "seq": self.applied_chunks - 1,
            "events": n,
            "replayed": replayed,
            "applied_chunks": self.applied_chunks,
        }

    def _account_tenants(self, batch: EventBatch) -> None:
        """Fold the *raw* chunk into the per-tenant Table-3 cells."""
        k = len(self.spec.labels)
        if k == 1:
            self.accumulators[0].add(batch)
            return
        ranks = batch.file_id % k
        for rank in range(k):
            part = batch.select(ranks == rank)
            if len(part):
                self.accumulators[rank].add(part)

    def _invariant_context(self):
        return invariant_context(
            engine="session", session=self.spec.name,
            policy=self.spec.policy,
            capacity_bytes=self.spec.capacity_bytes,
            writeback_delay=self.spec.writeback_delay,
            applied_chunks=self.applied_chunks,
        )

    def finalize(self) -> dict:
        """Flush the write-back queue and seal the session."""
        if not self.finalized:
            self.finalized = True
            with self._invariant_context():
                self.hsm.finalize()
        return self.metrics()

    # ------------------------------------------------------------------
    # Metrics

    def metrics(self) -> dict:
        """The live (or final) metrics document, JSON-ready."""
        hsm = dataclasses.asdict(self.hsm.metrics)
        hsm.update(
            read_miss_ratio=self.hsm.metrics.read_miss_ratio,
            read_hit_ratio=self.hsm.metrics.read_hit_ratio,
            capacity_miss_ratio=self.hsm.metrics.capacity_miss_ratio,
            person_minutes_per_day=self.hsm.metrics.person_minutes_per_day(),
            usage_bytes=self.hsm.cache.usage_bytes,
            resident_files=self.hsm.cache.resident_files,
        )
        return {
            "name": self.spec.name,
            "policy": self.spec.policy,
            "capacity_bytes": self.spec.capacity_bytes,
            "applied_chunks": self.applied_chunks,
            "events_ingested": self.events_ingested,
            "events_replayed": self.events_replayed,
            "last_time": self.last_time,
            "finalized": self.finalized,
            "hsm": hsm,
            "window": self.window.summary(),
            "tenants": {
                label: _tenant_summary(accumulator)
                for label, accumulator in zip(self.spec.labels, self.accumulators)
            },
        }

    def status(self) -> dict:
        """The cheap status document (no tenant statistics folding)."""
        return {
            "name": self.spec.name,
            "policy": self.spec.policy,
            "applied_chunks": self.applied_chunks,
            "events_ingested": self.events_ingested,
            "last_time": self.last_time,
            "finalized": self.finalized,
        }


def _tenant_summary(accumulator: OverallAccumulator) -> dict:
    """One tenant's Table-3 cells as a flat JSON dict."""
    stats = accumulator.statistics()
    total = stats.grand_total()
    reads = stats.direction_total(False)
    refs = max(total.references, 1)
    return {
        "references": total.references,
        "read_share": reads.references / refs,
        "gb_moved": total.gb_transferred,
        "avg_file_mb": total.avg_file_size_mb,
        "device_shares": {
            device.name.lower(): stats.device_total(device).references / refs
            for device in Device.storage_devices()
        },
        "error_fraction": stats.error_fraction,
    }


# ---------------------------------------------------------------------------
# Journaled sessions


class JournaledSession:
    """A :class:`ReplaySession` bound to a write-ahead-journaled directory.

    Layout::

        <dir>/
          session.json            # the SessionSpec + the finalize seal
          journal.bin             # append-only chunk frames
          snapshot-<n>.pkl        # periodic pickled session state

    The WAL discipline: a chunk is journaled (fsynced) *before* it is
    applied, so every acked chunk survives a SIGKILL; recovery loads the
    newest snapshot and replays the journal tail through the exact same
    ``feed`` path, reproducing the pre-crash state bit for bit.  A chunk
    whose append was torn by the crash was never acked -- the journal is
    repaired (truncated to the last intact frame) and the client
    re-sends it.  A chunk the session refuses
    (:meth:`ReplaySession.check`) is never journaled, so every intact
    frame replays.
    """

    def __init__(
        self,
        session_dir: Union[str, Path],
        spec: SessionSpec,
        session: ReplaySession,
        snapshot_every: int = 16,
    ) -> None:
        self.session_dir = Path(session_dir)
        self.spec = spec
        self.session = session
        self.snapshot_every = max(int(snapshot_every), 1)
        self.journal = SessionJournal(self.session_dir)

    # ------------------------------------------------------------------
    # Lifecycle

    @classmethod
    def create(
        cls,
        session_dir: Union[str, Path],
        spec: SessionSpec,
        snapshot_every: int = 16,
    ) -> "JournaledSession":
        """Create a fresh journaled session directory."""
        session_dir = Path(session_dir)
        if (session_dir / SESSION_META_NAME).exists():
            raise SessionError(f"session directory already exists: {session_dir}")
        session_dir.mkdir(parents=True, exist_ok=True)
        journaled = cls(
            session_dir, spec, ReplaySession(spec), snapshot_every
        )
        journaled._write_meta()
        return journaled

    def _write_meta(self) -> None:
        """(Re)write ``session.json``: the spec, and whether it is sealed."""
        write_json(self.session_dir / SESSION_META_NAME, {
            "format": SESSION_MAGIC,
            "snapshot_every": self.snapshot_every,
            "spec": self.spec.to_dict(),
            "finalized": self.session.finalized,
        })

    @classmethod
    def open(cls, session_dir: Union[str, Path]) -> "JournaledSession":
        """Recover a session from its directory (the restart path).

        Repairs a torn journal tail, restores the newest loadable
        snapshot (or the empty state), and re-applies every journal
        frame past it.
        """
        import json as _json

        session_dir = Path(session_dir)
        meta_path = session_dir / SESSION_META_NAME
        try:
            meta = _json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SessionError(f"unreadable session meta {meta_path}: {exc}")
        if not isinstance(meta, dict) or meta.get("format") != SESSION_MAGIC:
            raise SessionError(f"not a session directory: {session_dir}")
        spec = SessionSpec.from_dict(meta.get("spec", {}))
        snapshot_every = int(meta.get("snapshot_every", 16))

        journaled = cls.__new__(cls)
        journaled.session_dir = session_dir
        journaled.spec = spec
        journaled.snapshot_every = max(snapshot_every, 1)
        journaled.journal = SessionJournal(session_dir)
        journaled.journal.repair()

        applied, session = journaled.journal.load_snapshot()
        if getattr(session, "layout", None) != SESSION_LAYOUT:
            # No snapshot, or one pickled by an older layout whose objects
            # lack attributes this code reads: the journal holds every
            # acked chunk, so rebuild from chunk 0.
            applied, session = 0, ReplaySession(spec)
        # Replay the journal tail through the production feed path: the
        # recovered state is *computed*, not copied, so it is exactly
        # what an uninterrupted server would hold.
        for batch in journaled.journal.replay(skip=applied):
            session.feed(batch)
        if meta.get("finalized"):
            # Sealed: the snapshot that says so may be missing or ignored.
            session.finalize()
        journaled.session = session
        if invariants_enabled():
            check_journal_recovery(
                spec.name, applied, journaled.journal.frame_count(),
                session.applied_chunks,
            )
        return journaled

    def close(self) -> None:
        """Snapshot current state and release the journal handle."""
        self.journal.write_snapshot(self.session.applied_chunks, self.session)
        self.journal.close()

    # ------------------------------------------------------------------
    # Ingest

    @property
    def next_seq(self) -> int:
        """The sequence number the next new chunk must carry."""
        return self.session.applied_chunks

    def feed(self, batch: EventBatch, seq: Optional[int] = None) -> dict:
        """Durably ingest one chunk (idempotent by sequence number).

        ``seq`` < the applied count means the client re-sent a chunk the
        server already owns (its ack was lost in a crash): acknowledged
        as a duplicate without re-applying.  A gap is an error -- the
        client must re-sync from :attr:`next_seq`.  A chunk the session
        refuses raises :class:`SessionError` before the journal append.
        """
        expected = self.next_seq
        if seq is None:
            seq = expected
        if seq < expected:
            return {"seq": seq, "duplicate": True, "applied_chunks": expected}
        if seq > expected:
            raise SequenceGap(
                f"chunk seq {seq} skips ahead; next expected seq is {expected}"
            )
        self.session.check(batch)
        label = f"{self.spec.name}:{seq}"
        fault_point("serve-ingest", label)
        self.journal.append(batch)
        # Crash window under test: the chunk is durable but unapplied;
        # recovery must apply it from the journal.
        fault_point("serve-journal", label)
        ack = self.session.feed(batch)
        fault_point("serve-applied", label)
        if self.session.applied_chunks % self.snapshot_every == 0:
            self.journal.write_snapshot(
                self.session.applied_chunks, self.session
            )
        ack["duplicate"] = False
        return ack

    def finalize(self) -> dict:
        """Flush, seal, snapshot, and return the final metrics.

        The seal is also recorded in ``session.json``, so a reopen
        finalizes even when no snapshot can be loaded.
        """
        final = self.session.finalize()
        self._write_meta()
        self.close()
        return final
