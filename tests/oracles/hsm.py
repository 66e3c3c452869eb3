"""The per-event HSM: one reference at a time.

``HSM.feed`` applies a whole prepared batch through
:meth:`~repro.hsm.cache.ManagedDiskCache.access_batch`, buffering runs of
read hits and settling their prefetch hits when a run ends.  The classes
here drive the same cache one reference at a time and return what each
reference did.  They subclass the production classes, so the bookkeeping
(``_write``, ``_stage_miss``, ``_bypass``, ``_insert``,
``_prefetch_around``) is the production code; only the per-event control
flow lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.hsm.cache import ManagedDiskCache
from repro.hsm.manager import HSM, HSMConfig
from repro.hsm.metrics import HSMMetrics
from repro.migration.opt import OptimalPolicy
from repro.migration.policy import MigrationPolicy
from repro.namespace.model import Namespace
from repro.workload.generator import SyntheticTrace
from tests.oracles.records import dedupe_for_file_analysis, strip_errors

#: One reference: (file_id, size_bytes, time_seconds, is_write).
Event = Tuple[int, int, float, bool]


@dataclass(slots=True)
class AccessOutcome:
    """What one reference did to the cache."""

    hit: bool
    staged_bytes: int = 0
    evicted: List[int] = field(default_factory=list)
    forced_flush: bool = False


class EventCache(ManagedDiskCache):
    """A managed disk cache fed one reference at a time."""

    def access(
        self, file_id: int, size: int, time: float, is_write: bool
    ) -> AccessOutcome:
        """Apply one reference; returns what happened."""
        if size <= 0:
            raise ValueError("file size must be positive")
        self._note_time(time)
        self.flush_due(time)
        if size > self.config.capacity_bytes:
            self._bypass(file_id, size, time, is_write)
            return AccessOutcome(hit=False, staged_bytes=0 if is_write else size)
        if is_write:
            hit = file_id in self._sizes
            return AccessOutcome(hit=hit, evicted=self._write(file_id, size, time))
        return self._read(file_id, size, time)

    def _read(self, file_id: int, size: int, time: float) -> AccessOutcome:
        if file_id in self._sizes:
            self.metrics.reads += 1
            self.metrics.read_hits += 1
            self.policy.on_access(file_id, time, is_write=False)
            return AccessOutcome(hit=True)
        evicted = self._stage_miss(file_id, size, time)
        return AccessOutcome(hit=False, staged_bytes=size, evicted=evicted)


class EventHSM(HSM):
    """An HSM whose references go through :meth:`handle` one at a time."""

    def __init__(
        self,
        config: HSMConfig,
        policy: MigrationPolicy,
        namespace: Optional[Namespace] = None,
    ) -> None:
        super().__init__(config, policy, namespace)
        self.cache = EventCache(config.cache, policy)

    def handle(self, event: Event) -> None:
        """Apply one reference."""
        file_id, size, time, is_write = event
        prefetcher = self.prefetcher
        if prefetcher is not None and not is_write:
            if self.cache.is_resident(file_id) and prefetcher.consume_hit(file_id):
                self.metrics.prefetch_hits += 1
        outcome = self.cache.access(file_id, size, time, is_write)
        if prefetcher is not None:
            for evicted in outcome.evicted:
                prefetcher.cancel(evicted)
            if not is_write and not outcome.hit:
                self.cache._prefetch_around(prefetcher, file_id, time)

    def run(self, events: Iterable[Event]) -> HSMMetrics:
        """Replay a whole per-tuple reference stream, then flush."""
        for event in events:
            self.handle(event)
        self.cache.flush_all()
        return self.metrics


def events_from_trace(
    trace: SyntheticTrace, deduped: bool = True
) -> List[Event]:
    """Reference stream for HSM replay from a synthetic trace.

    Failed references are dropped; by default the 8-hour dedupe is applied
    (migration decisions would not see batch-script re-requests, Section 6).
    The record-walking twin of :func:`repro.engine.replay.prepare_stream`.
    """
    records = strip_errors(trace.iter_records())
    if deduped:
        records = dedupe_for_file_analysis(records)
    events: List[Event] = []
    for record in records:
        entry = trace.namespace.file_by_path(record.mss_path)
        events.append(
            (entry.file_id, max(entry.size, 1), record.start_time, record.is_write)
        )
    return events


def opt_from_events(events: Iterable[Tuple[int, float]]) -> OptimalPolicy:
    """OPT's schedule from (file_id, time) pairs, one dict append each."""
    schedule: Dict[int, List[float]] = {}
    for file_id, time in events:
        schedule.setdefault(file_id, []).append(time)
    return OptimalPolicy(schedule)
