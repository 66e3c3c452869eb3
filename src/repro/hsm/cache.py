"""The managed disk cache in front of tertiary storage.

This models the disk tier a migration policy manages: reads hit or stage
from tape, writes land on disk and flush to tape (lazily or immediately),
and a watermark pair triggers migration.  Section 6's recommendation --
"it should write data to tape relatively quickly, and then mark the file
as 'deleteable'" -- is the lazy write-back mode: once flushed, a file's
space can be reclaimed without further tape work.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.hsm.metrics import HSMMetrics
from repro.migration.policy import MigrationPolicy
from repro.util.units import HOUR

if TYPE_CHECKING:
    from repro.hsm.prefetch import SequentialPrefetcher


@dataclass(frozen=True)
class CacheConfig:
    """Managed-disk parameters."""

    capacity_bytes: int
    #: Migration starts above ``high_watermark`` and stops below
    #: ``low_watermark`` (fractions of capacity).
    high_watermark: float = 0.95
    low_watermark: float = 0.85
    #: Lazy write-back: flush dirty files this long after their last
    #: write; None = write-through (flush immediately).
    writeback_delay: Optional[float] = 4 * HOUR

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError("need 0 < low <= high <= 1")


class ManagedDiskCache:
    """Byte-capacity cache driven by a migration policy.

    The caller feeds time-ordered accesses; the cache tracks residency,
    dirtiness, and the flush queue, and asks the policy for victims when
    the high watermark is crossed.
    """

    def __init__(self, config: CacheConfig, policy: MigrationPolicy) -> None:
        self.config = config
        self.policy = policy
        self.metrics = HSMMetrics()
        self._sizes: Dict[int, int] = {}
        self._ever_seen: Set[int] = set()
        self._dirty: Set[int] = set()
        #: Min-heap of (due time, file, version); entries whose version no
        #: longer matches ``_flush_version`` are stale and skipped on pop
        #: (lazy invalidation -- cheaper than rebuilding the queue on every
        #: rewrite, which the old sorted-list queue did).
        self._flush_queue: List[Tuple[float, int, int]] = []
        self._flush_version: Dict[int, int] = {}
        self._usage = 0
        # Hot-loop constants (the config is frozen, so these never move).
        self._high_bytes = config.high_watermark * config.capacity_bytes
        self._writeback_delay = config.writeback_delay
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None

    # ------------------------------------------------------------------
    # State inspection

    @property
    def usage_bytes(self) -> int:
        """Bytes currently resident."""
        return self._usage

    @property
    def resident_files(self) -> int:
        """Files currently resident."""
        return len(self._sizes)

    def is_resident(self, file_id: int) -> bool:
        """Whether a file is on the managed disk."""
        return file_id in self._sizes

    def is_dirty(self, file_id: int) -> bool:
        """Whether a resident file still owes a tape copy."""
        return file_id in self._dirty

    def check_invariants(self) -> None:
        """Raise if internal accounting is inconsistent (test hook)."""
        if self._usage != sum(self._sizes.values()):
            raise AssertionError("usage does not match resident sizes")
        if self._usage > self.config.capacity_bytes:
            raise AssertionError("capacity exceeded")
        if not self._dirty <= set(self._sizes):
            raise AssertionError("dirty files not resident")
        if self.policy.resident_count != len(self._sizes):
            raise AssertionError("policy and cache disagree on residency")

    # ------------------------------------------------------------------
    # The access path

    def access_batch(
        self,
        file_ids: Sequence[int],
        sizes: Sequence[int],
        times: Sequence[float],
        writes: Sequence[bool],
        prefetcher: Optional["SequentialPrefetcher"] = None,
    ) -> None:
        """Apply one time-ordered batch of references.

        The read-hit path is inlined: consecutive hits are buffered and
        handed to the policy as one
        :meth:`~repro.migration.policy.MigrationPolicy.on_access_batch`
        run just before the next state-changing event (nothing changes
        residency inside a run of hits).  This is the hot loop of every
        Section 6 sweep.

        With a ``prefetcher``, every read miss also stages the file's
        next siblings (:meth:`_prefetch_around`), every eviction cancels
        the victim's outstanding prefetch, and a read hit on an
        outstanding prefetch counts one prefetch hit when its run of hits
        is settled.
        """
        n = len(file_ids)
        if n == 0:
            return
        capacity = self.config.capacity_bytes
        # Whole-batch pre-check: when every size is positive and fits the
        # cache (the normal case) the hot loop can skip two comparisons
        # per event.  A batch containing nonpositive or oversized sizes
        # is split at those indices: the degenerate events raise or
        # bypass one at a time, and every clean span between them still
        # runs the fast loop.
        if min(sizes) <= 0 or max(sizes) > capacity:
            self._access_batch_split(file_ids, sizes, times, writes, prefetcher)
            return
        self._access_batch_fast(file_ids, sizes, times, writes, prefetcher)

    def _access_batch_fast(
        self,
        file_ids: Sequence[int],
        sizes: Sequence[int],
        times: Sequence[float],
        writes: Sequence[bool],
        prefetcher: Optional["SequentialPrefetcher"],
    ) -> None:
        """The buffered-hit hot loop; callers guarantee clean sizes."""
        n = len(file_ids)
        sizes_map = self._sizes
        queue = self._flush_queue
        policy = self.policy
        metrics = self.metrics
        hit_files: List[int] = []
        hit_times: List[float] = []
        append_hit_file = hit_files.append
        append_hit_time = hit_times.append
        flush_due = self.flush_due
        stage_miss = self._stage_miss
        write = self._write

        def drain_hits() -> None:
            metrics.reads += len(hit_files)
            metrics.read_hits += len(hit_files)
            policy.on_access_batch(hit_files, hit_times)
            if prefetcher is not None:
                metrics.prefetch_hits += prefetcher.consume_hits(hit_files)
            hit_files.clear()
            hit_times.clear()

        for file_id, size, time, is_write in zip(file_ids, sizes, times, writes):
            if queue and queue[0][0] <= time:
                flush_due(time)
            if not is_write and file_id in sizes_map:
                append_hit_file(file_id)
                append_hit_time(time)
                continue
            if hit_files:
                drain_hits()
            if is_write:
                evicted = write(file_id, size, time)
            else:
                evicted = stage_miss(file_id, size, time)
            if prefetcher is not None:
                for victim in evicted:
                    prefetcher.cancel(victim)
                if not is_write:
                    self._prefetch_around(prefetcher, file_id, time)
        if hit_files:
            drain_hits()
        if self._first_time is None:
            self._first_time = float(times[0])
        self._last_time = float(times[n - 1])
        metrics.span_seconds = self._last_time - self._first_time

    def _access_batch_split(
        self,
        file_ids: Sequence[int],
        sizes: Sequence[int],
        times: Sequence[float],
        writes: Sequence[bool],
        prefetcher: Optional["SequentialPrefetcher"],
    ) -> None:
        """Batch path for streams containing oversized or bad sizes.

        Only the degenerate events are handled one at a time; the clean
        spans between them replay through :meth:`_access_batch_fast`.
        Raises on a nonpositive size with every earlier event already
        applied.  An oversized read is a read miss, so it triggers a
        prefetch; if the file is resident at another size and was
        prefetched, the read first counts as a prefetch hit.
        """
        capacity = self.config.capacity_bytes
        n = len(file_ids)
        start = 0
        for i, size in enumerate(sizes):
            if 0 < size <= capacity:
                continue
            if i > start:
                self._access_batch_fast(
                    file_ids[start:i], sizes[start:i],
                    times[start:i], writes[start:i], prefetcher,
                )
            if size <= 0:
                raise ValueError("file size must be positive")
            file_id, time, is_write = file_ids[i], times[i], writes[i]
            self._note_time(float(time))
            self.flush_due(time)
            prefetching = prefetcher is not None and not is_write
            if prefetching and prefetcher.consume_hit(file_id):
                self.metrics.prefetch_hits += 1
            self._bypass(file_id, size, time, is_write)
            if prefetching:
                self._prefetch_around(prefetcher, file_id, time)
            start = i + 1
        if start < n:
            self._access_batch_fast(
                file_ids[start:n], sizes[start:n], times[start:n],
                writes[start:n], prefetcher,
            )

    def _bypass(
        self, file_id: int, size: int, time: float, is_write: bool
    ) -> None:
        """A file larger than the managed disk cannot be staged: it moves
        directly between the Cray and tape, leaving the cache untouched."""
        metrics = self.metrics
        if is_write:
            metrics.writes += 1
            metrics.bytes_written += size
            metrics.bypassed_writes += 1
            metrics.tape_writes += 1
            metrics.bytes_flushed += size
            # The tape copy exists now, so a later read is not compulsory.
            self._ever_seen.add(file_id)
            return
        metrics.reads += 1
        metrics.read_misses += 1
        metrics.bypassed_reads += 1
        if file_id not in self._ever_seen:
            metrics.compulsory_misses += 1
            self._ever_seen.add(file_id)
        metrics.bytes_staged += size

    def _prefetch_around(
        self, prefetcher: "SequentialPrefetcher", file_id: int, time: float
    ) -> None:
        """Stage the next siblings of a read-missed file speculatively."""
        metrics = self.metrics
        for sibling_id, sibling_size in prefetcher.candidates(file_id):
            if sibling_id in self._sizes:
                continue
            if sibling_size > self.config.capacity_bytes // 4:
                continue  # do not wipe the cache for speculation
            metrics.prefetches_issued += 1
            metrics.bytes_staged += sibling_size
            for victim in self._insert(sibling_id, sibling_size, time, dirty=False):
                prefetcher.cancel(victim)
            prefetcher.note_prefetched(sibling_id)

    def _stage_miss(self, file_id: int, size: int, time: float) -> List[int]:
        """Read-miss bookkeeping + staging; returns the files evicted."""
        metrics = self.metrics
        metrics.reads += 1
        metrics.read_misses += 1
        if file_id not in self._ever_seen:
            metrics.compulsory_misses += 1
        metrics.bytes_staged += size
        return self._insert(file_id, size, time, dirty=False)

    def _write(self, file_id: int, size: int, time: float) -> List[int]:
        """Write bookkeeping; returns the files evicted to make room."""
        metrics = self.metrics
        metrics.writes += 1
        metrics.bytes_written += size
        evicted: List[int] = []
        if file_id in self._sizes:
            self.policy.on_access(file_id, time, is_write=True)
            if file_id in self._dirty:
                # Re-written before its flush: the pending tape copy is
                # superseded ("write lazily" pays off here).
                metrics.rewrites_absorbed += 1
                self._unschedule_flush(file_id)
        else:
            evicted = self._insert(file_id, size, time, dirty=True)
        delay = self._writeback_delay
        if delay is None:
            self._flush_now(file_id)
        else:
            self._dirty.add(file_id)
            heapq.heappush(
                self._flush_queue,
                (time + delay, file_id, self._flush_version.get(file_id, 0)),
            )
        return evicted

    # ------------------------------------------------------------------
    # Flushing (tape writes)

    def flush_due(self, now: float) -> int:
        """Flush dirty files whose write-back timer expired."""
        flushed = 0
        queue = self._flush_queue
        while queue and queue[0][0] <= now:
            _, file_id, version = heapq.heappop(queue)
            if (
                version == self._flush_version.get(file_id, 0)
                and file_id in self._dirty
            ):
                self._flush_now(file_id)
                flushed += 1
        return flushed

    def flush_all(self) -> int:
        """Flush every dirty file (end-of-run cleanup)."""
        dirty = list(self._dirty)
        for file_id in dirty:
            self._flush_now(file_id)
        self._flush_queue.clear()
        return len(dirty)

    def _flush_now(self, file_id: int) -> None:
        size = self._sizes.get(file_id, 0)
        self.metrics.tape_writes += 1
        self.metrics.bytes_flushed += size
        self._dirty.discard(file_id)

    def _unschedule_flush(self, file_id: int) -> None:
        self._flush_version[file_id] = self._flush_version.get(file_id, 0) + 1

    # ------------------------------------------------------------------
    # Insertion and migration

    def _insert(
        self, file_id: int, size: int, time: float, dirty: bool
    ) -> List[int]:
        if self._usage + size > self._high_bytes:
            evicted = self._make_room(size, time, protect=file_id)
        else:
            evicted = []
        self._sizes[file_id] = size
        self._ever_seen.add(file_id)
        self._usage += size
        self.policy.on_insert(file_id, size, time)
        if dirty:
            self._dirty.add(file_id)
        return evicted

    def _make_room(
        self, incoming: int, time: float, protect: Optional[int]
    ) -> List[int]:
        """Evict (via the policy) so the incoming file fits and usage
        drops to the low watermark if the high one was crossed."""
        capacity = self.config.capacity_bytes
        evicted: List[int] = []
        target = None
        if self._usage + incoming > self.config.high_watermark * capacity:
            target = self.config.low_watermark * capacity - incoming
        elif self._usage + incoming > capacity:
            target = capacity - incoming
        if target is None:
            return evicted
        needed = self._usage - max(target, 0)
        if needed <= 0:
            return evicted
        victims = self.policy.select_victims(int(needed), time, protect=protect)
        for victim in victims:
            self._evict(victim)
            evicted.append(victim)
        # Defensive: if the policy under-delivered, evict by policy rank
        # until the incoming file physically fits.
        while self._usage + incoming > capacity and self._sizes:
            extra = self.policy.select_victims(1, time, protect=protect)
            if not extra:
                raise RuntimeError("policy returned no victims but cache is full")
            for victim in extra:
                self._evict(victim)
                evicted.append(victim)
                if self._usage + incoming <= capacity:
                    break
        return evicted

    def _evict(self, file_id: int) -> None:
        if file_id in self._dirty:
            # Migrating a dirty file forces its tape copy first.
            self.metrics.forced_flushes += 1
            self._flush_now(file_id)
            self._unschedule_flush(file_id)
        size = self._sizes.pop(file_id)
        self._usage -= size
        self.policy.on_evict(file_id)
        self.metrics.evictions += 1
        self.metrics.bytes_evicted += size

    # ------------------------------------------------------------------

    def _note_time(self, time: float) -> None:
        if self._first_time is None:
            self._first_time = time
        self._last_time = time
        self.metrics.span_seconds = (self._last_time or 0.0) - (
            self._first_time or 0.0
        )
