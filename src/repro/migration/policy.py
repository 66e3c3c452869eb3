"""The migration-policy interface.

A policy decides which resident files to migrate off the managed disk when
space is needed (Section 6 / the Smith [14,15] and Lawrie [10] studies the
paper builds on).  Policies see every access and answer victim queries;
the cache in :mod:`repro.hsm` owns capacity accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(slots=True)
class ResidentFile:
    """Metadata a policy tracks for one cached file.

    Slotted: one instance exists per resident file and every policy's
    ``rank`` reads it on every migration wave.
    """

    file_id: int
    size: int
    inserted_at: float
    last_access: float
    access_count: int = 1


class MigrationPolicy:
    """Base class: bookkeeping plus the victim-selection hook."""

    name = "base"

    def __init__(self) -> None:
        self._resident: Dict[int, ResidentFile] = {}

    # ------------------------------------------------------------------
    # Bookkeeping driven by the cache

    def on_insert(self, file_id: int, size: int, time: float) -> None:
        """A file has been staged onto the managed disk."""
        if file_id in self._resident:
            raise ValueError(f"file {file_id} is already resident")
        self._resident[file_id] = ResidentFile(
            file_id=file_id, size=size, inserted_at=time, last_access=time
        )

    def on_access(self, file_id: int, time: float, is_write: bool) -> None:
        """A resident file has been referenced."""
        meta = self._resident.get(file_id)
        if meta is None:
            raise KeyError(f"file {file_id} is not resident")
        meta.last_access = time
        meta.access_count += 1

    def on_access_batch(
        self, file_ids: Sequence[int], times: Sequence[float]
    ) -> None:
        """A run of read hits on resident files, in time order.

        Called by the batch replay loop between state-changing events.
        The base implementation updates the shared bookkeeping inline;
        policies that override :meth:`on_access` (to keep extra per-access
        state, like SAAC's decayed rates) are automatically fed one event
        at a time so their hook still sees every access.
        """
        if type(self).on_access is not MigrationPolicy.on_access:
            for file_id, time in zip(file_ids, times):
                self.on_access(file_id, time, is_write=False)
            return
        resident = self._resident
        for file_id, time in zip(file_ids, times):
            meta = resident[file_id]  # KeyError = not resident
            meta.last_access = time
            meta.access_count += 1

    def on_evict(self, file_id: int) -> None:
        """A file has been migrated off the disk."""
        if self._resident.pop(file_id, None) is None:
            raise KeyError(f"file {file_id} is not resident")

    # ------------------------------------------------------------------
    # Introspection

    def is_resident(self, file_id: int) -> bool:
        """Whether the policy believes the file is on disk."""
        return file_id in self._resident

    @property
    def resident_count(self) -> int:
        """Number of resident files."""
        return len(self._resident)

    def metadata(self, file_id: int) -> ResidentFile:
        """Metadata for one resident file."""
        return self._resident[file_id]

    # ------------------------------------------------------------------
    # The decision hook

    def select_victims(
        self, needed_bytes: int, now: float, protect: Optional[int] = None
    ) -> List[int]:
        """Pick files to migrate until at least ``needed_bytes`` are freed.

        ``protect`` names a file that must not be chosen (typically the
        file currently being staged).  Subclasses implement ``rank``; the
        default selection greedily takes the highest-ranked victims.
        """
        chosen: List[int] = []
        freed = 0
        rank = self.rank
        # Lazy selection: heapify is O(candidates) and only the victims
        # actually taken pay a log-cost pop, instead of fully sorting the
        # residency list on every migration wave.  The index tiebreak
        # reproduces the stable descending sort exactly, so victim order
        # (and therefore every downstream metric) is unchanged.
        entries = [
            (-rank(meta, now), index, meta.file_id, meta.size)
            for index, meta in enumerate(self._resident.values())
            if meta.file_id != protect
        ]
        heapq.heapify(entries)
        pop = heapq.heappop
        while entries and freed < needed_bytes:
            _, _, file_id, size = pop(entries)
            chosen.append(file_id)
            freed += size
        return chosen

    def rank(self, meta: ResidentFile, now: float) -> float:
        """Migration priority; higher ranks migrate first."""
        raise NotImplementedError
