"""Offline-optimal policy (Belady's MIN adapted to file migration).

Smith found "the best algorithms had access to the entire reference
string for a file" (Section 2.3).  This policy is given the full future
reference schedule and migrates the file whose next reference is farthest
away (never-again files first), providing the lower bound the online
policies are judged against.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence

from repro.migration.policy import MigrationPolicy, ResidentFile

NEVER = float("inf")


class OptimalPolicy(MigrationPolicy):
    """Belady-style offline policy over a known reference string."""

    name = "opt"

    def __init__(self, schedule: Dict[int, Sequence[float]]) -> None:
        """``schedule`` maps file id -> sorted reference times (the full
        trace the simulation is about to replay)."""
        super().__init__()
        self._schedule: Dict[int, List[float]] = {
            fid: sorted(times) for fid, times in schedule.items()
        }

    @staticmethod
    def from_batches(batches: Sequence) -> "OptimalPolicy":
        """Build the schedule from :class:`~repro.engine.batch.EventBatch`es.

        Vectorized: one lexsort over the concatenated (file, time)
        columns, then one slice of the sorted times per file.
        """
        import numpy as np

        arrays = [(b.file_id, b.time) for b in batches if len(b)]
        if not arrays:
            return OptimalPolicy({})
        file_ids = np.concatenate([a for a, _ in arrays])
        times = np.concatenate([t for _, t in arrays])
        order = np.lexsort((times, file_ids))
        file_ids = file_ids[order]
        times = times[order]
        boundaries = np.flatnonzero(np.diff(file_ids)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [file_ids.size]])
        policy = OptimalPolicy({})
        schedule = policy._schedule
        times_list = times.tolist()
        for start, stop, fid in zip(
            starts.tolist(), stops.tolist(), file_ids[starts].tolist()
        ):
            schedule[fid] = times_list[start:stop]
        return policy

    def next_reference_after(self, file_id: int, now: float) -> float:
        """First reference to the file strictly after ``now``."""
        times = self._schedule.get(file_id)
        if not times:
            return NEVER
        idx = bisect.bisect_right(times, now)
        if idx >= len(times):
            return NEVER
        return times[idx]

    def rank(self, meta: ResidentFile, now: float) -> float:
        """Farthest next reference migrates first."""
        return self.next_reference_after(meta.file_id, now)
