"""The simple baseline policies the prior studies compared against.

Lawrie et al. [10] evaluated "pure LRU, pure length (migrate large files
first)" against Smith's STP; we add FIFO, smallest-first and random as
additional controls.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.migration.policy import MigrationPolicy, ResidentFile


class LRUPolicy(MigrationPolicy):
    """Migrate the least recently used file first."""

    name = "lru"

    # Recency ranks (here, FIFO and MRU) are the keys themselves, not
    # ``now - key``: the subtraction can round two distinct keys to one
    # rank, and the tie would then break by residency order, not by time.
    def rank(self, meta: ResidentFile, now: float) -> float:
        return -meta.last_access


class FIFOPolicy(MigrationPolicy):
    """Migrate the longest-resident file first, ignoring reuse."""

    name = "fifo"

    def rank(self, meta: ResidentFile, now: float) -> float:
        return -meta.inserted_at


class LargestFirstPolicy(MigrationPolicy):
    """Lawrie's "pure length": migrate the biggest file first."""

    name = "largest-first"

    def rank(self, meta: ResidentFile, now: float) -> float:
        return float(meta.size)


class SmallestFirstPolicy(MigrationPolicy):
    """Migrate the smallest file first (a deliberately bad control)."""

    name = "smallest-first"

    def rank(self, meta: ResidentFile, now: float) -> float:
        return -float(meta.size)


class RandomPolicy(MigrationPolicy):
    """Uniformly random victims."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)

    def rank(self, meta: ResidentFile, now: float) -> float:
        return float(self._rng.random())


class MRUPolicy(MigrationPolicy):
    """Migrate the most recently used file (pathological control)."""

    name = "mru"

    def rank(self, meta: ResidentFile, now: float) -> float:
        return meta.last_access
