"""The hierarchical storage manager: cache + policy + prefetch, replaying
a reference stream and reporting migration metrics.

This is the engine behind the Section 6 experiments: compare STP / LRU /
size / SAAC / OPT at various managed-disk capacities, toggle lazy
write-back, and measure what prefetching buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.hsm.cache import CacheConfig, ManagedDiskCache
from repro.hsm.metrics import HSMMetrics
from repro.hsm.prefetch import PrefetchConfig, SequentialPrefetcher
from repro.migration.policy import MigrationPolicy
from repro.namespace.model import Namespace

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch
    from repro.verify.invariants import HSMInvariantChecker


@dataclass
class HSMConfig:
    """Complete HSM experiment configuration."""

    cache: CacheConfig
    prefetch: PrefetchConfig = field(default_factory=lambda: PrefetchConfig(enabled=False))

    @staticmethod
    def with_capacity(
        capacity_bytes: int,
        writeback_delay: Optional[float] = 4 * 3600.0,
        prefetch: bool = False,
    ) -> "HSMConfig":
        """Convenience constructor used by the benches."""
        return HSMConfig(
            cache=CacheConfig(
                capacity_bytes=capacity_bytes, writeback_delay=writeback_delay
            ),
            prefetch=PrefetchConfig(enabled=prefetch),
        )


class HSM:
    """A managed disk tier in front of the tape archive.

    :meth:`feed` and :meth:`finalize` are the one replay kernel: the DES
    (:meth:`replay`), sweep cells and serve sessions all apply prepared
    batches through them, so the ``hsm-batch`` fault point and the
    runtime invariant checker are wired here and nowhere else.
    """

    def __init__(
        self,
        config: HSMConfig,
        policy: MigrationPolicy,
        namespace: Optional[Namespace] = None,
        site: str = "hsm.replay",
    ) -> None:
        self.config = config
        self.policy = policy
        self.cache = ManagedDiskCache(config.cache, policy)
        self.prefetcher: Optional[SequentialPrefetcher] = None
        if config.prefetch.enabled:
            if namespace is None:
                raise ValueError("prefetching needs the namespace for siblings")
            self.prefetcher = SequentialPrefetcher(namespace, config.prefetch)
        #: Where invariant violations are reported.
        self.site = site
        #: Batches applied by :meth:`feed`: the ``hsm-batch`` fault index.
        self.batches_fed = 0
        self._checker: Optional["HSMInvariantChecker"] = None

    def __getstate__(self) -> dict:
        # The checker observes this process's feeds only; a pickled HSM
        # (a session snapshot) never carries one.
        state = self.__dict__.copy()
        state["_checker"] = None
        return state

    @property
    def metrics(self) -> HSMMetrics:
        """Counters accumulated so far."""
        return self.cache.metrics

    def _invariant_checker(self) -> Optional["HSMInvariantChecker"]:
        """The live checker while ``REPRO_CHECK_INVARIANTS`` is on."""
        from repro.verify.invariants import (
            HSMInvariantChecker, invariants_enabled,
        )

        if not invariants_enabled():
            self._checker = None
        elif self._checker is None:
            self._checker = HSMInvariantChecker(
                self.cache, site=self.site,
                prefetch=self.prefetcher is not None,
                first_batch=self.batches_fed,
            )
        return self._checker

    def feed(self, batch: "EventBatch") -> None:
        """Apply one prepared batch (see :func:`repro.engine.stream.prepare_batch`).

        One call of the cache's batch access path, with or without the
        prefetcher (read misses stage their siblings inside that loop).

        With ``REPRO_CHECK_INVARIANTS=1`` every batch is followed by the
        conservation-law check and a structural audit of the cache; the
        ``hsm-batch`` fault point lets the chaos harness corrupt a
        counter deliberately to prove the checker catches it.
        """
        from repro.engine.resilience import fault_point

        checker = self._invariant_checker()
        self.cache.access_batch(
            batch.file_id.tolist(), batch.size.tolist(),
            batch.time.tolist(), batch.is_write.tolist(), self.prefetcher,
        )
        index = self.batches_fed
        self.batches_fed = index + 1
        if "corrupt" in fault_point("hsm-batch", f"batch:{index}"):
            self.cache.metrics.read_hits += 1
        if checker is not None:
            checker.after_batch(batch)

    def finalize(self) -> HSMMetrics:
        """Flush the write-back queue and check the at-finalize laws."""
        checker = self._invariant_checker()
        self.cache.flush_all()
        if checker is not None:
            checker.finalize()
        return self.metrics

    def replay(self, batches: Iterable["EventBatch"]) -> HSMMetrics:
        """Replay a prepared batch stream: feed every batch, then finalize."""
        for batch in batches:
            self.feed(batch)
        return self.finalize()

