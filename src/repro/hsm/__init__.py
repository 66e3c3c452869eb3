"""Hierarchical storage management: managed disk cache over tape."""

from repro.hsm.cache import CacheConfig, ManagedDiskCache
from repro.hsm.cutthrough import (
    CutThroughReport,
    blocking_stall,
    cutthrough_stall,
    evaluate_cutthrough,
)
from repro.hsm.manager import HSM, HSMConfig
from repro.hsm.metrics import DISK_HIT_LATENCY, HSMMetrics, TAPE_MISS_LATENCY
from repro.hsm.prefetch import PrefetchConfig, SequentialPrefetcher

__all__ = [
    "CacheConfig",
    "CutThroughReport",
    "blocking_stall",
    "cutthrough_stall",
    "evaluate_cutthrough",
    "DISK_HIT_LATENCY",
    "HSM",
    "HSMConfig",
    "HSMMetrics",
    "ManagedDiskCache",
    "PrefetchConfig",
    "SequentialPrefetcher",
    "TAPE_MISS_LATENCY",
]
