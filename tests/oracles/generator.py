"""The generator's scalar twins: per-event placement and session packing.

:func:`repro.workload.placement.assign_devices_batch` and
:func:`repro.workload.clustering.pack_sessions` draw their random numbers
in blocks, so they match these seed-era loops in law, not bit for bit;
the placement and clustering tests and the cold-generation benchmark
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.namespace.model import Namespace
from repro.trace.record import Device
from repro.util.rng import SeedSequenceFactory
from repro.util.units import HOUR
from repro.workload.clustering import pack_sessions
from repro.workload.config import PlacementConfig, SessionConfig, WorkloadConfig
from repro.workload.generator import (
    SyntheticTrace,
    _file_dir_array,
    _file_size_array,
)
from repro.workload.lifecycle import LifecycleSample
from repro.workload.placement import DEVICE_INDEX, assign_devices_batch


@dataclass
class _FileState:
    """Mutable per-file placement state during trace generation."""

    on_shelf: bool
    last_access: float


@dataclass
class DevicePlacement:
    """Stateful per-reference device assignment.

    Feed references in nondecreasing time order; the placement tracks each
    tape-class file's recency to decide silo vs shelf.
    """

    config: PlacementConfig = field(default_factory=PlacementConfig)

    def __post_init__(self) -> None:
        self._tape_state: Dict[int, _FileState] = {}

    def is_tape_class(self, size: int) -> bool:
        """True for files the MSS sends straight to tape."""
        return size >= self.config.disk_threshold_bytes

    def register_preexisting(
        self, rng: np.random.Generator, file_id: int, size: int
    ) -> None:
        """Mark a file that existed before the trace started.

        Old tape files mostly sit on shelved cartridges; a minority are
        still in the silo from recent activity.
        """
        if not self.is_tape_class(size):
            return
        on_shelf = bool(rng.random() < self.config.preexisting_shelf_fraction)
        self._tape_state[file_id] = _FileState(
            on_shelf=on_shelf, last_access=float("-inf")
        )

    def assign(
        self,
        rng: np.random.Generator,
        file_id: int,
        size: int,
        time: float,
        is_write: bool,
    ) -> Device:
        """Pick the storage level for one reference and update state."""
        if not self.is_tape_class(size):
            return Device.MSS_DISK

        state = self._tape_state.get(file_id)
        if is_write:
            # Fresh data lands on silo cartridges, rarely on shelf tapes
            # (special operator-mounted requests).
            to_shelf = bool(rng.random() < self.config.tape_write_shelf_fraction)
            self._tape_state[file_id] = _FileState(on_shelf=to_shelf, last_access=time)
            return Device.TAPE_SHELF if to_shelf else Device.TAPE_SILO

        if state is None:
            # First sighting is a read: the file pre-dates the trace but was
            # never registered (defensive path) -- treat as shelved archive.
            state = _FileState(on_shelf=True, last_access=float("-inf"))
            self._tape_state[file_id] = state

        if not state.on_shelf:
            if (time - state.last_access) > self.config.silo_residency:
                # The silo holds only 6,000 cartridges; inactive ones are
                # ejected to shelf storage.  A fresh write always lands the
                # data back on a silo cartridge.
                state.on_shelf = True
            else:
                state.last_access = time
                return Device.TAPE_SILO
        # Reading off the shelf sometimes gets the cartridge re-entered
        # into the silo (hot data the operators expect to be used again).
        if rng.random() < self.config.promote_on_read:
            state.on_shelf = False
            state.last_access = time
        return Device.TAPE_SHELF


def assign_devices_scalar(
    config: WorkloadConfig,
    lifecycles: LifecycleSample,
    namespace: Namespace,
    times: np.ndarray,
    file_idx: np.ndarray,
    is_write: np.ndarray,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The seed's per-event placement loop (reference implementation)."""
    placement = DevicePlacement(config.placement)
    size_array = _file_size_array(namespace)
    for fid in np.where(lifecycles.preexisting)[0]:
        placement.register_preexisting(rng, int(fid), int(size_array[fid]))
    device_idx = np.empty(times.size, dtype=np.int8)
    for i in range(times.size):
        device = placement.assign(
            rng,
            int(file_idx[i]),
            int(sizes[i]),
            float(times[i]),
            bool(is_write[i]),
        )
        device_idx[i] = DEVICE_INDEX[device]
    return device_idx


def time_generation_stage_paths(trace: SyntheticTrace, rounds: int = 1) -> dict:
    """Best-of-``rounds`` wall time of scalar vs vectorized placement and
    session packing on one trace's good-event stream.

    The measurement harness behind
    ``benchmarks/test_generate_throughput.py``: it compares the seed's
    per-event reference implementations against the array-level stages
    on the same realistic time-sorted stream.  Each path draws from its
    own named seed, so repeated rounds are deterministic.  Returns the
    four timings plus the outputs (device arrays, packed times) for
    statistical-equivalence checks.
    """
    import time

    config = trace.config
    good = trace.errors == 0
    times = trace.times[good]
    file_idx = trace.file_ids[good]
    sizes = trace.sizes[good]
    is_write = trace.is_write[good]
    group_keys = _file_dir_array(trace.namespace)[file_idx]
    seeds = SeedSequenceFactory(config.seed)

    def best_of(fn):
        best = float("inf")
        result = None
        for _ in range(max(rounds, 1)):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    scalar_placement, scalar_devices = best_of(lambda: assign_devices_scalar(
        config, trace.lifecycles, trace.namespace, times, file_idx,
        is_write, sizes, seeds.named("p-scalar"),
    ))
    vector_placement, vector_devices = best_of(lambda: assign_devices_batch(
        seeds.named("p-vector"), config.placement, file_idx, sizes, times,
        is_write,
    ))
    scalar_sessions, scalar_packed = best_of(lambda: pack_sessions_scalar(
        seeds.named("s-scalar"), times, config.sessions, group_keys=group_keys,
    ))
    vector_sessions, vector_packed = best_of(lambda: pack_sessions(
        seeds.named("s-vector"), times, config.sessions, group_keys=group_keys,
    ))
    scalar_seconds = scalar_placement + scalar_sessions
    vector_seconds = vector_placement + vector_sessions
    return {
        "n_events": int(times.size),
        "times": times,
        "scalar_placement_seconds": scalar_placement,
        "vector_placement_seconds": vector_placement,
        "scalar_sessions_seconds": scalar_sessions,
        "vector_sessions_seconds": vector_sessions,
        "speedup": (
            scalar_seconds / vector_seconds if vector_seconds else float("inf")
        ),
        "scalar_devices": scalar_devices,
        "vector_devices": vector_devices,
        "scalar_packed_times": scalar_packed[0],
        "vector_packed_times": vector_packed[0],
    }


def pack_sessions_scalar(
    rng: np.random.Generator,
    times: np.ndarray,
    config: SessionConfig,
    group_keys: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-hour-bin reference implementation of :func:`pack_sessions`.

    The seed's original Python loop, kept as the statistical baseline the
    vectorized path is tested and benchmarked against.  Note it predates
    the hour-clamp fix: long sessions may spill past their hour bin.
    """
    if times.size == 0:
        return times, np.empty(0, dtype=np.int64)
    hour_bins = (times // HOUR).astype(np.int64)
    order = np.argsort(hour_bins, kind="stable")
    new_times = np.empty_like(times)
    session_ids = np.empty(times.size, dtype=np.int64)
    next_session = 0
    start = 0
    sorted_bins = hour_bins[order]
    while start < order.size:
        end = start
        current = sorted_bins[start]
        while end < order.size and sorted_bins[end] == current:
            end += 1
        members = order[start:end]
        n = members.size
        # Partition this hour's events into geometric-size sessions.
        p = 1.0 / config.mean_session_length
        sizes = []
        remaining = n
        while remaining > 0:
            size = min(int(rng.geometric(p)), remaining)
            sizes.append(size)
            remaining -= size
        if group_keys is None:
            rng.shuffle(members)
        else:
            # Keep same-directory events adjacent (random tiebreak) so a
            # session reads one directory, as a real job would.
            keys = group_keys[members]
            tiebreak = rng.random(n)
            members = members[np.lexsort((tiebreak, keys))]
        cursor = 0
        hour_start = current * HOUR
        for size in sizes:
            chunk = members[cursor:cursor + size]
            cursor += size
            head = hour_start + rng.random() * (HOUR - config.intra_gap_cap * 2)
            gaps = np.minimum(
                rng.exponential(config.intra_gap_mean, size=size),
                config.intra_gap_cap,
            )
            offsets = np.cumsum(gaps) - gaps[0]
            new_times[chunk] = head + offsets
            session_ids[chunk] = next_session
            next_session += 1
        start = end
    return new_times, session_ids
