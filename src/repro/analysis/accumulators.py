"""One-pass numpy reductions over :class:`EventBatch` streams.

Every figure and table that consumes the reference stream reduces it to
a handful of histograms, sample vectors, or per-cell moments.  The
helpers here do those reductions column-at-a-time, so a multi-month
trace is analyzed at memory bandwidth instead of one
:class:`~repro.trace.record.TraceRecord` at a time.

Each helper consumes an iterable of batches in stream order and matches
a record-at-a-time walk number for number (the tests keep those walks as
oracles): integer reductions (counts, byte totals, sample vectors, gaps)
are bit-identical because the same values are combined in the same
order; floating means computed with numpy instead of Welford updates
agree to rounding error (~1e-15 relative), far below any rendered
precision.

The analysis modules re-export these as ``*_from_batches`` entry
points; this module holds only the reductions, no figure dataclasses.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.batch import DEVICE_ORDER, EventBatch
from repro.trace.errors import ErrorKind
from repro.trace.record import Device
from repro.trace.stats import CellStats, TraceStatistics
from repro.util.stats import StreamingMoments
from repro.util.units import DAY, HOUR, WEEK

# ---------------------------------------------------------------------------
# Bin index functions (Figures 4-6)


def hour_of_day_bins(times: np.ndarray) -> np.ndarray:
    """Figure 4 bins: hour of day, 0 = midnight."""
    return ((times % DAY) // HOUR).astype(np.int64)


def day_of_week_bins(times: np.ndarray) -> np.ndarray:
    """Figure 5 bins: day of week, 0 = Sunday.

    The trace epoch (1990-10-01) is a Monday, so trace day ``d`` has
    day-of-week ``(d + 1) % 7`` -- the vectorized equivalent of
    :meth:`repro.util.timeutil.TraceCalendar.day_of_week`.
    """
    return ((times // DAY).astype(np.int64) + 1) % 7


def week_of_trace_bins(times: np.ndarray, n_weeks: int) -> np.ndarray:
    """Figure 6 bins: trace week, clamped to the last week."""
    return np.minimum((times // WEEK).astype(np.int64), n_weeks - 1)


def binned_byte_sums(
    batches: Iterable[EventBatch],
    bin_of: Callable[[np.ndarray], np.ndarray],
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Per-bin byte totals for reads and writes, plus the traced span.

    One pass: each batch is error-stripped, binned with ``bin_of`` and
    scatter-added into the read/write accumulators.  ``np.add.at``
    applies updates in element order, so the float sums match the
    record loop exactly.
    """
    read_bytes = np.zeros(n_bins)
    write_bytes = np.zeros(n_bins)
    first: Optional[float] = None
    last: Optional[float] = None
    for batch in batches:
        batch = batch.good()
        if not len(batch):
            continue
        if first is None:
            first = float(batch.time[0])
        last = float(batch.time[-1])
        bins = bin_of(batch.time)
        writes = batch.is_write
        np.add.at(read_bytes, bins[~writes], batch.size[~writes])
        np.add.at(write_bytes, bins[writes], batch.size[writes])
    if first is None or last is None or last <= first:
        raise ValueError("need a non-degenerate batch stream")
    return read_bytes, write_bytes, last - first


def binned_byte_series(
    batches: Iterable[EventBatch],
    bin_seconds: float,
    direction: Optional[bool] = None,
    span_seconds: Optional[float] = None,
) -> np.ndarray:
    """Bytes moved per fixed-width time bin (the periodicity series).

    ``direction`` is ``None`` for both, else ``is_write``.  Streams batch by
    batch with O(n_bins) state: the bin array grows as the horizon
    advances instead of buffering the whole filtered stream.
    """
    fixed_bins = (
        int(np.ceil(span_seconds / bin_seconds))
        if span_seconds is not None
        else None
    )
    series = np.zeros(fixed_bins if fixed_bins is not None else 1024)
    horizon = 0.0
    matched = 0
    for batch in batches:
        batch = batch.good()
        if direction is not None:
            batch = batch.select(batch.is_write == direction)
        if not len(batch):
            continue
        matched += len(batch)
        horizon = max(horizon, float(batch.time[-1]))
        idx = (batch.time // bin_seconds).astype(np.int64)
        if fixed_bins is not None:
            idx = np.minimum(idx, fixed_bins - 1)
        else:
            top = int(idx[-1])  # times are nondecreasing within a batch
            if top >= series.size:
                series = np.concatenate(
                    [series, np.zeros(max(series.size, top + 1 - series.size))]
                )
        np.add.at(series, idx, batch.size)
    if not matched:
        raise ValueError("no matching events")
    if fixed_bins is not None:
        return series
    n_bins = int(np.ceil((horizon + bin_seconds) / bin_seconds))
    if n_bins <= series.size:
        return series[:n_bins]
    return np.concatenate([series, np.zeros(n_bins - series.size)])


# ---------------------------------------------------------------------------
# Interreference gaps (Figures 7 and 9)


def system_interarrival_gaps(batches: Iterable[EventBatch]) -> np.ndarray:
    """Gaps between consecutive request start times, across batches."""
    parts: List[np.ndarray] = []
    prev: Optional[float] = None
    count = 0
    for batch in batches:
        if not len(batch):
            continue
        count += len(batch)
        if prev is None:
            parts.append(np.diff(batch.time))
        else:
            parts.append(np.diff(batch.time, prepend=prev))
        prev = float(batch.time[-1])
    if count < 2:
        raise ValueError("need at least two events")
    gaps = np.concatenate(parts) if parts else np.empty(0)
    if np.any(gaps < 0):
        raise ValueError("batches must be time-ordered")
    return gaps


def per_file_gaps(batches: Iterable[EventBatch]) -> np.ndarray:
    """Gaps between successive references to the same file.

    Groups a time-ordered stream by ``file_id`` with one stable sort
    and differences within each group.  Gap groups are emitted in
    first-appearance order of their file -- the same order the
    record-path dict walk produces -- so downstream statistics match
    bit for bit.
    """
    id_parts: List[np.ndarray] = []
    time_parts: List[np.ndarray] = []
    for batch in batches:
        if len(batch):
            id_parts.append(batch.file_id)
            time_parts.append(batch.time)
    if not id_parts:
        raise ValueError("no file was referenced twice")
    file_ids = np.concatenate(id_parts)
    times = np.concatenate(time_parts)
    order = np.argsort(file_ids, kind="stable")
    ids_sorted = file_ids[order]
    times_sorted = times[order]
    same_file = ids_sorted[1:] == ids_sorted[:-1]
    if not np.any(same_file):
        raise ValueError("no file was referenced twice")
    gaps = (times_sorted[1:] - times_sorted[:-1])[same_file]
    # Reorder gap groups by the file's first appearance in the stream.
    unique_ids, first_idx = np.unique(file_ids, return_index=True)
    gap_group = np.searchsorted(unique_ids, ids_sorted[1:][same_file])
    return gaps[np.argsort(first_idx[gap_group], kind="stable")]


# ---------------------------------------------------------------------------
# Per-file reference counts (Figure 8)


def file_reference_counts(
    batches: Iterable[EventBatch],
) -> Tuple[np.ndarray, np.ndarray]:
    """(reads, writes) per referenced file, in first-appearance order.

    Expects an error-free (typically deduped) stream, where every
    ``file_id`` is a real namespace file.
    """
    id_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    for batch in batches:
        if len(batch):
            id_parts.append(batch.file_id)
            write_parts.append(batch.is_write)
    if not id_parts:
        raise ValueError("no events")
    file_ids = np.concatenate(id_parts)
    is_write = np.concatenate(write_parts)
    _, first_idx, inverse = np.unique(
        file_ids, return_index=True, return_inverse=True
    )
    n_files = first_idx.size
    reads = np.bincount(inverse[~is_write], minlength=n_files).astype(np.int64)
    writes = np.bincount(inverse[is_write], minlength=n_files).astype(np.int64)
    order = np.argsort(first_idx, kind="stable")
    return reads[order], writes[order]


def referenced_file_ids(batches: Iterable[EventBatch]) -> np.ndarray:
    """Distinct real file ids referenced by a stream (errors skipped)."""
    seen: List[np.ndarray] = []
    for batch in batches:
        batch = batch.good()
        if len(batch):
            seen.append(np.unique(batch.file_id))
    if not seen:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(seen))


# ---------------------------------------------------------------------------
# Sample vectors (Figures 3 and 10)


def size_samples_by_direction(
    batches: Iterable[EventBatch],
) -> Tuple[np.ndarray, np.ndarray]:
    """(read sizes, write sizes) of successful references, stream order."""
    reads: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    for batch in batches:
        batch = batch.good()
        if not len(batch):
            continue
        mask = batch.is_write
        reads.append(batch.size[~mask].astype(float))
        writes.append(batch.size[mask].astype(float))
    read_sizes = np.concatenate(reads) if reads else np.empty(0)
    write_sizes = np.concatenate(writes) if writes else np.empty(0)
    return read_sizes, write_sizes


def latency_samples_by_device(
    batches: Iterable[EventBatch],
) -> Dict[Device, np.ndarray]:
    """Startup-latency samples per storage device (successes only)."""
    parts: Dict[Device, List[np.ndarray]] = {d: [] for d in DEVICE_ORDER}
    for batch in batches:
        batch = batch.good()
        n = len(batch)
        if not n:
            continue
        latencies = (
            batch.latency if batch.latency is not None else np.zeros(n)
        )
        for index, device in enumerate(DEVICE_ORDER):
            mask = batch.device == index
            if np.any(mask):
                parts[device].append(latencies[mask])
    samples: Dict[Device, np.ndarray] = {}
    for device, chunks in parts.items():
        if not chunks:
            raise ValueError(f"no successful references to {device}")
        samples[device] = np.concatenate(chunks)
    return samples


# ---------------------------------------------------------------------------
# Table 3 cells


class OverallAccumulator:
    """One-pass Table 3 accumulator over a *raw* batch stream.

    Builds the same :class:`TraceStatistics` the record walk does:
    per-(device, direction) reference counts, byte totals, and
    size/latency/transfer moments, plus error counts and the traced
    span.  Per-batch moments are computed with numpy and folded in with
    the parallel Welford merge.
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[Device, bool], CellStats] = {}
        self._error_counts = np.zeros(len(ErrorKind), dtype=np.int64)
        self._raw_references = 0
        self._first: Optional[float] = None
        self._last: Optional[float] = None

    def add(self, batch: EventBatch) -> "OverallAccumulator":
        """Fold one batch; returns self for chaining."""
        n = len(batch)
        if n == 0:
            return self
        self._raw_references += n
        if self._first is None:
            self._first = float(batch.time[0])
        self._last = float(batch.time[-1])
        errored = batch.error != 0
        if np.any(errored):
            self._error_counts += np.bincount(
                batch.error[errored].astype(np.int64),
                minlength=self._error_counts.size,
            )
        good = batch.select(~errored) if np.any(errored) else batch
        m = len(good)
        if m == 0:
            return self
        latencies = good.latency if good.latency is not None else np.zeros(m)
        transfers = good.transfer if good.transfer is not None else np.zeros(m)
        for index, device in enumerate(DEVICE_ORDER):
            on_device = good.device == index
            for direction in (False, True):
                mask = on_device & (good.is_write == direction)
                if not np.any(mask):
                    continue
                cell = self._cells.setdefault((device, direction), CellStats())
                sizes = good.size[mask]
                cell.references += int(sizes.size)
                cell.bytes_transferred += int(sizes.sum())
                cell.size_moments.merge(StreamingMoments.from_values(sizes))
                cell.latency_moments.merge(
                    StreamingMoments.from_values(latencies[mask])
                )
                cell.transfer_moments.merge(
                    StreamingMoments.from_values(transfers[mask])
                )
        return self

    def add_all(self, batches: Iterable[EventBatch]) -> "OverallAccumulator":
        """Fold a whole stream; returns self for chaining."""
        for batch in batches:
            self.add(batch)
        return self

    def cells(self) -> Dict[Tuple[Device, bool], CellStats]:
        """The per-(device, direction) cells accumulated so far."""
        return self._cells

    def copy(self) -> "OverallAccumulator":
        """An independent deep copy (for order-independence checks)."""
        import copy as _copy

        return _copy.deepcopy(self)

    def merge(self, other: "OverallAccumulator") -> "OverallAccumulator":
        """Combine two partial accumulators (for parallel Table 3 folds).

        Cells merge via :meth:`CellStats.merge` (parallel Welford for
        the moments), error counts and raw-reference tallies add, and
        the traced span widens to cover both parts.  Counts and byte
        totals are exactly order-independent; moment merges commute up
        to float rounding (pinned by the invariant suite).
        """
        for key, cell in other._cells.items():
            mine = self._cells.get(key)
            if mine is None:
                self._cells[key] = CellStats().merge(cell)
            else:
                mine.merge(cell)
        self._error_counts = self._error_counts + other._error_counts
        self._raw_references += other._raw_references
        firsts = [t for t in (self._first, other._first) if t is not None]
        lasts = [t for t in (self._last, other._last) if t is not None]
        self._first = min(firsts) if firsts else None
        self._last = max(lasts) if lasts else None
        return self

    def statistics(self) -> TraceStatistics:
        """The accumulated cells as a :class:`TraceStatistics`."""
        error_counts = {
            ErrorKind(kind): int(count)
            for kind, count in enumerate(self._error_counts)
            if kind and count
        }
        return TraceStatistics.from_parts(
            cells=self._cells,
            raw_references=self._raw_references,
            error_counts=error_counts,
            first_start=self._first,
            last_start=self._last,
        )
