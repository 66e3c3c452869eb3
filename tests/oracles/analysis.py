"""Record walks behind the ``*_from_batches`` analyses.

Each function folds a :class:`~repro.trace.record.TraceRecord` stream one
record at a time into the same result type its batch twin in
:mod:`repro.analysis` builds; ``tests/analysis/test_columnar_equivalence.py``
pins the two equal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.compare import Comparison
from repro.analysis.intervals import IntervalAnalysis
from repro.analysis.latency import LatencyDistributions
from repro.analysis.overall import OverallStatistics
from repro.analysis.periodicity import (
    PeriodicityReport,
    _periodicity_claims,
    _report_from_series,
)
from repro.analysis.rates import (
    RateProfile,
    _hourly_labels_and_norm,
    _profile,
    _weekly_labels_and_norm,
)
from repro.analysis.refcounts import ReferenceCounts
from repro.analysis.sizes import DynamicSizeDistribution
from repro.trace.record import Device, TraceRecord
from repro.trace.stats import TraceStatistics
from repro.util.timeutil import TraceCalendar
from repro.util.units import DAY, HOUR, WEEK


def system_interarrivals(records: Iterable[TraceRecord]) -> IntervalAnalysis:
    """Figure 7: gaps between consecutive request start times."""
    times = [r.start_time for r in records]
    if len(times) < 2:
        raise ValueError("need at least two records")
    arr = np.asarray(times)
    gaps = np.diff(arr)
    if np.any(gaps < 0):
        raise ValueError("records must be time-ordered")
    return IntervalAnalysis(intervals=gaps)


def file_interreference(records: Iterable[TraceRecord]) -> IntervalAnalysis:
    """Figure 9: per-file gaps on an already-deduped stream."""
    by_file: Dict[str, List[float]] = {}
    for record in records:
        by_file.setdefault(record.mss_path, []).append(record.start_time)
    gaps: List[float] = []
    for times in by_file.values():
        if len(times) < 2:
            continue
        times.sort()
        gaps.extend(float(b - a) for a, b in zip(times, times[1:]))
    if not gaps:
        raise ValueError("no file was referenced twice")
    return IntervalAnalysis(intervals=np.asarray(gaps))


def latency_distributions(records: Iterable[TraceRecord]) -> LatencyDistributions:
    """Collect Figure 3 samples from records carrying latencies."""
    buckets: Dict[Device, List[float]] = {d: [] for d in Device.storage_devices()}
    for record in records:
        if record.is_error:
            continue
        buckets[record.storage_device].append(record.startup_latency)
    samples = {}
    for device, values in buckets.items():
        if not values:
            raise ValueError(f"no successful references to {device}")
        samples[device] = np.asarray(values)
    return LatencyDistributions(samples=samples)


def overall_statistics(records: Iterable[TraceRecord]) -> OverallStatistics:
    """Accumulate Table 3 from a raw record stream (errors included)."""
    stats = TraceStatistics().add_all(records)
    return OverallStatistics(stats)


def rate_series(
    records: Iterable[TraceRecord],
    bin_seconds: float = HOUR,
    direction: Optional[bool] = None,
    span_seconds: Optional[float] = None,
) -> np.ndarray:
    """Bytes moved per bin; ``direction`` None = both, else is_write."""
    totals: List[float] = []
    horizon = 0.0
    buffered = []
    for record in records:
        if record.is_error:
            continue
        if direction is not None and record.is_write != direction:
            continue
        buffered.append((record.start_time, record.file_size))
        horizon = max(horizon, record.start_time)
    if not buffered:
        raise ValueError("no matching records")
    span = span_seconds if span_seconds is not None else horizon + bin_seconds
    n_bins = int(np.ceil(span / bin_seconds))
    series = np.zeros(n_bins)
    for time, size in buffered:
        idx = min(int(time // bin_seconds), n_bins - 1)
        series[idx] += size
    return series


def analyze_direction(
    records: Iterable[TraceRecord],
    direction: Optional[bool],
    bin_seconds: float = HOUR,
) -> PeriodicityReport:
    """Build a report for reads (False), writes (True) or both (None)."""
    series = rate_series(records, bin_seconds=bin_seconds, direction=direction)
    return _report_from_series(series, direction, bin_seconds)


def periodicity_comparison(records_factory) -> Comparison:
    """Paper-vs-measured periodicity claims.

    ``records_factory`` is a zero-argument callable returning a fresh
    record iterator (the series is scanned once per direction).
    """
    reads = analyze_direction(records_factory(), direction=False)
    writes = analyze_direction(records_factory(), direction=True)
    return _periodicity_claims(reads, writes)


def _accumulate(
    records: Iterable[TraceRecord],
    bin_of: "callable",
    n_bins: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sum bytes per bin for reads and writes; also returns the span."""
    read_bytes = np.zeros(n_bins)
    write_bytes = np.zeros(n_bins)
    first = None
    last = None
    for record in records:
        if record.is_error:
            continue
        if first is None:
            first = record.start_time
        last = record.start_time
        idx = bin_of(record.start_time)
        if record.is_write:
            write_bytes[idx] += record.file_size
        else:
            read_bytes[idx] += record.file_size
    if first is None or last is None or last <= first:
        raise ValueError("need a non-degenerate record stream")
    return read_bytes, write_bytes, last - first


def hourly_profile(records: Iterable[TraceRecord]) -> RateProfile:
    """Figure 4: average GB/hour by hour of day (0 = midnight)."""
    read_bytes, write_bytes, span = _accumulate(
        records, lambda t: int((t % DAY) // HOUR), 24
    )
    return _profile(read_bytes, write_bytes, *_hourly_labels_and_norm(span))


def weekly_profile(records: Iterable[TraceRecord]) -> RateProfile:
    """Figure 5: average GB/hour by day of week (0 = Sunday)."""
    calendar = TraceCalendar()
    read_bytes, write_bytes, span = _accumulate(
        records, calendar.day_of_week, 7
    )
    return _profile(read_bytes, write_bytes, *_weekly_labels_and_norm(span))


def secular_series(
    records: Iterable[TraceRecord], n_weeks: int = 104
) -> RateProfile:
    """Figure 6: average GB/hour for each trace week."""
    read_bytes, write_bytes, _ = _accumulate(
        records,
        lambda t: min(int(t // WEEK), n_weeks - 1),
        n_weeks,
    )
    hours_per_week = WEEK / HOUR
    return _profile(
        read_bytes, write_bytes, [f"w{w}" for w in range(n_weeks)], hours_per_week
    )


def reference_counts(records: Iterable[TraceRecord]) -> ReferenceCounts:
    """Count per-file reads and writes from a (deduped) record stream."""
    counts: Dict[str, Tuple[int, int]] = {}
    for record in records:
        reads, writes = counts.get(record.mss_path, (0, 0))
        if record.is_write:
            counts[record.mss_path] = (reads, writes + 1)
        else:
            counts[record.mss_path] = (reads + 1, writes)
    if not counts:
        raise ValueError("no records")
    reads = np.fromiter((rw[0] for rw in counts.values()), dtype=np.int64)
    writes = np.fromiter((rw[1] for rw in counts.values()), dtype=np.int64)
    return ReferenceCounts(reads=reads, writes=writes)


def dynamic_distribution(records: Iterable[TraceRecord]) -> DynamicSizeDistribution:
    """Collect per-access sizes from successful references."""
    reads: List[int] = []
    writes: List[int] = []
    for record in records:
        if record.is_error:
            continue
        if record.is_write:
            writes.append(record.file_size)
        else:
            reads.append(record.file_size)
    if not reads or not writes:
        raise ValueError("need both reads and writes")
    return DynamicSizeDistribution(
        read_sizes=np.asarray(reads, dtype=float),
        write_sizes=np.asarray(writes, dtype=float),
    )
