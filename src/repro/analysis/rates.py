"""Figures 4-6: transfer-rate profiles by hour, weekday, and week.

All three figures plot average data rate (GB per hour) for reads, writes
and their total, binned three different ways.  The writes-flat /
reads-periodic contrast is the paper's core observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis import accumulators
from repro.analysis.render import render_series
from repro.util.timeutil import DAY_NAMES
from repro.util.units import DAY, HOUR, WEEK, bytes_to_gb

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class RateProfile:
    """GB/hour for reads and writes across a set of bins."""

    bin_labels: List[str]
    read_gb_per_hour: np.ndarray
    write_gb_per_hour: np.ndarray

    @property
    def total_gb_per_hour(self) -> np.ndarray:
        """Reads + writes."""
        return self.read_gb_per_hour + self.write_gb_per_hour

    def read_peak_to_trough(self) -> float:
        """How strongly reads swing across the bins."""
        low = self.read_gb_per_hour.min()
        return float(self.read_gb_per_hour.max() / max(low, 1e-12))

    def write_peak_to_trough(self) -> float:
        """How strongly writes swing (should stay near 1)."""
        low = self.write_gb_per_hour.min()
        return float(self.write_gb_per_hour.max() / max(low, 1e-12))

    def render(self, title: str) -> str:
        """ASCII chart in the style of the paper's figures."""
        xs = list(range(len(self.bin_labels)))
        return render_series(
            xs,
            [
                ("reads", self.read_gb_per_hour.tolist()),
                ("writes", self.write_gb_per_hour.tolist()),
                ("total", self.total_gb_per_hour.tolist()),
            ],
            title=title,
            y_label="(bins: " + ", ".join(self.bin_labels[:8]) + " ...)",
        )


def _hourly_labels_and_norm(span: float) -> Tuple[List[str], float]:
    # Each hour-of-day bin collects one hour per traced day.
    return [f"{h:02d}" for h in range(24)], max(span / DAY, 1.0)


def _weekly_labels_and_norm(span: float) -> Tuple[List[str], float]:
    return list(DAY_NAMES), max(span / WEEK, 1.0) * 24.0


def _profile(
    read_bytes: np.ndarray,
    write_bytes: np.ndarray,
    bin_labels: List[str],
    hours_per_bin: float,
) -> RateProfile:
    """Byte sums to GB/hour, numpy end to end."""
    return RateProfile(
        bin_labels=bin_labels,
        read_gb_per_hour=bytes_to_gb(read_bytes) / hours_per_bin,
        write_gb_per_hour=bytes_to_gb(write_bytes) / hours_per_bin,
    )


def hourly_profile_from_batches(batches: Iterable["EventBatch"]) -> RateProfile:
    """Figure 4 from a batch stream (one vectorized pass)."""
    read_bytes, write_bytes, span = accumulators.binned_byte_sums(
        batches, accumulators.hour_of_day_bins, 24
    )
    return _profile(read_bytes, write_bytes, *_hourly_labels_and_norm(span))


def weekly_profile_from_batches(batches: Iterable["EventBatch"]) -> RateProfile:
    """Figure 5 from a batch stream (one vectorized pass)."""
    read_bytes, write_bytes, span = accumulators.binned_byte_sums(
        batches, accumulators.day_of_week_bins, 7
    )
    return _profile(read_bytes, write_bytes, *_weekly_labels_and_norm(span))


def secular_series_from_batches(
    batches: Iterable["EventBatch"], n_weeks: int = 104
) -> RateProfile:
    """Figure 6 from a batch stream (one vectorized pass)."""
    read_bytes, write_bytes, _ = accumulators.binned_byte_sums(
        batches, lambda t: accumulators.week_of_trace_bins(t, n_weeks), n_weeks
    )
    return _profile(
        read_bytes, write_bytes, [f"w{w}" for w in range(n_weeks)], WEEK / HOUR
    )


# ---------------------------------------------------------------------------
# Shape checks used by benches and tests


def working_hours_lift(profile: RateProfile) -> float:
    """Read rate in 9-17 h over the 0-6 h small hours (Figure 4 shape)."""
    reads = profile.read_gb_per_hour
    if len(reads) != 24:
        raise ValueError("expects the hourly profile")
    return float(reads[9:17].mean() / max(reads[0:6].mean(), 1e-12))


def weekend_read_dip(profile: RateProfile) -> float:
    """Weekend / weekday read rate (Figure 5 shape; below 1)."""
    reads = profile.read_gb_per_hour
    if len(reads) != 7:
        raise ValueError("expects the weekly profile")
    weekend = (reads[0] + reads[6]) / 2.0
    return float(weekend / max(reads[1:6].mean(), 1e-12))


def read_growth_factor(profile: RateProfile) -> float:
    """Last-quarter over first-quarter read rate (Figure 6 growth)."""
    reads = profile.read_gb_per_hour
    quarter = max(len(reads) // 4, 1)
    return float(reads[-quarter:].mean() / max(reads[:quarter].mean(), 1e-12))


def write_flatness(profile: RateProfile) -> float:
    """Coefficient of variation of writes across bins (small = flat)."""
    writes = profile.write_gb_per_hour
    return float(writes.std() / max(writes.mean(), 1e-12))


def holiday_read_dip(
    profile: RateProfile, holiday_weeks: List[int]
) -> float:
    """Holiday-week read rate over nearby non-holiday weeks (Figure 6).

    Holiday weeks cluster (Christmas through New Year), so each one is
    compared against the nearest week on each side that is *not* itself a
    holiday week.
    """
    reads = profile.read_gb_per_hour
    holidays = set(holiday_weeks)
    n = len(reads)

    def nearest_normal(week: int, step: int) -> Optional[float]:
        probe = week + step
        while 0 <= probe < n:
            if probe not in holidays:
                return float(reads[probe])
            probe += step
        return None

    ratios = []
    for week in holiday_weeks:
        if not 0 <= week < n:
            continue
        neighbours = [
            value
            for value in (nearest_normal(week, -1), nearest_normal(week, +1))
            if value is not None
        ]
        if neighbours and np.mean(neighbours) > 0:
            ratios.append(reads[week] / np.mean(neighbours))
    if not ratios:
        raise ValueError("no in-range holiday weeks")
    return float(np.mean(ratios))
