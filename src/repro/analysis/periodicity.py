"""The abstract's periodicity claim.

"The analysis shows that requests to the MSS are periodic, with one day
and one week periods.  Read requests to the MSS account for the majority
of the periodicity; as write requests are relatively constant."

We bin the byte-rate series hourly, take its spectrum, and check that the
24-hour and 168-hour lines dominate for reads but not for writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis import accumulators
from repro.analysis.compare import Comparison
from repro.util.stats import autocorrelation, dominant_periods
from repro.util.units import DAY, HOUR, WEEK

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class PeriodicityReport:
    """Spectral summary of one direction's rate series."""

    direction: str
    top_periods_hours: List[Tuple[float, float]]  # (period, power)
    daily_autocorrelation: float
    weekly_autocorrelation: float

    def has_period(self, hours: float, tolerance: float = 0.2) -> bool:
        """Whether a period appears among the top spectral lines."""
        for period, _ in self.top_periods_hours:
            if abs(period - hours) / hours <= tolerance:
                return True
        return False

    @property
    def periodicity_strength(self) -> float:
        """Max of the day/week autocorrelations (1 = perfectly periodic)."""
        return max(self.daily_autocorrelation, self.weekly_autocorrelation)


def _report_from_series(
    series: np.ndarray, direction: Optional[bool], bin_seconds: float
) -> PeriodicityReport:
    """Spectral/autocorrelation summary of one binned rate series."""
    bins_per_day = int(round(DAY / bin_seconds))
    bins_per_week = int(round(WEEK / bin_seconds))
    max_lag = min(len(series) - 1, bins_per_week)
    acf = autocorrelation(series, max_lag)
    daily = float(acf[bins_per_day]) if bins_per_day <= max_lag else 0.0
    weekly = float(acf[bins_per_week]) if bins_per_week <= max_lag else 0.0
    periods = dominant_periods(series, sample_spacing=bin_seconds, top_k=6)
    label = {None: "total", True: "writes", False: "reads"}[direction]
    return PeriodicityReport(
        direction=label,
        top_periods_hours=[(p / HOUR, power) for p, power in periods],
        daily_autocorrelation=daily,
        weekly_autocorrelation=weekly,
    )


def rate_series_from_batches(
    batches: Iterable["EventBatch"],
    bin_seconds: float = HOUR,
    direction: Optional[bool] = None,
    span_seconds: Optional[float] = None,
) -> np.ndarray:
    """Bytes moved per bin, from a batch stream (vectorized binning)."""
    return accumulators.binned_byte_series(
        batches,
        bin_seconds=bin_seconds,
        direction=direction,
        span_seconds=span_seconds,
    )


def analyze_direction_from_batches(
    batches: Iterable["EventBatch"],
    direction: Optional[bool],
    bin_seconds: float = HOUR,
) -> PeriodicityReport:
    """:func:`analyze_direction` on a batch stream."""
    series = rate_series_from_batches(
        batches, bin_seconds=bin_seconds, direction=direction
    )
    return _report_from_series(series, direction, bin_seconds)


def periodicity_comparison_from_batches(
    batches_factory: Callable[[], Iterable["EventBatch"]],
) -> Comparison:
    """Paper-vs-measured periodicity claims from a batch stream.

    ``batches_factory`` is a zero-argument callable returning a fresh
    batch iterator (the series is scanned once per direction).
    """
    reads = analyze_direction_from_batches(batches_factory(), direction=False)
    writes = analyze_direction_from_batches(batches_factory(), direction=True)
    return _periodicity_claims(reads, writes)


def _periodicity_claims(
    reads: PeriodicityReport, writes: PeriodicityReport
) -> Comparison:
    """The abstract's three claims as comparison rows."""
    comp = Comparison("Abstract: request periodicity")
    comp.add(
        "reads: 24 h period present",
        1.0,
        1.0 if reads.has_period(24.0) else 0.0,
        note=f"top periods (h): {[round(p) for p, _ in reads.top_periods_hours[:3]]}",
    )
    comp.add(
        "reads: 168 h period present",
        1.0,
        1.0 if reads.has_period(168.0) else 0.0,
    )
    comp.add(
        "reads daily autocorrelation exceeds writes'",
        1.0,
        1.0 if reads.daily_autocorrelation > writes.daily_autocorrelation else 0.0,
        note=(
            f"reads acf(24h)={reads.daily_autocorrelation:.2f}, "
            f"writes acf(24h)={writes.daily_autocorrelation:.2f}"
        ),
    )
    return comp
