"""Figures 7 and 9: interreference interval distributions.

* Figure 7: intervals between *successive MSS requests* system-wide.
  90 % under 10 seconds, mean ~18 s -- requests are strongly clustered.
* Figure 9: intervals between successive references *to the same file*
  on the deduped stream.  70 % under a day, with a tail past a year.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis import accumulators
from repro.analysis.render import render_cdf
from repro.util.stats import CDF

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class IntervalAnalysis:
    """A sample of intervals plus its derived statistics."""

    intervals: np.ndarray  # seconds

    def __post_init__(self) -> None:
        if self.intervals.size == 0:
            raise ValueError("no intervals to analyze")

    @property
    def mean(self) -> float:
        """Mean interval in seconds."""
        return float(self.intervals.mean())

    def cdf(self) -> CDF:
        """Empirical CDF of the intervals."""
        return CDF.from_samples(self.intervals)

    def fraction_below(self, seconds: float) -> float:
        """P(interval < bound)."""
        return float((self.intervals < seconds).mean())

    def render(self, title: str, unit_seconds: float = 1.0, unit: str = "s") -> str:
        """ASCII CDF in the figure's units."""
        scaled = CDF.from_samples(self.intervals / unit_seconds)
        return render_cdf(scaled, log_x=True, x_label=unit, title=title)


def system_interarrivals_from_batches(
    batches: Iterable["EventBatch"],
) -> IntervalAnalysis:
    """Figure 7 from a batch stream (vectorized diff, no record objects)."""
    return IntervalAnalysis(
        intervals=accumulators.system_interarrival_gaps(batches)
    )


def file_interreference_from_batches(
    batches: Iterable["EventBatch"],
) -> IntervalAnalysis:
    """Figure 9 from an (already deduped) batch stream.

    One stable sort groups the stream by file; the gaps are those of a
    per-path dict walk, gap for gap.
    """
    return IntervalAnalysis(intervals=accumulators.per_file_gaps(batches))
