"""Statistics primitives used across the analysis suite.

The paper reports almost everything as a cumulative distribution (Figures 3,
7, 8, 9, 10, 11, 12) or as a mean broken down by category (Table 3).  These
helpers keep the figure-reproduction code short and uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class CDF:
    """An empirical cumulative distribution over scalar values.

    ``values`` are the sorted distinct sample points and ``fractions`` the
    cumulative probability at each point (``P(X <= value)``).  A weighted CDF
    (for the paper's "data read"/"data written" curves) weights each sample
    by e.g. its byte count.
    """

    values: np.ndarray
    fractions: np.ndarray

    @staticmethod
    def from_samples(
        samples: Sequence[float], weights: Optional[Sequence[float]] = None
    ) -> "CDF":
        """Build an empirical CDF, optionally weighting each sample."""
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        if weights is None:
            wts = np.ones_like(data)
        else:
            wts = np.asarray(list(weights), dtype=float)
            if wts.shape != data.shape:
                raise ValueError("weights must match samples in length")
            if np.any(wts < 0):
                raise ValueError("weights must be non-negative")
        order = np.argsort(data, kind="stable")
        data = data[order]
        wts = wts[order]
        total = wts.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        # Collapse duplicate sample values so lookups are well defined.
        values, start_idx = np.unique(data, return_index=True)
        cum = np.cumsum(wts)
        # Cumulative weight at the *last* occurrence of each distinct value.
        end_idx = np.append(start_idx[1:], data.size) - 1
        fractions = cum[end_idx] / total
        return CDF(values=values, fractions=fractions)

    def fraction_at_or_below(self, x: float) -> float:
        """P(X <= x)."""
        idx = np.searchsorted(self.values, x, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.fractions[idx])

    def percentile(self, p: float) -> float:
        """Smallest value v with P(X <= v) >= p, for p in (0, 1]."""
        if not 0 < p <= 1:
            raise ValueError("percentile must be in (0, 1]")
        idx = int(np.searchsorted(self.fractions, p, side="left"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def median(self) -> float:
        """The distribution median."""
        return self.percentile(0.5)


@dataclass
class StreamingMoments:
    """Single-pass accumulator for count / mean / variance / extrema."""

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    total: float = 0.0

    def add(self, x: float) -> None:
        """Fold one observation into the moments (Welford update)."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def extend(self, xs: Iterable[float]) -> None:
        """Fold many observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations seen so far."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))

    @classmethod
    def from_values(cls, values: np.ndarray) -> "StreamingMoments":
        """Moments of a whole array in one numpy pass.

        The columnar accumulators build per-batch moments this way and
        fold them together with :meth:`merge`; the result matches
        element-wise :meth:`add` calls up to float rounding.
        """
        moments = cls()
        if values.size == 0:
            return moments
        moments.count = int(values.size)
        moments.total = float(values.sum())
        moments._mean = float(values.mean())
        moments._m2 = float(values.var() * values.size)
        moments.minimum = float(values.min())
        moments.maximum = float(values.max())
        return moments

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two accumulators (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return self
        n = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self._mean += delta * other.count / n
        self.count = n
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self


@dataclass
class Histogram:
    """Fixed-bin histogram with explicit edges; used for rate profiles."""

    edges: np.ndarray
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=float)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("histogram needs at least two bin edges")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        nbins = self.edges.size - 1
        if self.counts is None:
            self.counts = np.zeros(nbins, dtype=float)
        if self.weights is None:
            self.weights = np.zeros(nbins, dtype=float)

    @property
    def nbins(self) -> int:
        """Number of bins."""
        return self.edges.size - 1

    def bin_of(self, x: float) -> int:
        """Index of the bin containing x, clamping to the outer bins."""
        idx = int(np.searchsorted(self.edges, x, side="right")) - 1
        return max(0, min(idx, self.nbins - 1))

    def add(self, x: float, weight: float = 1.0) -> None:
        """Count an observation, accumulating an optional weight."""
        idx = self.bin_of(x)
        self.counts[idx] += 1
        self.weights[idx] += weight

    def density(self) -> np.ndarray:
        """Counts normalized to sum to one."""
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / total


def lognormal_params_from_mean_median(mean: float, median: float) -> Tuple[float, float]:
    """Derive (mu, sigma) of a lognormal with the given mean and median.

    For a lognormal, median = exp(mu) and mean = exp(mu + sigma^2 / 2), so
    sigma = sqrt(2 ln(mean / median)).  Requires mean > median > 0.
    """
    if median <= 0 or mean <= median:
        raise ValueError("need mean > median > 0 for a lognormal fit")
    mu = float(np.log(median))
    sigma = float(np.sqrt(2.0 * np.log(mean / median)))
    return mu, sigma


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalized Zipf(-like) weights 1/k^skew for ranks k = 1..n."""
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed).

    Used to check that directory populations reproduce the paper's "5 % of
    the directories held 50 % of the files" concentration.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("gini of empty sample")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * arr) / (n * total)) - (n + 1) / n)


def top_fraction_share(values: Sequence[float], top_fraction: float) -> float:
    """Share of the total held by the top `top_fraction` of the samples.

    ``top_fraction_share(dir_sizes, 0.05)`` answers "what fraction of all
    files live in the largest 5 % of directories?" (Figure 12 caption).
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    arr = np.sort(np.asarray(list(values), dtype=float))[::-1]
    if arr.size == 0:
        raise ValueError("share of empty sample")
    k = max(1, int(round(top_fraction * arr.size)))
    total = arr.sum()
    if total == 0:
        return 0.0
    return float(arr[:k].sum() / total)


def autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of a series for lags 0..max_lag.

    Used by the periodicity analysis to confirm the abstract's one-day and
    one-week periods in the binned request-rate series.
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.size < 2:
        raise ValueError("autocorrelation needs at least two points")
    if max_lag >= arr.size:
        raise ValueError("max_lag must be smaller than the series length")
    arr = arr - arr.mean()
    denom = float(np.dot(arr, arr))
    if denom == 0:
        return np.zeros(max_lag + 1)
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag == 0:
            out[lag] = 1.0
        else:
            out[lag] = float(np.dot(arr[:-lag], arr[lag:])) / denom
    return out


def dominant_periods(
    series: Sequence[float], sample_spacing: float, top_k: int = 3
) -> List[Tuple[float, float]]:
    """Strongest periods in a uniformly sampled series via the FFT.

    Returns up to ``top_k`` (period_in_same_units_as_spacing, power) pairs
    sorted by descending spectral power, excluding the DC component.
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.size < 4:
        raise ValueError("need at least 4 samples for a spectrum")
    arr = arr - arr.mean()
    spectrum = np.abs(np.fft.rfft(arr)) ** 2
    freqs = np.fft.rfftfreq(arr.size, d=sample_spacing)
    # Skip DC (freq 0); guard against zero-division.
    order = np.argsort(spectrum[1:])[::-1] + 1
    out: List[Tuple[float, float]] = []
    for idx in order[:top_k]:
        out.append((float(1.0 / freqs[idx]), float(spectrum[idx])))
    return out


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / |expected|, tolerant of expected == 0."""
    if expected == 0:
        return abs(measured)
    return abs(measured - expected) / abs(expected)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Small summary dict (count/mean/median/min/max/std) for reports."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {"count": 0, "mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0, "std": 0.0}
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "std": float(arr.std()),
    }
