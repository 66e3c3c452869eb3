"""Combined arrival-intensity model over the whole trace period.

Multiplies the hour-of-day (Figure 4), day-of-week (Figure 5) and secular
(Figure 6) profiles -- plus the holiday dips -- into one weight per trace
hour and direction.  The workload generator samples file birth times from
these weights and uses the per-day conditionals to place follow-on
references at realistic hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.util.timeutil import TraceCalendar
from repro.util.units import DAY, HOUR
from repro.workload.diurnal import HourlyProfile, profile_for
from repro.workload.trend import SecularTrend, trend_for
from repro.workload.weekly import WeeklyProfile, weekly_for


@dataclass
class IntensityModel:
    """Per-hour arrival weights for one direction over the trace span."""

    is_write: bool
    duration_seconds: float
    hourly: Optional[HourlyProfile] = None
    weekly: Optional[WeeklyProfile] = None
    trend: Optional[SecularTrend] = None
    calendar: Optional[TraceCalendar] = None

    def __post_init__(self) -> None:
        self.hourly = self.hourly or profile_for(self.is_write)
        self.weekly = self.weekly or weekly_for(self.is_write)
        self.trend = self.trend or trend_for(self.is_write)
        self.calendar = self.calendar or TraceCalendar()
        self._n_days = int(np.ceil(self.duration_seconds / DAY))
        self._hour_weights = self._build_hour_weights()

    def _build_hour_weights(self) -> np.ndarray:
        """Weight of every trace hour (n_days x 24, flattened)."""
        cal = self.calendar
        hourly_p = np.asarray(self.hourly.weights, dtype=float)
        weights = np.empty(self._n_days * 24, dtype=float)
        for day in range(self._n_days):
            day_start = day * DAY
            dow = cal.day_of_week(day_start)
            week = cal.week_of_trace(day_start)
            holiday = cal.is_holiday(day_start)
            secular = self.trend.week_factor(week) * self.trend.holiday_factor(holiday)
            for hour in range(24):
                day_factor = self.weekly.factor(dow, hour)
                weights[day * 24 + hour] = hourly_p[hour] * day_factor * secular
        total = weights.sum()
        if total <= 0:
            raise ValueError("intensity collapsed to zero everywhere")
        return weights

    # ------------------------------------------------------------------
    # Sampling

    def sample_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` timestamps distributed by the intensity."""
        if n == 0:
            return np.empty(0)
        probabilities = self._hour_weights / self._hour_weights.sum()
        hour_bins = rng.choice(self._hour_weights.size, size=n, p=probabilities)
        offsets = rng.random(n) * HOUR
        times = hour_bins * HOUR + offsets
        return np.minimum(times, self.duration_seconds - 1.0)

    def day_factor(self, sim_time: float) -> float:
        """Day-level relative intensity at an instant (mean-normalized).

        Used for the acceptance step that shifts chain events off quiet
        days (weekends/holidays for reads); excludes the hour shape so a
        night-time tentative event is not double-penalized.
        """
        cal = self.calendar
        dow = cal.day_of_week(sim_time)
        week = cal.week_of_trace(sim_time)
        holiday = cal.is_holiday(sim_time)
        factor = self.weekly.day_factors[dow]
        factor *= self.trend.holiday_factor(holiday)
        return float(factor)

    def hour_probabilities_for_dow(self, dow: int) -> np.ndarray:
        """Conditional hour-of-day probabilities for one day of week."""
        if not 0 <= dow <= 6:
            raise ValueError("day of week must be in 0..6")
        return self._dow_hour_probabilities(dow)

    def _dow_hour_probabilities(self, dow: int) -> np.ndarray:
        """Cached conditional hour profile for one day of week."""
        cached = getattr(self, "_dow_cache", None)
        if cached is None:
            cached = {}
            self._dow_cache = cached
        if dow not in cached:
            weights = np.asarray(self.hourly.weights, dtype=float).copy()
            base = max(self.weekly.day_factors[dow], 1e-12)
            for hour in range(24):
                weights[hour] *= self.weekly.factor(dow, hour) / base
            cached[dow] = weights / weights.sum()
        return cached[dow]

    def redraw_hours(
        self, rng: np.random.Generator, times: np.ndarray
    ) -> np.ndarray:
        """Replace the hour-of-day of each timestamp by one drawn from that
        day's conditional profile, keeping the day fixed."""
        if times.size == 0:
            return times
        day_starts = (times // DAY) * DAY
        # The trace epoch is a Monday (python weekday 0 -> paper dow 1).
        dows = ((day_starts // DAY).astype(int) % 7 + 1) % 7
        out = np.empty_like(times)
        for dow in range(7):
            mask = dows == dow
            count = int(mask.sum())
            if count == 0:
                continue
            hours = rng.choice(24, size=count, p=self._dow_hour_probabilities(dow))
            out[mask] = day_starts[mask] + hours * HOUR + rng.random(count) * HOUR
        return np.minimum(out, self.duration_seconds - 1.0)

    # ------------------------------------------------------------------
    # Introspection used by tests and the periodicity analysis

    def hour_weights(self) -> np.ndarray:
        """Copy of the full per-hour weight vector."""
        return self._hour_weights.copy()


class IntensityPair:
    """Read and write intensity models built once and shared."""

    def __init__(self, duration_seconds: float) -> None:
        self.read = IntensityModel(is_write=False, duration_seconds=duration_seconds)
        self.write = IntensityModel(is_write=True, duration_seconds=duration_seconds)
        self._cache: Dict[bool, IntensityModel] = {True: self.write, False: self.read}

    def for_direction(self, is_write: bool) -> IntensityModel:
        """The model for one direction."""
        return self._cache[is_write]
