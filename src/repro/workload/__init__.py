"""Synthetic NCAR workload generation, calibrated to the paper."""

from repro.workload.clustering import expand_bursts, pack_sessions
from repro.workload.config import (
    BurstConfig,
    ErrorConfig,
    GapConfig,
    NCAR_BENCH_CONFIG,
    NCAR_TEST_CONFIG,
    PlacementConfig,
    SessionConfig,
    WorkloadConfig,
)
from repro.workload.diurnal import (
    HourlyProfile,
    READ_PROFILE,
    WRITE_PROFILE,
    profile_for,
)
from repro.workload.generator import SyntheticTrace, generate_trace
from repro.workload.intensity import IntensityModel, IntensityPair
from repro.workload.latency import AnalyticLatencyModel
from repro.workload.lifecycle import (
    ARCHETYPE_PROBABILITIES,
    Archetype,
    LifecycleSample,
    direction_sequence,
    draw_lifecycles,
    expected_marginals,
)
from repro.workload.trend import READ_TREND, SecularTrend, WRITE_TREND, trend_for
from repro.workload.users import UserPopulation
from repro.workload.weekly import READ_WEEKLY, WRITE_WEEKLY, WeeklyProfile, weekly_for

__all__ = [
    "ARCHETYPE_PROBABILITIES",
    "AnalyticLatencyModel",
    "Archetype",
    "BurstConfig",
    "ErrorConfig",
    "GapConfig",
    "HourlyProfile",
    "IntensityModel",
    "IntensityPair",
    "LifecycleSample",
    "NCAR_BENCH_CONFIG",
    "NCAR_TEST_CONFIG",
    "PlacementConfig",
    "READ_PROFILE",
    "READ_TREND",
    "READ_WEEKLY",
    "SecularTrend",
    "SessionConfig",
    "SyntheticTrace",
    "UserPopulation",
    "WRITE_PROFILE",
    "WRITE_TREND",
    "WRITE_WEEKLY",
    "WeeklyProfile",
    "WorkloadConfig",
    "direction_sequence",
    "draw_lifecycles",
    "expand_bursts",
    "expected_marginals",
    "generate_trace",
    "pack_sessions",
    "profile_for",
    "trend_for",
    "weekly_for",
]
