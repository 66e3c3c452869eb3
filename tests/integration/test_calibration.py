"""Integration: the synthetic trace reproduces the paper's statistics.

These are the headline calibration targets.  Tolerances are deliberately
wider than the unit tests': the claim is "same shape", not bit-exactness.
Known deviations (documented in EXPERIMENTS.md) get explicit looser bounds.
"""

import numpy as np
import pytest

from repro.analysis import (
    read_growth_factor,
    weekend_read_dip,
    working_hours_lift,
    write_flatness,
)
from repro.core import paper
from repro.trace.record import Device
from repro.util.units import DAY, MB
from tests.oracles.analysis import (
    dynamic_distribution,
    file_interreference,
    hourly_profile,
    overall_statistics,
    reference_counts,
    secular_series,
    weekly_profile,
)
from tests.oracles.records import (
    dedupe_for_file_analysis,
    fraction_rereferenced_within,
    strip_errors,
)


@pytest.fixture(scope="module")
def stats(calib_records):
    return overall_statistics(iter(calib_records)).stats


def test_read_write_ratio_two_to_one(stats):
    assert stats.read_write_ratio() == pytest.approx(
        paper.READ_WRITE_RATIO, rel=0.1
    )


def test_error_fraction(stats):
    assert stats.error_fraction == pytest.approx(paper.ERROR_FRACTION, rel=0.05)


def test_device_reference_shares(stats):
    total = stats.grand_total().references
    for device, target in paper.DEVICE_REFERENCE_SHARES.items():
        measured = stats.device_total(device).references / total
        assert measured == pytest.approx(target, abs=0.035), device


def test_device_latency_means(stats):
    for device, cell in paper.TABLE3_DEVICE_TOTALS.items():
        measured = stats.device_total(device).avg_latency_seconds
        assert measured == pytest.approx(cell.secs_to_first_byte, rel=0.12), device


def test_device_size_ordering(stats):
    disk = stats.device_total(Device.MSS_DISK).avg_file_size_mb
    silo = stats.device_total(Device.TAPE_SILO).avg_file_size_mb
    shelf = stats.device_total(Device.TAPE_SHELF).avg_file_size_mb
    # Orderings from Table 3: disk far smaller; shelf smaller than silo.
    assert disk < 0.2 * silo
    assert shelf < silo


def test_overall_average_size(stats):
    assert stats.grand_total().avg_file_size_mb == pytest.approx(
        paper.TABLE3_TOTAL.avg_file_size_mb, rel=0.1
    )


def test_reference_count_marginals(calib_records):
    counts = reference_counts(
        dedupe_for_file_analysis(strip_errors(iter(calib_records)))
    )
    assert counts.fraction_never_read() == pytest.approx(0.50, abs=0.03)
    assert counts.fraction_never_written() == pytest.approx(0.21, abs=0.03)
    assert counts.fraction_written_once() == pytest.approx(0.65, abs=0.03)
    assert counts.fraction_write_once_never_read() == pytest.approx(0.44, abs=0.03)
    assert counts.fraction_exactly_one_access() == pytest.approx(0.57, abs=0.03)
    assert counts.fraction_exactly_two_accesses() == pytest.approx(0.19, abs=0.03)
    assert counts.fraction_more_than(10) == pytest.approx(0.05, abs=0.025)
    assert counts.median_references() == 1


def test_rereference_within_eight_hours(calib_records):
    fraction = fraction_rereferenced_within(strip_errors(iter(calib_records)))
    # Section 6: "about one third"; known to land slightly above.
    assert 0.25 <= fraction <= 0.45


def test_file_gap_shape(calib_records):
    deduped = list(dedupe_for_file_analysis(strip_errors(iter(calib_records))))
    analysis = file_interreference(deduped)
    # Known deviation: paper says 70 % under a day; the dedupe-consistent
    # generator tops out near 0.55 (see EXPERIMENTS.md).
    assert analysis.fraction_below(DAY) > 0.45
    # The long tail must reach beyond 100 days.
    assert analysis.fraction_below(100 * DAY) < 0.995


def test_dynamic_sizes(calib_records):
    dist = dynamic_distribution(iter(calib_records))
    assert dist.fraction_requests_under(1 * MB) == pytest.approx(
        paper.FRACTION_REQUESTS_UNDER_1MB, abs=0.06
    )
    assert dist.write_bump_strength() > 1.5


def test_daily_and_weekly_shape(calib_records):
    hourly = hourly_profile(iter(calib_records))
    assert working_hours_lift(hourly) > 3.5
    assert write_flatness(hourly) < 0.30
    weekly = weekly_profile(iter(calib_records))
    assert 0.35 < weekend_read_dip(weekly) < 0.75
    assert write_flatness(weekly) < 0.15


def test_secular_growth(calib_records):
    series = secular_series(iter(calib_records))
    assert read_growth_factor(series) == pytest.approx(2.5, rel=0.25)
    writes = series.write_gb_per_hour
    write_growth = writes[-26:].mean() / writes[:26].mean()
    assert write_growth == pytest.approx(1.0, abs=0.35)


def test_mean_interarrival_scales(calib_records, calib_config):
    """span/N at scale s should extrapolate to ~18 s at full scale."""
    times = np.array([r.start_time for r in calib_records])
    mean_gap = (times[-1] - times[0]) / times.size
    extrapolated = mean_gap * calib_config.scale
    assert extrapolated == pytest.approx(
        paper.MEAN_SYSTEM_INTERARRIVAL_SECONDS, rel=0.35
    )
