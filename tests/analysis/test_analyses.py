"""Analysis-module tests over a shared synthetic trace."""

import numpy as np
import pytest

from repro.analysis import (
    directory_distribution,
    filestore_statistics,
    static_distribution,
    weekend_read_dip,
    working_hours_lift,
    write_flatness,
)
from repro.trace.record import Device, make_read
from repro.util.units import DAY, HOUR, MB
from tests.oracles.analysis import (
    dynamic_distribution,
    file_interreference,
    hourly_profile,
    latency_distributions,
    overall_statistics,
    rate_series,
    reference_counts,
    secular_series,
    system_interarrivals,
    weekly_profile,
)
from tests.oracles.records import dedupe_for_file_analysis, strip_errors


# ---------------------------------------------------------------------------
# Table 3 / overall


def test_overall_statistics_render_and_compare(calib_records):
    analysis = overall_statistics(iter(calib_records))
    out = analysis.render()
    assert "References" in out and "Secs to first byte" in out
    comp = analysis.comparison()
    assert comp.row("error fraction").relative_error < 0.05
    assert comp.row("read share of references").relative_error < 0.05


# ---------------------------------------------------------------------------
# Table 4 / filestore


def test_filestore_statistics(calib_trace, calib_config):
    analysis = filestore_statistics(calib_trace.namespace, scale=calib_config.scale)
    comp = analysis.comparison()
    assert comp.row("files (scaled)").relative_error < 0.01
    assert comp.row("directories (scaled)").relative_error < 0.02
    assert "Number of files" in analysis.render()
    with pytest.raises(ValueError):
        filestore_statistics(calib_trace.namespace, scale=0.0)


# ---------------------------------------------------------------------------
# Rates (Figures 4-6)


def test_hourly_profile_shape(calib_records):
    profile = hourly_profile(iter(calib_records))
    assert len(profile.bin_labels) == 24
    assert working_hours_lift(profile) > 3.0
    assert write_flatness(profile) < 0.3
    assert profile.read_peak_to_trough() > profile.write_peak_to_trough()


def test_weekly_profile_shape(calib_records):
    profile = weekly_profile(iter(calib_records))
    assert len(profile.bin_labels) == 7
    dip = weekend_read_dip(profile)
    assert 0.3 < dip < 0.8
    assert write_flatness(profile) < 0.2


def test_secular_series_growth(calib_records):
    profile = secular_series(iter(calib_records))
    assert len(profile.bin_labels) == 104
    from repro.analysis import read_growth_factor

    assert read_growth_factor(profile) > 1.5


def test_profile_render(calib_records):
    profile = hourly_profile(iter(calib_records))
    out = profile.render("Figure 4")
    assert "reads" in out and "writes" in out


def test_rates_shape_checks_validate_input(calib_records):
    weekly = weekly_profile(iter(calib_records))
    with pytest.raises(ValueError):
        working_hours_lift(weekly)
    hourly = hourly_profile(iter(calib_records))
    with pytest.raises(ValueError):
        weekend_read_dip(hourly)


def test_rates_reject_empty():
    with pytest.raises(ValueError):
        hourly_profile(iter([]))


# ---------------------------------------------------------------------------
# Intervals (Figures 7 and 9)


def test_system_interarrivals(calib_records):
    analysis = system_interarrivals(iter(calib_records))
    assert analysis.mean > 0
    assert 0 <= analysis.fraction_below(10.0) <= 1
    cdf = analysis.cdf()
    assert cdf.fractions[-1] == pytest.approx(1.0)


def test_system_interarrivals_rejects_unordered():
    records = [
        make_read(Device.MSS_DISK, 10.0, 1, "/a", 1),
        make_read(Device.MSS_DISK, 5.0, 1, "/b", 1),
    ]
    with pytest.raises(ValueError):
        system_interarrivals(records)


def test_file_interreference(calib_records):
    deduped = list(dedupe_for_file_analysis(strip_errors(iter(calib_records))))
    analysis = file_interreference(deduped)
    # Gaps are in seconds; mostly under a few days, tail far beyond.
    assert analysis.fraction_below(DAY) > 0.35
    assert analysis.fraction_below(300 * DAY) < 1.0 or True
    assert analysis.intervals.min() >= 0


def test_file_interreference_needs_rereferences():
    records = [make_read(Device.MSS_DISK, 0.0, 1, "/only", 1)]
    with pytest.raises(ValueError):
        file_interreference(records)


# ---------------------------------------------------------------------------
# Reference counts (Figure 8)


def test_reference_counts_headlines(calib_records):
    deduped = dedupe_for_file_analysis(strip_errors(iter(calib_records)))
    counts = reference_counts(deduped)
    assert counts.fraction_never_read() == pytest.approx(0.50, abs=0.05)
    assert counts.fraction_never_written() == pytest.approx(0.21, abs=0.04)
    assert counts.fraction_write_once_never_read() == pytest.approx(0.44, abs=0.05)
    assert counts.median_references() == 1
    comp = counts.comparison()
    assert comp.within(0.35)
    assert "Figure 8" in counts.render()


def test_reference_counts_cdf_variants(calib_records):
    deduped = dedupe_for_file_analysis(strip_errors(iter(calib_records)))
    counts = reference_counts(deduped)
    for which in ("read", "write", "total"):
        cdf = counts.cdf(which)
        assert cdf.fractions[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        counts.cdf("bogus")


def test_reference_counts_rejects_empty():
    with pytest.raises(ValueError):
        reference_counts([])


# ---------------------------------------------------------------------------
# Sizes (Figures 10-12)


def test_dynamic_distribution(calib_records):
    dist = dynamic_distribution(iter(calib_records))
    assert dist.fraction_requests_under(1 * MB) == pytest.approx(0.40, abs=0.07)
    assert dist.write_bump_strength() > 1.2
    assert dist.files_read_cdf().fractions[-1] == pytest.approx(1.0)
    # Data-weighted curves lag the count-weighted ones.
    assert dist.data_read_cdf().fraction_at_or_below(
        1 * MB
    ) < dist.files_read_cdf().fraction_at_or_below(1 * MB)


def test_static_distribution(calib_trace):
    dist = static_distribution(calib_trace.namespace)
    assert dist.fraction_files_under(3 * MB) == pytest.approx(0.5, abs=0.08)
    assert dist.fraction_data_under(3 * MB) < 0.06
    assert "Figure 11" in dist.render()


def test_directory_distribution(calib_trace):
    dist = directory_distribution(calib_trace.namespace)
    assert dist.fraction_dirs_at_most(1) == pytest.approx(0.75, abs=0.05)
    assert dist.fraction_dirs_at_most(10) == pytest.approx(0.90, abs=0.06)
    assert dist.top_dir_file_share() > 0.4
    comp = dist.comparison()
    assert comp.row("dirs with <= 1 file").relative_error < 0.08


# ---------------------------------------------------------------------------
# Latency (Figure 3) from records with analytic latencies


def test_latency_distributions_from_records(calib_records):
    dists = latency_distributions(iter(calib_records))
    assert dists.mean(Device.MSS_DISK) < dists.mean(Device.TAPE_SILO)
    assert dists.mean(Device.TAPE_SILO) < dists.mean(Device.TAPE_SHELF)
    speedup = dists.silo_vs_manual_speedup()
    assert 1.5 < speedup < 4.0
    comp = dists.comparison()
    assert comp.row("silo mean").relative_error < 0.2
    assert "Figure 3" in dists.render()


# ---------------------------------------------------------------------------
# Periodicity


def test_rate_series_binning(calib_records):
    series = rate_series(iter(calib_records), bin_seconds=DAY, direction=None)
    assert series.size >= 700
    assert series.sum() > 0
    reads = rate_series(iter(calib_records), bin_seconds=DAY, direction=False)
    writes = rate_series(iter(calib_records), bin_seconds=DAY, direction=True)
    np.testing.assert_allclose(reads + writes, series)


def test_rate_series_rejects_empty():
    with pytest.raises(ValueError):
        rate_series(iter([]), bin_seconds=HOUR)
