"""Periodicity analysis and Table 1 / Figure 1 artifact tests."""

import pytest

from repro.analysis.tables import (
    crossover_size,
    measured_media_behaviour,
    media_comparison_table,
    pyramid_is_consistent,
    pyramid_table,
    storage_pyramid,
    time_to_last_byte,
    trace_format_table,
)
from repro.core import paper
from repro.util.units import MB
from tests.oracles.analysis import analyze_direction, periodicity_comparison


# ---------------------------------------------------------------------------
# Periodicity (abstract claim)


def test_reads_show_daily_period(calib_records):
    report = analyze_direction(iter(calib_records), direction=False)
    assert report.has_period(24.0)
    # Hourly byte series are noisy at test scale; the lag-24h correlation
    # just needs to be clearly positive.
    assert report.daily_autocorrelation > 0.05


def test_reads_show_weekly_period(calib_records):
    report = analyze_direction(iter(calib_records), direction=False)
    assert report.has_period(168.0)


def test_writes_less_periodic_than_reads(calib_records):
    reads = analyze_direction(iter(calib_records), direction=False)
    writes = analyze_direction(iter(calib_records), direction=True)
    assert reads.daily_autocorrelation > writes.daily_autocorrelation
    assert reads.periodicity_strength > writes.periodicity_strength


def test_periodicity_comparison(calib_records):
    comp = periodicity_comparison(lambda: iter(calib_records))
    assert comp.within(0.01)  # all three indicator rows must hit


# ---------------------------------------------------------------------------
# Table 1


def test_media_comparison_table_contents():
    out = media_comparison_table().render()
    assert "Optical" in out and "Helical" in out
    assert "80" in out  # $/GB for optical


def test_time_to_last_byte_tradeoff():
    # Paper: for large files tape wins despite slower first byte.
    size = 80 * MB
    optical = time_to_last_byte(paper.TABLE1_OPTICAL, size)
    helical = time_to_last_byte(paper.TABLE1_HELICAL_TAPE, size)
    assert helical < optical
    # For tiny files the ordering flips.
    tiny = 100_000
    assert time_to_last_byte(paper.TABLE1_OPTICAL, tiny) < time_to_last_byte(
        paper.TABLE1_HELICAL_TAPE, tiny
    )


def test_crossover_size_is_between():
    cross = crossover_size()
    below = cross // 2
    above = cross * 2
    assert time_to_last_byte(paper.TABLE1_OPTICAL, below) < time_to_last_byte(
        paper.TABLE1_HELICAL_TAPE, below
    )
    assert time_to_last_byte(paper.TABLE1_OPTICAL, above) > time_to_last_byte(
        paper.TABLE1_HELICAL_TAPE, above
    )


def test_measured_media_behaviour():
    access, rate = measured_media_behaviour(paper.TABLE1_HELICAL_TAPE)
    assert access == pytest.approx(
        paper.TABLE1_HELICAL_TAPE.random_access_seconds, rel=0.15
    )
    assert rate > 0


# ---------------------------------------------------------------------------
# Table 2 / Figure 1


def test_trace_format_table_lists_all_fields():
    out = trace_format_table().render()
    for field in ("source", "destination", "flags", "file size", "user ID"):
        assert field in out


def test_pyramid_consistent():
    levels = storage_pyramid()
    assert len(levels) == 6
    assert pyramid_is_consistent(levels)
    assert "storage pyramid" in pyramid_table().render()


def test_pyramid_detects_breakage():
    levels = storage_pyramid()
    broken = [levels[1], levels[0]] + levels[2:]
    assert not pyramid_is_consistent(broken)
