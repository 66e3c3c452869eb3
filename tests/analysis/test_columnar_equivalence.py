"""Columnar-vs-record equivalence: every figure/table reduction.

The batch-native analyses must produce the same numbers the record
walks in :mod:`tests.oracles.analysis` do.  Integer reductions (counts, byte totals, sample
vectors, gaps) are required to match *exactly*; floating means computed
with numpy instead of streaming Welford updates may differ by rounding
error, so they are pinned at 1e-12 relative.
"""

import numpy as np
import pytest

from repro.analysis.intervals import (
    file_interreference_from_batches,
    system_interarrivals_from_batches,
)
from repro.analysis.latency import latency_distributions_from_batches
from repro.analysis.overall import overall_statistics_from_batches
from repro.analysis.periodicity import rate_series_from_batches
from repro.analysis.rates import (
    hourly_profile_from_batches,
    secular_series_from_batches,
    weekly_profile_from_batches,
)
from repro.analysis.refcounts import reference_counts_from_batches
from repro.analysis.sizes import dynamic_distribution_from_batches
from repro.core.study import Study, StudyConfig
from repro.trace.record import Device
from repro.workload.config import WorkloadConfig
from tests.oracles import records as study_records
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

EXACT = 0.0
ULPS = 1e-12


@pytest.fixture(scope="module")
def study(calib_config):
    """Analysis-scale study sharing the session's calibration trace."""
    return Study(StudyConfig(workload=calib_config))


@pytest.fixture(scope="module")
def good_records(study):
    return list(study_records.good_records(study))


@pytest.fixture(scope="module")
def deduped_records(study):
    return list(study_records.deduped_records(study))


# ---------------------------------------------------------------------------
# Figures 4-6: binned byte rates


@pytest.mark.parametrize(
    "record_fn, batch_fn",
    [
        (hourly_profile, hourly_profile_from_batches),
        (weekly_profile, weekly_profile_from_batches),
        (secular_series, secular_series_from_batches),
    ],
    ids=["hourly", "weekly", "secular"],
)
def test_rate_profiles_identical(study, good_records, record_fn, batch_fn):
    expected = record_fn(iter(good_records))
    measured = batch_fn(study.iter_batches("good"))
    assert measured.bin_labels == expected.bin_labels
    np.testing.assert_array_equal(
        measured.read_gb_per_hour, expected.read_gb_per_hour
    )
    np.testing.assert_array_equal(
        measured.write_gb_per_hour, expected.write_gb_per_hour
    )


# ---------------------------------------------------------------------------
# Figures 7 and 9: interreference gaps


def test_system_interarrivals_identical(study):
    expected = system_interarrivals(study_records.iter_records(study))
    measured = system_interarrivals_from_batches(study.iter_batches("raw"))
    np.testing.assert_array_equal(measured.intervals, expected.intervals)
    assert measured.mean == expected.mean


def test_file_interreference_identical(study, deduped_records):
    expected = file_interreference(iter(deduped_records))
    measured = file_interreference_from_batches(study.iter_batches("deduped"))
    np.testing.assert_array_equal(measured.intervals, expected.intervals)
    assert measured.mean == expected.mean


# ---------------------------------------------------------------------------
# Figure 8: reference counts


def test_reference_counts_identical(study, deduped_records):
    expected = reference_counts(iter(deduped_records))
    measured = reference_counts_from_batches(study.iter_batches("deduped"))
    np.testing.assert_array_equal(measured.reads, expected.reads)
    np.testing.assert_array_equal(measured.writes, expected.writes)
    for row_e, row_m in zip(
        expected.comparison().rows, measured.comparison().rows
    ):
        assert row_m.measured_value == row_e.measured_value, row_e.label


# ---------------------------------------------------------------------------
# Figure 10: dynamic sizes


def test_dynamic_sizes_identical(study, good_records):
    expected = dynamic_distribution(iter(good_records))
    measured = dynamic_distribution_from_batches(study.iter_batches("good"))
    np.testing.assert_array_equal(measured.read_sizes, expected.read_sizes)
    np.testing.assert_array_equal(measured.write_sizes, expected.write_sizes)


# ---------------------------------------------------------------------------
# Figure 3: latency samples


def test_latency_samples_identical(study, good_records):
    expected = latency_distributions(iter(good_records))
    measured = latency_distributions_from_batches(study.iter_batches("good"))
    for device in Device.storage_devices():
        np.testing.assert_array_equal(
            measured.samples[device], expected.samples[device]
        )


# ---------------------------------------------------------------------------
# Table 3: overall statistics


def test_overall_statistics_identical(study):
    expected = overall_statistics(study_records.iter_records(study)).stats
    measured = overall_statistics_from_batches(study.iter_batches("raw")).stats
    assert measured.raw_references == expected.raw_references
    assert measured.error_counts == expected.error_counts
    assert measured.first_start == expected.first_start
    assert measured.last_start == expected.last_start
    for device in Device.storage_devices():
        for direction in (False, True):
            cell_e = expected.cell(device, direction)
            cell_m = measured.cell(device, direction)
            assert cell_m.references == cell_e.references
            assert cell_m.bytes_transferred == cell_e.bytes_transferred
            assert cell_m.avg_file_size_mb == pytest.approx(
                cell_e.avg_file_size_mb, rel=ULPS
            )
            assert cell_m.avg_latency_seconds == pytest.approx(
                cell_e.avg_latency_seconds, rel=ULPS
            )


def test_table3_comparison_rows_identical(study):
    expected = overall_statistics(study_records.iter_records(study)).comparison()
    measured = overall_statistics_from_batches(
        study.iter_batches("raw")
    ).comparison()
    for row_e, row_m in zip(expected.rows, measured.rows):
        assert row_m.label == row_e.label
        assert row_m.measured_value == pytest.approx(
            row_e.measured_value, rel=ULPS
        )


# ---------------------------------------------------------------------------
# Periodicity series


@pytest.mark.parametrize("direction", [None, False, True], ids=["both", "reads", "writes"])
def test_rate_series_identical(study, good_records, direction):
    expected = rate_series(iter(good_records), direction=direction)
    measured = rate_series_from_batches(
        study.iter_batches("good"), direction=direction
    )
    np.testing.assert_array_equal(measured, expected)


# ---------------------------------------------------------------------------
# Simulated-latency (DES) study: the replayed batch stream


def test_des_replay_columns_match_record_replay():
    """`replay_columns` must reproduce the record replay bit for bit."""
    from repro.engine.records import records_from_batches
    from repro.mss.system import MSSConfig, MSSSystem

    config = StudyConfig.dense(scale=0.002, seed=5, days=2.0)
    trace = Study(config).trace
    batches = list(trace.iter_batches(chunk_size=1024))

    legacy_system = MSSSystem(MSSConfig(seed=0))
    legacy_records, legacy_metrics = legacy_system.replay(
        records_from_batches(iter(batches), trace.namespace)
    )
    columnar_system = MSSSystem(MSSConfig(seed=0))
    replayed, metrics = columnar_system.replay_columns(batches, trace.namespace)
    columnar_records = list(records_from_batches(replayed, trace.namespace))

    assert columnar_records == legacy_records
    assert metrics.summary() == legacy_metrics.summary()


def test_dense_study_batches_carry_simulated_latencies():
    study = Study(StudyConfig.dense(scale=0.002, seed=5, days=2.0))
    total = 0
    for batch in study.iter_batches("good"):
        assert batch.latency is not None
        assert np.all(batch.latency[batch.error == 0] > 0)
        total += len(batch)
    assert total > 0
    assert study.mss_metrics.total_completed == total
