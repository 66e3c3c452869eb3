"""End-to-end generator tests (structure; calibration lives in
tests/integration/test_calibration.py)."""

import numpy as np
import pytest

from repro.trace.errors import ErrorKind
from repro.trace.record import Device
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTrace, generate_trace


def test_events_are_time_sorted(tiny_trace):
    assert np.all(np.diff(tiny_trace.times) >= 0)


def test_events_within_duration(tiny_trace, tiny_config):
    assert tiny_trace.times.min() >= 0
    assert tiny_trace.times.max() < tiny_config.duration_seconds


def test_array_shapes_align(tiny_trace):
    n = tiny_trace.n_events
    for arr in (
        tiny_trace.file_ids,
        tiny_trace.is_write,
        tiny_trace.device_idx,
        tiny_trace.sizes,
        tiny_trace.users,
        tiny_trace.errors,
        tiny_trace.latencies,
        tiny_trace.transfers,
    ):
        assert arr.shape == (n,)


def test_error_fraction(tiny_trace):
    fraction = (tiny_trace.errors != 0).mean()
    assert fraction == pytest.approx(0.0476, abs=0.01)


def test_error_kinds_mostly_no_such_file(tiny_trace):
    errors = tiny_trace.errors[tiny_trace.errors != 0]
    enoent = (errors == int(ErrorKind.NO_SUCH_FILE)).mean()
    assert enoent == pytest.approx(0.75, abs=0.08)


def test_missing_files_have_negative_ids(tiny_trace):
    enoent = tiny_trace.errors == int(ErrorKind.NO_SUCH_FILE)
    assert np.all(tiny_trace.file_ids[enoent] < 0)
    good = tiny_trace.errors == 0
    assert np.all(tiny_trace.file_ids[good] >= 0)


def test_sizes_match_namespace(tiny_trace):
    good = tiny_trace.errors == 0
    for i in np.where(good)[0][:200]:
        entry = tiny_trace.namespace.files[int(tiny_trace.file_ids[i])]
        assert tiny_trace.sizes[i] == entry.size


def test_device_respects_threshold(tiny_trace, tiny_config):
    good = tiny_trace.errors == 0
    threshold = tiny_config.placement.disk_threshold_bytes
    disk = good & (tiny_trace.device_idx == 0)
    tape = good & (tiny_trace.device_idx > 0)
    assert np.all(tiny_trace.sizes[disk] < threshold)
    assert np.all(tiny_trace.sizes[tape] >= threshold)


def test_records_iteration_matches_arrays(tiny_trace):
    records = tiny_trace.records()
    assert len(records) == tiny_trace.n_events
    for i in (0, len(records) // 2, len(records) - 1):
        record = records[i]
        assert record.start_time == pytest.approx(float(tiny_trace.times[i]))
        assert record.is_write == bool(tiny_trace.is_write[i])
        assert record.file_size == int(tiny_trace.sizes[i])
        assert record.mss_path == tiny_trace.path_of(i)


def test_latencies_filled_by_default(tiny_trace):
    good = tiny_trace.errors == 0
    assert tiny_trace.latencies[good].min() > 0
    assert tiny_trace.transfers[good].min() > 0


def test_latencies_zero_when_disabled():
    config = WorkloadConfig(scale=0.002, seed=9, fill_latencies=False)
    trace = generate_trace(config)
    good = trace.errors == 0
    assert np.all(trace.transfers[good] == 0)


def test_determinism():
    config = WorkloadConfig(scale=0.002, seed=21)
    a = generate_trace(config)
    b = generate_trace(config)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.file_ids, b.file_ids)
    np.testing.assert_array_equal(a.users, b.users)


def test_seed_changes_output():
    a = generate_trace(WorkloadConfig(scale=0.002, seed=1))
    b = generate_trace(WorkloadConfig(scale=0.002, seed=2))
    assert a.n_events != b.n_events or not np.array_equal(a.times, b.times)


def test_write_roundtrip(tmp_path, tiny_trace):
    from repro.trace.reader import read_trace

    path = tmp_path / "synthetic.rt"
    count = tiny_trace.write(path)
    assert count == tiny_trace.n_events
    back = read_trace(path)
    assert len(back) == count
    assert back[0].start_time == pytest.approx(round(tiny_trace.times[0]))


def test_short_duration_config():
    config = WorkloadConfig(scale=0.005, seed=4, duration_seconds=5 * DAY)
    trace = generate_trace(config)
    assert trace.times.max() < 5 * DAY
    assert trace.n_events > 0


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(scale=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(scale=2.0)
    with pytest.raises(ValueError):
        WorkloadConfig(duration_seconds=100.0)


def test_history_atom_present(calib_trace):
    """The ~8 MB standard-history-file bump should exist among writes."""
    good = calib_trace.errors == 0
    writes = good & calib_trace.is_write
    sizes = calib_trace.sizes[writes]
    window = (sizes > 7_000_000) & (sizes < 9_000_000)
    neighbour = (sizes > 9_000_000) & (sizes < 11_000_000)
    assert window.sum() > 2 * max(neighbour.sum(), 1)


def test_users_in_range(tiny_trace):
    assert tiny_trace.users.min() >= 0


def test_path_of_error_records(tiny_trace):
    enoent = np.where(tiny_trace.errors == int(ErrorKind.NO_SUCH_FILE))[0]
    if enoent.size:
        path = tiny_trace.path_of(int(enoent[0]))
        assert path.startswith("/lost/")


def test_generator_version_is_3():
    """The vectorized pipeline (placement / sessions / chain hour redraw)
    reordered RNG consumption; v3 invalidates every v2 cached store."""
    from repro.workload.generator import GENERATOR_VERSION

    assert GENERATOR_VERSION == 3


def test_stage_profiler_records_every_stage():
    from repro.workload.profiler import StageProfiler

    trace = generate_trace(WorkloadConfig(scale=0.002, seed=5))
    expected = {
        "namespace", "lifecycles", "chains", "bursts", "placement",
        "sessions", "users", "errors", "latencies",
    }
    assert set(trace.stage_seconds) == expected
    assert all(seconds >= 0 for seconds in trace.stage_seconds.values())
    # The table `report --profile` renders from the trace's stages.
    profiler = StageProfiler()
    for name, seconds in trace.stage_seconds.items():
        profiler.add(name, seconds)
    rendered = profiler.render(indent="  ")
    assert "chains" in rendered and "total" in rendered


def test_stage_seconds_filled_without_explicit_profiler():
    trace = generate_trace(WorkloadConfig(scale=0.002, seed=6))
    assert trace.stage_seconds["placement"] >= 0
    assert len(trace.stage_seconds) == 9
