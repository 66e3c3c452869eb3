"""Vectorized device placement vs the scalar state machine.

:func:`repro.workload.placement.assign_devices_batch` batches its RNG
draws, so for a fixed seed it realizes a *different* stream than the
scalar :class:`DevicePlacement` -- but the per-decision law is identical.
Two test families pin that:

* with deterministic coins (probabilities 0 or 1) both paths must agree
  event for event, which exercises every branch of the silo/shelf
  recency machine without RNG-alignment concerns;
* with the default probabilities, device shares must match the scalar
  path within sampling noise on the same stream (the Table 3 pin).
"""

import numpy as np
import pytest

from repro.trace.record import Device
from repro.util.rng import make_rng
from repro.util.units import DAY, MB
from repro.workload.config import PlacementConfig
from repro.workload.placement import DEVICE_INDEX, assign_devices_batch
from tests.oracles.generator import DevicePlacement

DISK = DEVICE_INDEX[Device.MSS_DISK]
SILO = DEVICE_INDEX[Device.TAPE_SILO]
SHELF = DEVICE_INDEX[Device.TAPE_SHELF]


def _scalar_assign(config, file_ids, sizes, times, is_write, seed=0):
    placement = DevicePlacement(config)
    rng = make_rng(seed)
    out = np.empty(times.size, dtype=np.int8)
    for i in range(times.size):
        out[i] = DEVICE_INDEX[placement.assign(
            rng, int(file_ids[i]), int(sizes[i]), float(times[i]),
            bool(is_write[i]),
        )]
    return out


def _random_stream(seed, n=4000, n_files=150):
    rng = make_rng(seed)
    times = np.sort(rng.uniform(0, 400 * DAY, size=n))
    file_ids = rng.integers(0, n_files, size=n)
    # Half the files tape-class, half disk-class.
    file_sizes = np.where(
        rng.random(n_files) < 0.5, 80 * MB, 5 * MB
    ).astype(np.int64)
    sizes = file_sizes[file_ids]
    is_write = rng.random(n) < 0.33
    return file_ids.astype(np.int64), sizes, times, is_write


@pytest.mark.parametrize("shelf_frac,promote", [
    (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
])
def test_exact_match_with_deterministic_coins(shelf_frac, promote):
    config = PlacementConfig(
        tape_write_shelf_fraction=shelf_frac,
        promote_on_read=promote,
        silo_residency=21 * DAY,
    )
    file_ids, sizes, times, is_write = _random_stream(seed=11)
    vector = assign_devices_batch(
        make_rng(1), config, file_ids, sizes, times, is_write
    )
    scalar = _scalar_assign(config, file_ids, sizes, times, is_write, seed=2)
    np.testing.assert_array_equal(vector, scalar)


def test_default_config_shares_match_scalar():
    config = PlacementConfig()
    file_ids, sizes, times, is_write = _random_stream(seed=12, n=30_000)
    vector = assign_devices_batch(
        make_rng(3), config, file_ids, sizes, times, is_write
    )
    scalar = _scalar_assign(config, file_ids, sizes, times, is_write, seed=4)
    for device in (DISK, SILO, SHELF):
        assert (vector == device).mean() == pytest.approx(
            (scalar == device).mean(), abs=0.02
        ), device


def test_disk_threshold_is_a_pure_mask():
    config = PlacementConfig()
    file_ids, sizes, times, is_write = _random_stream(seed=13)
    devices = assign_devices_batch(
        make_rng(5), config, file_ids, sizes, times, is_write
    )
    small = sizes < config.disk_threshold_bytes
    assert np.all(devices[small] == DISK)
    assert np.all(devices[~small] != DISK)


def test_first_tape_read_lands_on_shelf():
    """An unseen tape file's first read is a shelved-archive recall."""
    config = PlacementConfig(promote_on_read=0.0)
    times = np.array([1.0 * DAY, 2.0 * DAY])
    file_ids = np.array([7, 8], dtype=np.int64)
    sizes = np.full(2, 90 * MB, dtype=np.int64)
    is_write = np.zeros(2, dtype=bool)
    devices = assign_devices_batch(
        make_rng(6), config, file_ids, sizes, times, is_write
    )
    assert np.all(devices == SHELF)


def test_silo_run_ends_at_residency_gap():
    """Write -> warm reads stay silo; a long gap ejects to shelf."""
    config = PlacementConfig(
        tape_write_shelf_fraction=0.0, promote_on_read=0.0,
        silo_residency=10 * DAY,
    )
    times = np.array([0.0, 2 * DAY, 4 * DAY, 40 * DAY, 41 * DAY])
    file_ids = np.zeros(5, dtype=np.int64)
    sizes = np.full(5, 80 * MB, dtype=np.int64)
    is_write = np.array([True, False, False, False, False])
    devices = assign_devices_batch(
        make_rng(7), config, file_ids, sizes, times, is_write
    )
    np.testing.assert_array_equal(devices, [SILO, SILO, SILO, SHELF, SHELF])


def test_promotion_restarts_silo_run():
    config = PlacementConfig(
        tape_write_shelf_fraction=0.0, promote_on_read=1.0,
        silo_residency=10 * DAY,
    )
    times = np.array([1 * DAY, 2 * DAY, 3 * DAY])
    file_ids = np.zeros(3, dtype=np.int64)
    sizes = np.full(3, 80 * MB, dtype=np.int64)
    is_write = np.zeros(3, dtype=bool)
    devices = assign_devices_batch(
        make_rng(8), config, file_ids, sizes, times, is_write
    )
    # First read recalls from shelf (and promotes); the next two are warm.
    np.testing.assert_array_equal(devices, [SHELF, SILO, SILO])


def test_empty_stream():
    config = PlacementConfig()
    empty = np.empty(0, dtype=np.int64)
    out = assign_devices_batch(
        make_rng(9), config, empty, empty, np.empty(0), np.empty(0, dtype=bool)
    )
    assert out.size == 0 and out.dtype == np.int8
