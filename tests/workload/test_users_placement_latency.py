"""User population, device placement, and analytic latency tests."""

import numpy as np
import pytest

from repro.trace.record import Device
from repro.util.rng import make_rng
from repro.util.units import DAY, MB
from repro.workload.config import PlacementConfig
from repro.workload.latency import AnalyticLatencyModel
from repro.workload.users import UserPopulation
from tests.oracles.generator import DevicePlacement


# ---------------------------------------------------------------------------
# Users


def test_population_splits_batch_and_interactive():
    pop = UserPopulation(n_users=1000, seed_rng=make_rng(1))
    assert pop.batch_ids.size + pop.interactive_ids.size == 1000
    assert set(pop.batch_ids).isdisjoint(set(pop.interactive_ids))


def test_population_scaled_floor():
    pop = UserPopulation.scaled(0.001, rng=make_rng(2))
    assert pop.n_users == 50


def test_sampling_draws_from_right_pool():
    pop = UserPopulation(n_users=500, seed_rng=make_rng(3))
    writers = pop.sample_writers(make_rng(4), 200)
    readers = pop.sample_readers(make_rng(5), 200)
    assert set(writers.tolist()) <= set(pop.batch_ids.tolist())
    assert set(readers.tolist()) <= set(pop.interactive_ids.tolist())


def test_sampling_is_skewed():
    pop = UserPopulation(n_users=500, seed_rng=make_rng(6))
    readers = pop.sample_readers(make_rng(7), 10_000)
    counts = np.bincount(readers)
    top = np.sort(counts)[::-1]
    # Zipf activity: the busiest user dwarfs the median one.
    assert top[0] > 5 * np.median(counts[counts > 0])


def test_empty_draws():
    pop = UserPopulation(n_users=100, seed_rng=make_rng(8))
    assert pop.sample_writers(make_rng(9), 0).size == 0
    assert pop.sample_readers(make_rng(9), 0).size == 0


def test_owner_is_deterministic():
    pop = UserPopulation(n_users=100, seed_rng=make_rng(10))
    assert pop.owner_of_directory(42) == pop.owner_of_directory(42)


def test_population_validation():
    with pytest.raises(ValueError):
        UserPopulation(n_users=1)


# ---------------------------------------------------------------------------
# Placement


def _placement(**kwargs):
    return DevicePlacement(PlacementConfig(**kwargs))


def test_small_files_always_disk():
    p = _placement()
    rng = make_rng(1)
    for is_write in (True, False):
        device = p.assign(rng, 1, 5 * MB, 100.0, is_write)
        assert device is Device.MSS_DISK


def test_fresh_tape_write_goes_to_silo():
    p = _placement(tape_write_shelf_fraction=0.0)
    device = p.assign(make_rng(2), 1, 80 * MB, 0.0, True)
    assert device is Device.TAPE_SILO


def test_warm_read_hits_silo_cold_read_hits_shelf():
    p = _placement(tape_write_shelf_fraction=0.0, silo_residency=10 * DAY,
                   promote_on_read=0.0)
    rng = make_rng(3)
    p.assign(rng, 7, 80 * MB, 0.0, True)                       # write -> silo
    assert p.assign(rng, 7, 80 * MB, 2 * DAY, False) is Device.TAPE_SILO
    assert p.assign(rng, 7, 80 * MB, 40 * DAY, False) is Device.TAPE_SHELF
    # Shelf is absorbing without promotion.
    assert p.assign(rng, 7, 80 * MB, 41 * DAY, False) is Device.TAPE_SHELF


def test_rewrite_returns_file_to_silo():
    p = _placement(tape_write_shelf_fraction=0.0, silo_residency=10 * DAY,
                   promote_on_read=0.0)
    rng = make_rng(4)
    p.assign(rng, 7, 80 * MB, 0.0, True)
    p.assign(rng, 7, 80 * MB, 50 * DAY, False)      # cold read -> shelf
    p.assign(rng, 7, 80 * MB, 51 * DAY, True)       # fresh write
    assert p.assign(rng, 7, 80 * MB, 52 * DAY, False) is Device.TAPE_SILO


def test_promotion_on_read():
    p = _placement(tape_write_shelf_fraction=0.0, silo_residency=10 * DAY,
                   promote_on_read=1.0)
    rng = make_rng(5)
    p.register_preexisting(rng, 9, 80 * MB)
    assert p.assign(rng, 9, 80 * MB, DAY, False) is Device.TAPE_SHELF
    # Promoted: the next (quick) read is warm.
    assert p.assign(rng, 9, 80 * MB, 2 * DAY, False) is Device.TAPE_SILO


def test_preexisting_first_read_from_shelf():
    p = _placement(preexisting_shelf_fraction=1.0, promote_on_read=0.0)
    rng = make_rng(6)
    p.register_preexisting(rng, 3, 120 * MB)
    assert p.assign(rng, 3, 120 * MB, DAY, False) is Device.TAPE_SHELF


def test_unregistered_first_read_defensive_path():
    p = _placement(promote_on_read=0.0)
    assert p.assign(make_rng(7), 99, 99 * MB, DAY, False) is Device.TAPE_SHELF


def test_preexisting_small_files_ignored():
    p = _placement()
    p.register_preexisting(make_rng(8), 4, 1 * MB)
    assert p.assign(make_rng(8), 4, 1 * MB, 0.0, False) is Device.MSS_DISK


# ---------------------------------------------------------------------------
# Analytic latency


@pytest.mark.parametrize(
    "device,is_write,target",
    [
        (Device.MSS_DISK, False, 32.47),
        (Device.MSS_DISK, True, 25.39),
        (Device.TAPE_SILO, False, 115.14),
        (Device.TAPE_SILO, True, 81.86),
        (Device.TAPE_SHELF, False, 292.58),
        (Device.TAPE_SHELF, True, 203.84),
    ],
)
def test_latency_means_match_table3(device, is_write, target):
    model = AnalyticLatencyModel(make_rng(11))
    samples = model.startup_latencies(device, is_write, 40_000)
    assert samples.mean() == pytest.approx(target, rel=0.08)
    assert AnalyticLatencyModel.expected_mean(device, is_write) == pytest.approx(
        target, rel=0.08
    )


def test_manual_tail_fraction():
    # Figure 3: ~10 % of manual mounts take over 400 s.
    model = AnalyticLatencyModel(make_rng(12))
    samples = model.startup_latencies(Device.TAPE_SHELF, False, 40_000)
    assert (samples > 400).mean() == pytest.approx(0.10, abs=0.05)


def test_transfer_rate_near_2mbs():
    model = AnalyticLatencyModel(make_rng(13))
    sizes = np.full(20_000, 20 * MB)
    times = model.transfer_times(sizes)
    rates = 20 * MB / times
    assert np.median(rates) == pytest.approx(2 * MB, rel=0.15)
    assert rates.max() <= 3.1 * MB


def test_latency_model_rejects_cray():
    model = AnalyticLatencyModel(make_rng(14))
    with pytest.raises(ValueError):
        model.startup_latencies(Device.CRAY, False, 1)
