"""Integration: full pipelines across subsystem boundaries."""

import numpy as np
import pytest

from repro.analysis import from_metrics, system_interarrivals_from_batches
from repro.core import paper
from repro.mss.system import MSSConfig, replay_trace
from repro.trace.reader import read_trace
from repro.trace.record import Device
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace


def test_generate_write_read_analyze_roundtrip(tmp_path, tiny_trace):
    """Trace -> file -> records -> statistics, end to end (the path
    ``repro analyze FILE`` takes)."""
    from repro.analysis import overall_statistics_from_batches
    from repro.trace.store import batches_from_records

    path = tmp_path / "roundtrip.rt"
    tiny_trace.write(path)
    records = read_trace(path)
    assert len(records) == tiny_trace.n_events
    stats = overall_statistics_from_batches(batches_from_records(records)).stats
    assert stats.analyzed_references > 0
    assert stats.error_fraction == pytest.approx(0.0476, abs=0.01)


def test_trace_file_is_compact(tmp_path, tiny_trace):
    """The delta-encoded ASCII format stays small (Section 4.1's point)."""
    path = tmp_path / "compact.rt"
    tiny_trace.write(path)
    per_record = path.stat().st_size / tiny_trace.n_events
    # The paper got ~10.5 MB per ~300k records/month ~= 37 B/record; ours
    # carries full paths so allow more, but it must stay well under 120 B.
    assert per_record < 120


def test_des_replay_of_dense_trace_matches_paper_latencies(dense_trace):
    records = dense_trace.records()
    replayed, metrics = replay_trace(records, MSSConfig(seed=9))
    dists = from_metrics(metrics)
    # Table 3 orderings and rough magnitudes.
    assert dists.mean(Device.MSS_DISK) == pytest.approx(
        paper.TABLE3_DEVICE_TOTALS[Device.MSS_DISK].secs_to_first_byte, rel=0.8
    )
    assert dists.mean(Device.TAPE_SILO) == pytest.approx(
        paper.TABLE3_DEVICE_TOTALS[Device.TAPE_SILO].secs_to_first_byte, rel=0.35
    )
    assert dists.mean(Device.TAPE_SHELF) == pytest.approx(
        paper.TABLE3_DEVICE_TOTALS[Device.TAPE_SHELF].secs_to_first_byte, rel=0.4
    )
    # Section 5.1.1: the silo is 2-2.5x faster than manual mounting after
    # removing the shared queueing baseline.
    assert 1.5 < dists.silo_vs_manual_speedup() < 4.5


def test_dense_trace_interarrival_clustering(dense_trace):
    analysis = system_interarrivals_from_batches(dense_trace.iter_batches())
    # Figure 7: 90 % of interarrivals under 10 s at full density.
    assert analysis.fraction_below(10.0) > 0.75


def test_hsm_over_des_consistency(tiny_trace):
    """HSM events derived from the trace agree with direct counting."""
    from tests.oracles.hsm import events_from_trace
    from tests.oracles.records import dedupe_for_file_analysis, strip_errors

    events = events_from_trace(tiny_trace)
    deduped = list(dedupe_for_file_analysis(strip_errors(tiny_trace.iter_records())))
    assert len(events) == len(deduped)
    reads = sum(1 for _, _, _, w in events if not w)
    assert reads == sum(1 for r in deduped if r.is_read)


def test_scaling_preserves_shares():
    """Device shares are scale-invariant (the benches rely on this)."""
    small = generate_trace(WorkloadConfig(scale=0.003, seed=13))
    large = generate_trace(WorkloadConfig(scale=0.012, seed=13))

    def shares(trace):
        good = trace.errors == 0
        return [
            (good & (trace.device_idx == i)).sum() / good.sum() for i in range(3)
        ]

    # A scale-0.003 trace holds only a few hundred tape-class files, so
    # the per-seed share gap is noisy (0.01-0.06 across nearby seeds);
    # the tolerance covers that noise, not a systematic drift.
    for a, b in zip(shares(small), shares(large)):
        assert a == pytest.approx(b, abs=0.08)


def test_short_horizon_trace_supports_des():
    config = WorkloadConfig(
        scale=0.004, seed=2, duration_seconds=3 * DAY, fill_latencies=False
    )
    trace = generate_trace(config)
    replayed, metrics = replay_trace(trace.records(), MSSConfig(seed=3))
    assert metrics.total_completed > 0
    good = [r for r in replayed if not r.is_error]
    latencies = np.array([r.startup_latency for r in good])
    assert np.all(latencies > 0)
