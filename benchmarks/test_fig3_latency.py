"""F3 -- Figure 3: latency to first byte, from the DES replay.

Also covers the Section 5.1.1 decomposition (robot mount ~10 s, tape seek
~50 s, manual mount ~2 min) using the simulator's internal ground truth.
"""

import numpy as np
from conftest import report

from repro.core import paper
from repro.core.experiments import run_experiment
from repro.trace.record import Device


def test_fig3_latency(benchmark, dense_study):
    dense_study.mss_metrics  # force the one-off DES replay outside timing

    result = benchmark.pedantic(
        run_experiment, args=("F3", dense_study), rounds=1, iterations=1
    )
    report(result)
    comp = result.comparison
    # Means land near Table 3 for the tape stations; disk within 2x, its
    # median within 3x (absolute gap is seconds; see EXPERIMENTS.md).
    # The manual mean is queue-wait dominated and swings 38-80 % across
    # nearby workload seeds, so its gate carries noise headroom.
    assert comp.within(0.35, labels=["silo mean"])
    assert comp.within(0.5, labels=["manual mean"])
    assert comp.within(1.0, labels=["disk mean"])
    assert comp.within(2.0, labels=["disk median"])
    # The robot-vs-human ordering and rough speedup must hold (the upper
    # bound, like the manual mean, is queueing-noise calibrated).
    speedup = comp.row("silo vs manual speedup").measured_value
    assert 1.5 < speedup < 5.0


def test_fig3_cdf_shape(dense_study):
    from repro.analysis import from_metrics

    dists = from_metrics(dense_study.mss_metrics)
    disk_cdf = dists.cdf(Device.MSS_DISK)
    shelf_cdf = dists.cdf(Device.TAPE_SHELF)
    # Figure 3: nearly all disk and silo requests complete within 400 s,
    # while a visible manual-tape tail does not.
    assert disk_cdf.fraction_at_or_below(400.0) > 0.95
    assert dists.tail_fraction(Device.TAPE_SHELF, 400.0) > 0.05
    # Disk dominates silo at every latency point (stochastic dominance).
    for bound in (5.0, 30.0, 120.0):
        assert disk_cdf.fraction_at_or_below(bound) >= dists.cdf(
            Device.TAPE_SILO
        ).fraction_at_or_below(bound)


def test_s511_decomposition(dense_study):
    """Mount/seek component means against Section 5.1.1's derivations."""
    metrics = dense_study.mss_metrics
    silo_read = metrics.cell(Device.TAPE_SILO, False)
    shelf_read = metrics.cell(Device.TAPE_SHELF, False)
    print(f"\nsilo mount (robot) mean: {silo_read.mount.mean:.1f}s "
          f"(paper: <= ~{paper.SILO_PICK_AND_MOUNT:.0f}s pick+mount)")
    print(f"silo seek mean: {silo_read.seek.mean:.1f}s (paper: ~{paper.TAPE_AVG_SEEK:.0f}s)")
    print(f"manual mount mean: {shelf_read.mount.mean:.1f}s "
          f"(paper: ~{paper.MANUAL_MOUNT_TIME:.0f}s)")
    assert silo_read.seek.mean == np.float64(silo_read.seek.mean)
    assert abs(silo_read.seek.mean - paper.TAPE_AVG_SEEK) / paper.TAPE_AVG_SEEK < 0.25
    # Manual mounts cost minutes, robot mounts cost seconds-to-tens.
    assert shelf_read.mount.mean > 3 * silo_read.mount.mean
