"""Figure 3 and the Section 5.1.1 latency decomposition.

Figure 3 plots the CDF of latency-to-first-byte for disk, tape-silo and
manual-tape requests.  Section 5.1.1 then derives component costs from
those curves: subtracting disk queueing leaves the silo's pick-and-mount
(~10 s) plus tape seek (~50 s), and the manual mount (~115 s).  With the
DES we can do the same subtraction *and* check it against the simulator's
internal ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

import numpy as np

from repro.analysis import accumulators
from repro.analysis.compare import Comparison
from repro.analysis.render import render_cdf
from repro.core import paper
from repro.mss.metrics import MetricsCollector
from repro.trace.record import Device
from repro.util.stats import CDF

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class LatencyDistributions:
    """Startup-latency samples per storage device."""

    samples: Dict[Device, np.ndarray]

    def cdf(self, device: Device) -> CDF:
        """Figure 3 curve for one device."""
        return CDF.from_samples(self.samples[device])

    def median(self, device: Device) -> float:
        """Median seconds to first byte."""
        return float(np.median(self.samples[device]))

    def mean(self, device: Device) -> float:
        """Mean seconds to first byte."""
        return float(np.mean(self.samples[device]))

    def tail_fraction(self, device: Device, bound: float) -> float:
        """Fraction of requests slower than ``bound`` seconds."""
        return float((self.samples[device] > bound).mean())

    def silo_vs_manual_speedup(self) -> float:
        """How much faster the robot is than the human (paper: 2-2.5x),
        after subtracting the disk's queueing baseline from both."""
        baseline = self.mean(Device.MSS_DISK)
        silo = self.mean(Device.TAPE_SILO) - baseline
        manual = self.mean(Device.TAPE_SHELF) - baseline
        if silo <= 0:
            raise ValueError("silo latency did not exceed the disk baseline")
        return manual / silo

    def render(self) -> str:
        """ASCII Figure 3, one CDF per device."""
        blocks: List[str] = []
        for device, label in (
            (Device.MSS_DISK, "disk"),
            (Device.TAPE_SILO, "tape silo"),
            (Device.TAPE_SHELF, "manual tape"),
        ):
            blocks.append(
                render_cdf(
                    self.cdf(device),
                    log_x=False,
                    x_label="seconds",
                    title=f"Figure 3 ({label}): latency to first byte",
                    x_limits=(0, 400),
                    height=8,
                )
            )
        return "\n\n".join(blocks)

    def comparison(self) -> Comparison:
        """Paper-vs-measured Figure 3 anchors."""
        comp = Comparison("Figure 3 (latency to first byte)")
        comp.add(
            "disk median", paper.DISK_MEDIAN_LATENCY, self.median(Device.MSS_DISK), unit="s"
        )
        for device, label in (
            (Device.MSS_DISK, "disk"),
            (Device.TAPE_SILO, "silo"),
            (Device.TAPE_SHELF, "manual"),
        ):
            comp.add(
                f"{label} mean",
                paper.TABLE3_DEVICE_TOTALS[device].secs_to_first_byte,
                self.mean(device),
                unit="s",
            )
        comp.add(
            "manual tail beyond 400 s",
            paper.MANUAL_TAIL_FRACTION,
            self.tail_fraction(Device.TAPE_SHELF, paper.MANUAL_TAIL_LATENCY),
        )
        comp.add(
            "silo vs manual speedup",
            float(np.mean(paper.SILO_VS_MANUAL_SPEEDUP)),
            self.silo_vs_manual_speedup(),
        )
        return comp


def latency_distributions_from_batches(
    batches: Iterable["EventBatch"],
) -> LatencyDistributions:
    """Figure 3 samples from a batch stream carrying latency columns."""
    return LatencyDistributions(
        samples=accumulators.latency_samples_by_device(batches)
    )


def from_metrics(metrics: MetricsCollector) -> LatencyDistributions:
    """Figure 3 samples straight from a DES replay."""
    samples = {}
    for device in Device.storage_devices():
        values = metrics.device_samples(device)
        if not values:
            raise ValueError(f"no simulated references to {device}")
        samples[device] = np.asarray(values)
    return LatencyDistributions(samples=samples)


def decomposition_comparison(metrics: MetricsCollector) -> Comparison:
    """Section 5.1.1: component costs from the simulator's ground truth."""
    comp = Comparison("Section 5.1.1 latency decomposition")
    silo_read = metrics.cell(Device.TAPE_SILO, False)
    shelf_read = metrics.cell(Device.TAPE_SHELF, False)
    comp.add(
        "silo pick-and-mount", paper.SILO_PICK_AND_MOUNT,
        silo_read.mount.mean, unit="s",
        note="paper: under 10 s",
    )
    comp.add(
        "tape seek", paper.TAPE_AVG_SEEK, silo_read.seek.mean, unit="s"
    )
    comp.add(
        "manual mount", paper.MANUAL_MOUNT_TIME, shelf_read.mount.mean, unit="s",
        note="paper: ~115 s derived, plus queueing",
    )
    return comp
