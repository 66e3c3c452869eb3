"""Table 3: overall trace statistics.

Builds the references / GB / average-size / seconds-to-first-byte
breakdown by storage device and direction, and compares the
scale-invariant quantities (shares, ratios, sizes, latencies) against the
published table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis import accumulators
from repro.analysis.compare import Comparison
from repro.analysis.render import TextTable
from repro.core import paper
from repro.trace.record import Device
from repro.trace.stats import TraceStatistics

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch

_DEVICE_LABELS = {
    Device.MSS_DISK: "Disk",
    Device.TAPE_SILO: "Tape (silo)",
    Device.TAPE_SHELF: "Tape (manual)",
}


@dataclass
class OverallStatistics:
    """Table 3 for one trace."""

    stats: TraceStatistics

    def render(self) -> str:
        """The Table 3 layout as text."""
        table = TextTable(
            ["", "Reads", "Writes", "Total"],
            title="Table 3: overall trace statistics (measured)",
        )
        reads = self.stats.direction_total(False)
        writes = self.stats.direction_total(True)
        total = self.stats.grand_total()
        table.add_row("References", reads.references, writes.references, total.references)
        for device in Device.storage_devices():
            table.add_row(
                f"  {_DEVICE_LABELS[device]}",
                self.stats.cell(device, False).references,
                self.stats.cell(device, True).references,
                self.stats.device_total(device).references,
            )
        table.add_row(
            "GB transferred",
            reads.gb_transferred,
            writes.gb_transferred,
            total.gb_transferred,
        )
        for device in Device.storage_devices():
            table.add_row(
                f"  {_DEVICE_LABELS[device]}",
                self.stats.cell(device, False).gb_transferred,
                self.stats.cell(device, True).gb_transferred,
                self.stats.device_total(device).gb_transferred,
            )
        table.add_row(
            "Avg. file size (MB)",
            reads.avg_file_size_mb,
            writes.avg_file_size_mb,
            total.avg_file_size_mb,
        )
        for device in Device.storage_devices():
            table.add_row(
                f"  {_DEVICE_LABELS[device]}",
                self.stats.cell(device, False).avg_file_size_mb,
                self.stats.cell(device, True).avg_file_size_mb,
                self.stats.device_total(device).avg_file_size_mb,
            )
        table.add_row(
            "Secs to first byte",
            reads.avg_latency_seconds,
            writes.avg_latency_seconds,
            total.avg_latency_seconds,
        )
        for device in Device.storage_devices():
            table.add_row(
                f"  {_DEVICE_LABELS[device]}",
                self.stats.cell(device, False).avg_latency_seconds,
                self.stats.cell(device, True).avg_latency_seconds,
                self.stats.device_total(device).avg_latency_seconds,
            )
        return table.render()

    def comparison(self, include_latency: bool = True) -> Comparison:
        """Scale-invariant paper-vs-measured rows."""
        comp = Comparison("Table 3 (shares, sizes, latencies)")
        total = self.stats.grand_total()
        reads = self.stats.direction_total(False)
        comp.add(
            "read share of references",
            paper.READ_FRACTION,
            reads.references / max(total.references, 1),
        )
        comp.add(
            "read share of GB",
            paper.TABLE3[(None, False)].gb_transferred / paper.TABLE3_TOTAL.gb_transferred,
            reads.gb_transferred / max(total.gb_transferred, 1e-12),
        )
        comp.add("error fraction", paper.ERROR_FRACTION, self.stats.error_fraction)
        for device in Device.storage_devices():
            label = _DEVICE_LABELS[device]
            comp.add(
                f"{label}: share of refs",
                paper.DEVICE_REFERENCE_SHARES[device],
                self.stats.device_total(device).references / max(total.references, 1),
            )
            comp.add(
                f"{label}: avg file size",
                paper.TABLE3_DEVICE_TOTALS[device].avg_file_size_mb,
                self.stats.device_total(device).avg_file_size_mb,
                unit="MB",
            )
            if include_latency:
                comp.add(
                    f"{label}: secs to first byte",
                    paper.TABLE3_DEVICE_TOTALS[device].secs_to_first_byte,
                    self.stats.device_total(device).avg_latency_seconds,
                    unit="s",
                )
        comp.add(
            "avg file size overall",
            paper.TABLE3_TOTAL.avg_file_size_mb,
            total.avg_file_size_mb,
            unit="MB",
        )
        comp.add(
            "read:write ratio",
            paper.READ_WRITE_RATIO,
            self.stats.read_write_ratio(),
        )
        return comp


def overall_statistics_from_batches(
    batches: Iterable["EventBatch"],
) -> OverallStatistics:
    """Table 3 from a raw batch stream (errors included).

    Whole-column reductions per (device, direction) cell; counts and
    byte totals are bit-identical to a record walk, means agree to
    numerical rounding (numpy vs Welford accumulation order).
    """
    stats = accumulators.OverallAccumulator().add_all(batches).statistics()
    return OverallStatistics(stats)
