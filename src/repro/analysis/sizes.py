"""Figures 10-12: file and directory size distributions.

* Figure 10 (dynamic): sizes of transferred files, one count per access,
  split by direction, plus the byte-weighted ("data read/written") curves.
* Figure 11 (static): sizes of the files on the MSS, one count per file,
  plus the byte-weighted curve.
* Figure 12: directory sizes -- fraction of directories, of files, and of
  data in directories of at most N files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis import accumulators
from repro.analysis.compare import Comparison
from repro.analysis.render import render_cdf
from repro.core import paper
from repro.namespace.model import Namespace
from repro.util.stats import CDF, top_fraction_share
from repro.util.units import MB

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class DynamicSizeDistribution:
    """Figure 10: per-access size samples."""

    read_sizes: np.ndarray
    write_sizes: np.ndarray

    def files_read_cdf(self) -> CDF:
        """Fraction of read requests at or below a size."""
        return CDF.from_samples(self.read_sizes)

    def data_read_cdf(self) -> CDF:
        """Fraction of bytes read moved in files at or below a size."""
        return CDF.from_samples(self.read_sizes, weights=self.read_sizes)

    def fraction_requests_under(self, size_bytes: float) -> float:
        """All-request fraction at or below a size (paper: 40 % <= 1 MB)."""
        all_sizes = np.concatenate([self.read_sizes, self.write_sizes])
        return float((all_sizes <= size_bytes).mean())

    def write_bump_strength(
        self, center: float = paper.WRITE_SIZE_BUMP_BYTES, width: float = 0.25
    ) -> float:
        """Write-request mass within +-width (relative) of the 8 MB atom,
        relative to the same window for reads.  > 1 means the bump is a
        write-side feature, as in Figure 10."""
        lo, hi = center * (1 - width), center * (1 + width)
        writes = float(((self.write_sizes >= lo) & (self.write_sizes <= hi)).mean())
        reads = float(((self.read_sizes >= lo) & (self.read_sizes <= hi)).mean())
        return writes / max(reads, 1e-12)

    def render(self) -> str:
        """ASCII Figure 10 (files read)."""
        return render_cdf(
            CDF.from_samples(self.read_sizes / MB),
            log_x=True,
            x_label="MB",
            title="Figure 10: size distribution of transferred files (reads)",
            x_limits=(0.1, 350),
        )

    def comparison(self) -> Comparison:
        """Paper-vs-measured Figure 10 anchors."""
        comp = Comparison("Figure 10 (dynamic sizes)")
        comp.add(
            "requests <= 1 MB",
            paper.FRACTION_REQUESTS_UNDER_1MB,
            self.fraction_requests_under(1 * MB),
        )
        comp.add(
            "write bump at 8 MB (w/r mass ratio)",
            1.5,
            self.write_bump_strength(),
            note="qualitative: > 1 means writes bump",
        )
        return comp


def dynamic_distribution_from_batches(
    batches: Iterable["EventBatch"],
) -> DynamicSizeDistribution:
    """Figure 10 from a batch stream (masked column concatenation)."""
    read_sizes, write_sizes = accumulators.size_samples_by_direction(batches)
    if read_sizes.size == 0 or write_sizes.size == 0:
        raise ValueError("need both reads and writes")
    return DynamicSizeDistribution(read_sizes=read_sizes, write_sizes=write_sizes)


@dataclass
class StaticSizeDistribution:
    """Figure 11: one size sample per file."""

    sizes: np.ndarray

    def files_cdf(self) -> CDF:
        """Fraction of files at or below a size."""
        return CDF.from_samples(self.sizes)

    def data_cdf(self) -> CDF:
        """Fraction of bytes in files at or below a size."""
        return CDF.from_samples(self.sizes, weights=self.sizes)

    def fraction_files_under(self, size_bytes: float) -> float:
        """Paper: ~50 % of files under 3 MB."""
        return float((self.sizes < size_bytes).mean())

    def fraction_data_under(self, size_bytes: float) -> float:
        """Paper: those files hold ~2 % of the data."""
        total = self.sizes.sum()
        return float(self.sizes[self.sizes < size_bytes].sum() / max(total, 1))

    def render(self) -> str:
        """ASCII Figure 11 (files curve)."""
        return render_cdf(
            CDF.from_samples(self.sizes / MB),
            log_x=True,
            x_label="MB",
            title="Figure 11: distribution of file sizes on the MSS",
            x_limits=(0.02, 350),
        )

    def comparison(self) -> Comparison:
        """Paper-vs-measured Figure 11 anchors."""
        bound = paper.STATIC_SMALL_FILE_BOUND_BYTES
        comp = Comparison("Figure 11 (static sizes)")
        comp.add(
            "files under 3 MB",
            paper.FRACTION_FILES_UNDER_3MB,
            self.fraction_files_under(bound),
        )
        comp.add(
            "data in files under 3 MB",
            paper.FRACTION_DATA_IN_FILES_UNDER_3MB,
            self.fraction_data_under(bound),
        )
        comp.add(
            "mean file size (MB)",
            paper.AVERAGE_FILE_SIZE_BYTES / MB,
            float(self.sizes.mean()) / MB,
        )
        return comp


def static_distribution(namespace: Namespace) -> StaticSizeDistribution:
    """Figure 11 sample from the namespace (each file counted once)."""
    sizes = np.asarray(namespace.file_sizes(), dtype=float)
    if sizes.size == 0:
        raise ValueError("empty namespace")
    return StaticSizeDistribution(sizes=sizes)


@dataclass
class DirectorySizeDistribution:
    """Figure 12: directory population statistics."""

    file_counts: np.ndarray     # files per directory
    data_bytes: np.ndarray      # bytes per directory

    def dirs_cdf(self) -> CDF:
        """Fraction of directories with at most N files."""
        return CDF.from_samples(self.file_counts)

    def files_cdf(self) -> CDF:
        """Fraction of files living in directories with at most N files."""
        return CDF.from_samples(self.file_counts, weights=np.maximum(self.file_counts, 0))

    def data_cdf(self) -> CDF:
        """Fraction of data living in directories with at most N files."""
        return CDF.from_samples(self.file_counts, weights=self.data_bytes)

    def fraction_dirs_at_most(self, n: int) -> float:
        """Paper: 90 % of directories hold <= 10 files; 75 % hold <= 1."""
        return float((self.file_counts <= n).mean())

    def fraction_files_in_dirs_over(self, n: int) -> float:
        """Paper: over half the files live in directories of > 100 files."""
        total = self.file_counts.sum()
        return float(self.file_counts[self.file_counts > n].sum() / max(total, 1))

    def top_dir_file_share(self, fraction: float = paper.TOP_DIR_FRACTION) -> float:
        """Paper: 5 % of directories hold ~50 % of the files."""
        return top_fraction_share(self.file_counts, fraction)

    def render(self) -> str:
        """ASCII Figure 12 (directories curve)."""
        return render_cdf(
            self.dirs_cdf(),
            log_x=True,
            x_label="files in directory",
            title="Figure 12: distribution of directory sizes",
            x_limits=(1, max(float(self.file_counts.max()), 10.0)),
        )

    def comparison(self) -> Comparison:
        """Paper-vs-measured Figure 12 anchors."""
        comp = Comparison("Figure 12 (directory sizes)")
        comp.add(
            "dirs with <= 1 file",
            paper.FRACTION_DIRS_AT_MOST_1_FILE,
            self.fraction_dirs_at_most(1),
        )
        comp.add(
            "dirs with <= 10 files",
            paper.FRACTION_DIRS_AT_MOST_10_FILES,
            self.fraction_dirs_at_most(10),
        )
        comp.add(
            "files in dirs > 100 files",
            paper.FRACTION_FILES_IN_DIRS_OVER_100,
            self.fraction_files_in_dirs_over(100),
        )
        comp.add(
            "file share of top 5% dirs",
            paper.TOP_DIR_FILE_SHARE,
            self.top_dir_file_share(),
        )
        return comp


def directory_distribution(namespace: Namespace) -> DirectorySizeDistribution:
    """Figure 12 sample from the namespace."""
    counts = np.asarray(namespace.directory_file_counts(), dtype=float)
    data = np.asarray(namespace.directory_data_bytes(), dtype=float)
    if counts.size == 0:
        raise ValueError("empty namespace")
    return DirectorySizeDistribution(file_counts=counts, data_bytes=data)
