"""Figure 8: per-file reference-count distribution (Section 5.3).

Computed on the deduped stream ("at most one read and one write from any
eight hour period").  The population is the set of files referenced in
the trace, as in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.analysis import accumulators
from repro.analysis.compare import Comparison
from repro.analysis.render import render_cdf
from repro.core import paper
from repro.util.stats import CDF

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch


@dataclass
class ReferenceCounts:
    """Read/write/total reference counts per referenced file."""

    reads: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        if self.reads.shape != self.writes.shape:
            raise ValueError("reads and writes must align")
        if self.reads.size == 0:
            raise ValueError("no referenced files")

    @property
    def totals(self) -> np.ndarray:
        """Total references per file."""
        return self.reads + self.writes

    @property
    def n_files(self) -> int:
        """Referenced-file population size."""
        return int(self.reads.size)

    # -- headline fractions ------------------------------------------------

    def fraction_never_read(self) -> float:
        """Paper: 50 %."""
        return float((self.reads == 0).mean())

    def fraction_read_once(self) -> float:
        """Paper: 25 %."""
        return float((self.reads == 1).mean())

    def fraction_never_written(self) -> float:
        """Paper: 21 %."""
        return float((self.writes == 0).mean())

    def fraction_written_once(self) -> float:
        """Paper: 65 %."""
        return float((self.writes == 1).mean())

    def fraction_write_once_never_read(self) -> float:
        """Paper: 44 %."""
        return float(((self.writes == 1) & (self.reads == 0)).mean())

    def fraction_exactly_one_access(self) -> float:
        """Paper: 57 %."""
        return float((self.totals == 1).mean())

    def fraction_exactly_two_accesses(self) -> float:
        """Paper: 19 %."""
        return float((self.totals == 2).mean())

    def fraction_more_than(self, count: int) -> float:
        """Paper: 5 % referenced more than ten times."""
        return float((self.totals > count).mean())

    def median_references(self) -> int:
        """Paper: 1 (Smith's 1981 study found 2)."""
        return int(np.median(self.totals))

    # -- distribution ------------------------------------------------------

    def cdf(self, which: str = "total") -> CDF:
        """Cumulative distribution of counts (Figure 8 curves).

        ``which`` is "read", "write", or "total".
        """
        samples = {
            "read": self.reads,
            "write": self.writes,
            "total": self.totals,
        }.get(which)
        if samples is None:
            raise ValueError(f"unknown series {which!r}")
        return CDF.from_samples(samples)

    def render(self) -> str:
        """ASCII Figure 8 (total references)."""
        return render_cdf(
            self.cdf("total"),
            log_x=True,
            x_label="references",
            title="Figure 8: distribution of file reference counts",
            x_limits=(1, paper.MAX_PLOTTED_REFERENCES),
        )

    def comparison(self) -> Comparison:
        """Paper-vs-measured for all Section 5.3 headline numbers."""
        comp = Comparison("Figure 8 / Section 5.3 reference counts")
        comp.add("never read", paper.FRACTION_FILES_NEVER_READ, self.fraction_never_read())
        comp.add("read exactly once", paper.FRACTION_FILES_READ_ONCE, self.fraction_read_once())
        comp.add(
            "never written", paper.FRACTION_FILES_NEVER_WRITTEN, self.fraction_never_written()
        )
        comp.add(
            "written exactly once",
            paper.FRACTION_FILES_WRITTEN_ONCE,
            self.fraction_written_once(),
        )
        comp.add(
            "write-once never-read",
            paper.FRACTION_WRITE_ONCE_NEVER_READ,
            self.fraction_write_once_never_read(),
        )
        comp.add(
            "exactly one access",
            paper.FRACTION_EXACTLY_ONE_ACCESS,
            self.fraction_exactly_one_access(),
        )
        comp.add(
            "exactly two accesses",
            paper.FRACTION_EXACTLY_TWO_ACCESSES,
            self.fraction_exactly_two_accesses(),
        )
        comp.add(
            "more than 10 references",
            paper.FRACTION_MORE_THAN_TEN_REFERENCES,
            self.fraction_more_than(10),
        )
        comp.add("median references", paper.MEDIAN_FILE_REFERENCES, self.median_references())
        return comp


def reference_counts_from_batches(
    batches: Iterable["EventBatch"],
) -> ReferenceCounts:
    """Figure 8 from an (already deduped) batch stream.

    Two ``bincount`` calls replace the per-record dict updates; files
    come out in first-appearance order.
    """
    reads, writes = accumulators.file_reference_counts(batches)
    return ReferenceCounts(reads=reads, writes=writes)
