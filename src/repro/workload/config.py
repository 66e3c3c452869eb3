"""Workload generator configuration.

One :class:`WorkloadConfig` fully determines a synthetic trace (together
with the seed).  The defaults reproduce the NCAR 1990-92 environment at a
chosen ``scale``; every knob maps to a published statistic, noted inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import paper
from repro.namespace.dirtree import NamespaceProfile
from repro.util.units import DAY, HOUR


@dataclass(frozen=True)
class BurstConfig:
    """Raw-request bursts around each deduped reference.

    Section 6: "About one third of all requests came within eight hours of
    another request for the same file", typically batch scripts re-reading
    the same input.  Each deduped event expands into 1 + Geometric extras.
    """

    read_extra_mean: float = 0.34    # extra raw reads per deduped read
    write_extra_mean: float = 0.20   # extra raw writes per deduped write
    follower_gap_mean: float = 1500.0  # seconds; well inside the 8 h window
    follower_gap_cap: float = 7.9 * HOUR


@dataclass(frozen=True)
class SessionConfig:
    """Within-hour session clustering (Figure 7).

    Requests arrive in program-driven clusters: "90% of all references
    followed another by less than 10 seconds" while the overall mean
    interarrival is 18 s.  Events inside one hour bin are grouped into
    sessions whose members are seconds apart.
    """

    mean_session_length: float = 10.0   # geometric mean cluster size
    intra_gap_mean: float = 3.0         # seconds between cluster members
    intra_gap_cap: float = 60.0


@dataclass(frozen=True)
class GapConfig:
    """Per-file interreference gaps on the deduped stream (Figure 9).

    Gaps are day-grained: a follow-on reference lands either later the
    same day (probability ``p0_*``, e.g. a batch write at 03:00 read back
    at 09:30, or a morning read revisited in the evening), or ``1 + tail``
    days later.  The tail mixes a short geometric run (the next few
    working days) with a heavy lognormal component (files revisited months
    later).  Small working files re-reference quickly; large tape-class
    model output comes back on a much longer horizon -- which is also what
    routes cold tape reads to shelved cartridges (Table 3's manual-tape
    column).  Targets: ~70 % of gaps under one day, a tail past one year.
    """

    p0_cross: float = 0.70        # write->read / read->write, same day
    p0_same_small: float = 0.52   # read->read / write->write, small files
    p0_same_large: float = 0.22   # ... large (tape-class) files
    q_short_cross: float = 0.75   # P(short tail | next-day+, cross)
    q_short_small: float = 0.78
    q_short_large: float = 0.45
    geom_p: float = 0.60          # short tail: Geometric(p) days, mean 1/p
    long_median_days: float = 12.0
    long_sigma: float = 1.8
    cross_same_day_median: float = 2.5 * HOUR  # write->read turnaround
    cross_same_day_sigma: float = 0.8
    same_day_block_gap: float = 8.05 * HOUR    # dedupe-surviving spacing


@dataclass(frozen=True)
class PlacementConfig:
    """Which storage level serves each reference (Table 3 device shares)."""

    disk_threshold_bytes: int = 30_000_000   # Section 3.1: 30 MB split
    silo_residency: float = 21.0 * DAY       # recency horizon for silo hits
    tape_write_shelf_fraction: float = 0.03  # writes bypassing the silo
    preexisting_shelf_fraction: float = 1.0  # old tape files start shelved
    #: Probability that recalled shelf data is re-staged onto a silo
    #: cartridge after a manual-tape read (operators re-enter hot tapes).
    promote_on_read: float = 0.15


@dataclass(frozen=True)
class ErrorConfig:
    """Failed-reference injection (Section 5.1: 4.76 % of raw refs)."""

    error_fraction: float = paper.ERROR_FRACTION
    no_such_file_share: float = 0.75
    media_error_share: float = 0.15
    premature_share: float = 0.08
    # remainder -> ErrorKind.OTHER


@dataclass(frozen=True)
class WorkloadConfig:
    """Complete recipe for one synthetic NCAR trace."""

    #: Fraction of the full-scale population (1.0 = 900 k files, ~3.7 M refs).
    scale: float = 0.02
    seed: int = 0
    duration_seconds: float = paper.TRACE_SPAN_DAYS * DAY
    bursts: BurstConfig = field(default_factory=BurstConfig)
    sessions: SessionConfig = field(default_factory=SessionConfig)
    gaps: GapConfig = field(default_factory=GapConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    errors: ErrorConfig = field(default_factory=ErrorConfig)
    #: Fill startup latency / transfer time from the analytic device models
    #: (True) or leave them zero for later DES replay (False).
    fill_latencies: bool = True
    #: Fraction of write-once-never-read files given the ~8 MB "standard
    #: history file" size (the Figure 10 write bump).
    history_atom_fraction: float = 0.12
    history_atom_bytes: int = paper.WRITE_SIZE_BUMP_BYTES

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.duration_seconds <= DAY:
            raise ValueError("duration must exceed one day")

    @property
    def n_files(self) -> int:
        """File population at this scale."""
        return max(20, int(round(paper.FILE_COUNT * self.scale)))

    def namespace_profile(self) -> NamespaceProfile:
        """Namespace shape for this scale."""
        return NamespaceProfile(n_files=self.n_files)


#: The configuration used by the benchmark suite.
NCAR_BENCH_CONFIG = WorkloadConfig(scale=0.02, seed=42)

#: A small configuration for fast unit tests.
NCAR_TEST_CONFIG = WorkloadConfig(scale=0.004, seed=7)
