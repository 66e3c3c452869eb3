"""Per-file reference lifecycles (Figure 8 / Section 5.3).

Each file gets a *deduped* read count and write count -- the number of
distinct 8-hour-separated accesses the Section 5.3 analysis would see.  The
archetype mixture below was solved from the paper's marginals:

* 50 % of files never read, 25 % read exactly once;
* 21 % never written, 65 % written exactly once;
* 44 % written once and never read;
* 57 % accessed exactly once, 19 % exactly twice, median 1;
* ~5 % referenced more than ten times, max ~250 (Figure 8 x-axis).

Archetypes (w = writes, r = reads, G = geometric extra, T = heavy tail):

====  =========  =========  =====  =========================================
name  writes     reads      prob   meaning
====  =========  =========  =====  =========================================
A     1          0          0.440  archive dump: written once, never read
B     2 + G      0          0.060  re-written archive, never read
C     0          1          0.130  pre-existing file read once
D     0          2 + T      0.080  pre-existing file re-read over time
E     1          1          0.106  written once, read back once
F     1          2 + T      0.104  written once, read repeatedly
G     2 + G      1 + T      0.080  active working file
====  =========  =========  =====  =========================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core import paper


class Archetype(enum.IntEnum):
    """File lifecycle classes; see the module docstring for the table."""

    WRITE_ONCE_NEVER_READ = 0   # A
    REWRITTEN_NEVER_READ = 1    # B
    PREEXISTING_READ_ONCE = 2   # C
    PREEXISTING_REREAD = 3      # D
    WRITE_ONCE_READ_ONCE = 4    # E
    WRITE_ONCE_READ_MANY = 5    # F
    ACTIVE_WORKING_FILE = 6     # G


#: Mixture probabilities, in Archetype order.  Solved from the Figure 8
#: marginals (module docstring); they sum to 1.
ARCHETYPE_PROBABILITIES: Tuple[float, ...] = (
    0.440, 0.060, 0.130, 0.080, 0.106, 0.104, 0.080,
)

#: Geometric "extra writes" parameter: P(extra = k) = (1-q) q^k, mean 2/3.
EXTRA_WRITE_Q = 0.4

#: Heavy read tail T: with probability 1 - HOT_FRACTION a truncated
#: discrete Pareto, P(T = k) proportional to (k+1)^-TAIL_EXPONENT for
#: k = 0..TAIL_CAP; with probability HOT_FRACTION a uniform "hot file"
#: plateau on [HOT_LOW, HOT_HIGH].  Together these set the Figure 8
#: ">10 references" mass (~5 %) without inflating the mean.
TAIL_EXPONENT = 1.85
TAIL_CAP = paper.MAX_PLOTTED_REFERENCES - 4
HOT_FRACTION = 0.13
HOT_LOW = 8
HOT_HIGH = 40


@dataclass(frozen=True)
class LifecycleSample:
    """Vectorized lifecycle draw for a file population."""

    archetypes: np.ndarray      # int8, Archetype values
    write_counts: np.ndarray    # int32, deduped writes per file
    read_counts: np.ndarray     # int32, deduped reads per file
    preexisting: np.ndarray     # bool: file existed before the trace

    @property
    def n_files(self) -> int:
        """Population size."""
        return int(self.archetypes.size)


def _heavy_tail_pmf() -> np.ndarray:
    """PMF of the truncated discrete-Pareto read tail."""
    support = np.arange(TAIL_CAP + 1, dtype=float)
    weights = (support + 1.0) ** (-TAIL_EXPONENT)
    return weights / weights.sum()


_TAIL_PMF = _heavy_tail_pmf()


def sample_heavy_tail(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` values of the heavy read tail T (Pareto + hot plateau)."""
    if n == 0:
        return np.empty(0, dtype=np.int32)
    pareto = rng.choice(TAIL_CAP + 1, size=n, p=_TAIL_PMF).astype(np.int32)
    hot = rng.integers(HOT_LOW, HOT_HIGH + 1, size=n).astype(np.int32)
    use_hot = rng.random(n) < HOT_FRACTION
    return np.where(use_hot, hot, pareto)


def sample_extra_writes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` geometric extra-write counts (mean q/(1-q) = 2/3)."""
    if n == 0:
        return np.empty(0, dtype=np.int32)
    # numpy's geometric counts trials to first success (support 1..);
    # subtract 1 for the "number of failures" convention.
    return (rng.geometric(1.0 - EXTRA_WRITE_Q, size=n) - 1).astype(np.int32)


#: Archetype tilt for tape-class (large) files, in Archetype order.  Large
#: files are the interesting ones -- model output that gets re-read -- so
#: read-heavy archetypes (D, F, G) and pre-existing archives (C, D) are
#: over-represented among them, write-once dumps (A) under-represented.
#: Small files compensate so the global marginals of Figure 8 still hold.
LARGE_FILE_TILT: Tuple[float, ...] = (0.72, 0.85, 3.00, 2.60, 0.95, 1.80, 1.80)


def _tilted_probabilities(large_fraction: float):
    """(probs_for_large, probs_for_small) preserving global marginals.

    probs_large is proportional to base * tilt; probs_small is solved from
    ``base = p_L * probs_large + (1 - p_L) * probs_small`` and clipped at
    zero (renormalized) if the tilt overshoots.
    """
    base = np.asarray(ARCHETYPE_PROBABILITIES)
    tilt = np.asarray(LARGE_FILE_TILT)
    probs_large = base * tilt
    probs_large = probs_large / probs_large.sum()
    if large_fraction >= 1.0:
        return probs_large, base
    probs_small = (base - large_fraction * probs_large) / (1.0 - large_fraction)
    probs_small = np.clip(probs_small, 0.0, None)
    probs_small = probs_small / probs_small.sum()
    return probs_large, probs_small


def draw_lifecycles(
    rng: np.random.Generator,
    n_files: int,
    large_mask: "np.ndarray | None" = None,
) -> LifecycleSample:
    """Draw lifecycles for a population of ``n_files`` files.

    ``large_mask`` (optional boolean array) marks tape-class files, which
    receive the read-heavy archetype tilt; marginals over the whole
    population still match the Figure 8 targets.
    """
    if n_files <= 0:
        raise ValueError("n_files must be positive")
    if large_mask is None:
        archetypes = rng.choice(
            len(ARCHETYPE_PROBABILITIES), size=n_files, p=ARCHETYPE_PROBABILITIES
        ).astype(np.int8)
    else:
        large_mask = np.asarray(large_mask, dtype=bool)
        if large_mask.shape != (n_files,):
            raise ValueError("large_mask must have one entry per file")
        large_fraction = float(large_mask.mean())
        probs_large, probs_small = _tilted_probabilities(large_fraction)
        archetypes = np.empty(n_files, dtype=np.int8)
        n_large = int(large_mask.sum())
        archetypes[large_mask] = rng.choice(
            len(ARCHETYPE_PROBABILITIES), size=n_large, p=probs_large
        )
        archetypes[~large_mask] = rng.choice(
            len(ARCHETYPE_PROBABILITIES), size=n_files - n_large, p=probs_small
        )
    writes = np.zeros(n_files, dtype=np.int32)
    reads = np.zeros(n_files, dtype=np.int32)

    def mask_of(kind: Archetype) -> np.ndarray:
        return archetypes == int(kind)

    m = mask_of(Archetype.WRITE_ONCE_NEVER_READ)
    writes[m] = 1

    m = mask_of(Archetype.REWRITTEN_NEVER_READ)
    writes[m] = 2 + sample_extra_writes(rng, int(m.sum()))

    m = mask_of(Archetype.PREEXISTING_READ_ONCE)
    reads[m] = 1

    m = mask_of(Archetype.PREEXISTING_REREAD)
    reads[m] = 2 + sample_heavy_tail(rng, int(m.sum()))

    m = mask_of(Archetype.WRITE_ONCE_READ_ONCE)
    writes[m] = 1
    reads[m] = 1

    m = mask_of(Archetype.WRITE_ONCE_READ_MANY)
    writes[m] = 1
    reads[m] = 2 + sample_heavy_tail(rng, int(m.sum()))

    m = mask_of(Archetype.ACTIVE_WORKING_FILE)
    writes[m] = 2 + sample_extra_writes(rng, int(m.sum()))
    reads[m] = 1 + sample_heavy_tail(rng, int(m.sum()))

    preexisting = (
        mask_of(Archetype.PREEXISTING_READ_ONCE)
        | mask_of(Archetype.PREEXISTING_REREAD)
    )
    return LifecycleSample(
        archetypes=archetypes,
        write_counts=writes,
        read_counts=reads,
        preexisting=preexisting,
    )


def direction_sequence(
    rng: np.random.Generator, writes: int, reads: int
) -> np.ndarray:
    """Order of one file's deduped events as a boolean is-write array.

    Files born inside the trace are written before they can be read, so a
    file with any writes starts with one; the remaining writes and reads
    interleave randomly (model output is often updated between reads).
    """
    total = writes + reads
    if total == 0:
        return np.empty(0, dtype=bool)
    if writes == 0:
        return np.zeros(total, dtype=bool)
    rest = np.concatenate(
        [np.ones(writes - 1, dtype=bool), np.zeros(reads, dtype=bool)]
    )
    rng.shuffle(rest)
    return np.concatenate([[True], rest])


def expected_marginals() -> dict:
    """Analytic marginals of the mixture, for calibration tests."""
    p = dict(zip(Archetype, ARCHETYPE_PROBABILITIES))
    return {
        "never_read": p[Archetype.WRITE_ONCE_NEVER_READ]
        + p[Archetype.REWRITTEN_NEVER_READ],
        "never_written": p[Archetype.PREEXISTING_READ_ONCE]
        + p[Archetype.PREEXISTING_REREAD],
        "written_once": p[Archetype.WRITE_ONCE_NEVER_READ]
        + p[Archetype.WRITE_ONCE_READ_ONCE]
        + p[Archetype.WRITE_ONCE_READ_MANY],
        "write_once_never_read": p[Archetype.WRITE_ONCE_NEVER_READ],
        "exactly_one_access": p[Archetype.WRITE_ONCE_NEVER_READ]
        + p[Archetype.PREEXISTING_READ_ONCE],
    }
