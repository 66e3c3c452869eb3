"""Burst expansion and session clustering.

Two clustering effects shape the request stream:

* **Bursts** (Section 6): batch scripts re-request the same file within a
  working day -- "about one third of all requests came within eight hours
  of another request for the same file".  Each deduped event expands into
  one or more raw requests.

* **Sessions** (Figure 7 / Section 5.2.1): programs access many files in
  quick succession ("several files are accessed together by the same
  program"; day-1 and day-2 of a model run live in separate files), so 90 %
  of system-level interarrivals are under 10 seconds while the overall mean
  is 18 s.  We impose this by regrouping the events inside each hour into
  sessions whose members are seconds apart.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.units import HOUR
from repro.workload.config import BurstConfig, SessionConfig


def expand_bursts(
    rng: np.random.Generator,
    times: np.ndarray,
    is_write: np.ndarray,
    file_ids: np.ndarray,
    config: BurstConfig,
    horizon: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand deduped events into raw request events.

    Returns (times, is_write, file_ids) including the originals plus burst
    followers at small positive offsets, all clipped to the horizon.  The
    result is unsorted.
    """
    if times.size == 0:
        return times, is_write, file_ids
    extras_mean = np.where(
        is_write, config.write_extra_mean, config.read_extra_mean
    )
    # Geometric extras with the configured mean m: success prob 1/(1+m).
    extra_counts = rng.geometric(1.0 / (1.0 + extras_mean)) - 1
    total_extra = int(extra_counts.sum())
    if total_extra == 0:
        return times, is_write, file_ids
    parent_idx = np.repeat(np.arange(times.size), extra_counts)
    offsets = rng.exponential(config.follower_gap_mean, size=total_extra)
    offsets = np.minimum(offsets, config.follower_gap_cap)
    follower_times = times[parent_idx] + offsets
    keep = follower_times < horizon
    all_times = np.concatenate([times, follower_times[keep]])
    all_writes = np.concatenate([is_write, is_write[parent_idx][keep]])
    all_files = np.concatenate([file_ids, file_ids[parent_idx][keep]])
    return all_times, all_writes, all_files


def pack_sessions(
    rng: np.random.Generator,
    times: np.ndarray,
    config: SessionConfig,
    group_keys: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Regroup events into sessions within their hour bins (vectorized).

    Events keep their hour (so Figures 4-6 are untouched) but are re-timed
    inside it: each hour's events are partitioned into sessions of
    geometric size, sessions start at uniform instants, and members follow
    the session head by exponential seconds-scale gaps.  Member times are
    clamped into ``[hour_start, hour_start + HOUR)`` so a long session
    can never spill past its hour bin.

    ``group_keys`` (e.g. the directory id of each event's file) makes
    sessions *locality-aware*: events with the same key pack into the same
    session, the way one job reads consecutive history files from one
    directory.  This is what drives spindle and cartridge affinity in the
    MSS simulator.

    The whole pass is segmented array work -- one ``np.lexsort`` for the
    hour/locality order, one Bernoulli draw for session boundaries (a
    fresh boundary after each event with probability ``1/mean`` yields
    i.i.d. geometric session sizes, truncated at the hour edge exactly
    like the drawn-then-clipped sizes of the scalar path), and a
    segment-reset cumulative sum for intra-session offsets.

    Returns ``(new_times, session_ids)`` aligned with the input order,
    where ``session_ids`` are globally unique ints (used to pin one user
    per session).
    """
    n = times.size
    if n == 0:
        return times, np.empty(0, dtype=np.int64)
    hour_bins = (times // HOUR).astype(np.int64)
    # Hour-major order; inside an hour, same-key events become adjacent
    # (random tiebreak), or the hour is fully shuffled when keyless.
    tiebreak = rng.random(n)
    if group_keys is None:
        order = np.lexsort((tiebreak, hour_bins))
    else:
        order = np.lexsort((tiebreak, group_keys, hour_bins))
    sorted_bins = hour_bins[order]
    first_in_hour = np.empty(n, dtype=bool)
    first_in_hour[0] = True
    np.not_equal(sorted_bins[1:], sorted_bins[:-1], out=first_in_hour[1:])

    # Geometric(p) session sizes == independent Bernoulli(p) boundaries
    # after each member; the hour edge truncates the last session of the
    # hour, which the memoryless geometric makes distribution-identical
    # to drawing sizes and clipping the remainder.
    p = 1.0 / config.mean_session_length
    session_start = (rng.random(n) < p) | first_in_hour
    session_of = np.cumsum(session_start) - 1  # per sorted event
    start_idx = np.where(session_start)[0]
    n_sessions = start_idx.size

    hour_start = sorted_bins[start_idx].astype(np.float64) * HOUR
    heads = hour_start + rng.random(n_sessions) * (
        HOUR - config.intra_gap_cap * 2
    )
    gaps = np.minimum(
        rng.exponential(config.intra_gap_mean, size=n), config.intra_gap_cap
    )
    # Segmented cumulative offsets: running sum reset at each session
    # head (the head itself sits at offset zero).
    running = np.cumsum(gaps)
    offsets = running - running[start_idx][session_of]
    packed = heads[session_of] + offsets
    # Events keep their hour: clamp stragglers to just inside the edge
    # (and guard the lower edge for degenerate gap-cap configs).
    hour_end = hour_start[session_of] + HOUR
    np.clip(packed, hour_start[session_of], np.nextafter(hour_end, 0.0),
            out=packed)

    new_times = np.empty_like(times)
    session_ids = np.empty(n, dtype=np.int64)
    new_times[order] = packed
    session_ids[order] = session_of
    return new_times, session_ids


