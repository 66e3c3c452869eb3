"""The synthetic-trace generator.

Pipeline (each stage keyed to the statistic it reproduces):

1. **Namespace** -- files, sizes, directories (Table 4, Figures 11-12).
2. **Lifecycles** -- deduped read/write counts per file (Figure 8).
3. **Event chains** -- per-file event times: birth sampled from the
   direction's intensity (Figures 4-6), follow-on events by gap mixture
   (Figure 9), day-shift acceptance onto busy days, hour redraw onto the
   diurnal profile.
4. **Bursts** -- batch-script re-requests inside the 8-hour window
   (Section 6's "one third of all requests").
5. **Placement** -- disk / silo / shelf per reference (Table 3 shares).
6. **Sessions** -- within-hour clustering and user assignment (Figure 7).
7. **Errors** -- 4.76 % failed references (Section 5.1).
8. **Latencies** -- analytic device models (Table 3 / Figure 3), unless
   the trace will be replayed through the DES instead.

The result is a :class:`SyntheticTrace` holding compact numpy arrays;
records are materialized lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core import paper
from repro.namespace.dirtree import generate_namespace
from repro.namespace.model import Namespace
from repro.trace.errors import ErrorKind
from repro.trace.record import Device, TraceRecord
from repro.trace.writer import TraceWriter
from repro.util.rng import SeedSequenceFactory
from repro.util.units import DAY
from repro.workload.clustering import expand_bursts, pack_sessions
from repro.workload.config import WorkloadConfig
from repro.workload.intensity import IntensityPair
from repro.workload.latency import AnalyticLatencyModel
from repro.workload.lifecycle import LifecycleSample, draw_lifecycles
from repro.workload.placement import DEVICE_INDEX, assign_devices_batch
from repro.workload.profiler import StageProfiler
from repro.workload.users import OWNER_READ_PROBABILITY, UserPopulation

_DEVICE_INDEX = DEVICE_INDEX

#: Version of the generation pipeline.  Part of every trace-store cache
#: key: bump it whenever a change alters the stream a fixed
#: :class:`WorkloadConfig` produces, and every cached store invalidates
#: at once (see :mod:`repro.engine.store`).  v3: placement, session
#: packing and the chain hour redraw went array-level, which reorders
#: RNG consumption (statistically equivalent, bit-different streams).
GENERATOR_VERSION = 3

#: Rounds of +1 day shifting before an event is accepted unconditionally.
_MAX_DAY_SHIFTS = 28


@dataclass
class SyntheticTrace:
    """A generated trace: parallel arrays plus the namespace behind it.

    ``file_ids`` are indices into ``namespace.files``; negative ids mark
    references to files that never existed (the NO_SUCH_FILE errors).
    """

    config: WorkloadConfig
    namespace: Namespace
    times: np.ndarray          # float64 seconds, sorted nondecreasing
    file_ids: np.ndarray       # int64
    is_write: np.ndarray       # bool
    device_idx: np.ndarray     # int8 index into Device.storage_devices()
    sizes: np.ndarray          # int64 bytes
    users: np.ndarray          # int32
    errors: np.ndarray         # int8 ErrorKind values
    latencies: np.ndarray      # float64 seconds
    transfers: np.ndarray      # float64 seconds
    lifecycles: LifecycleSample
    #: Wall-clock seconds per generation stage (``repro report --profile``
    #: prints this table).
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """Total raw references including errors."""
        return int(self.times.size)

    def path_of(self, index: int) -> str:
        """MSS path of one event (synthesized for never-existed files)."""
        return self.namespace.path_of(int(self.file_ids[index]))

    def iter_batches(self, chunk_size: int = 65_536) -> Iterator["EventBatch"]:
        """Yield the trace as columnar :class:`EventBatch` chunks.

        This is the engine-facing view: zero-copy slices of the trace's
        arrays, carrying every column (including users and latencies) so
        downstream layers never need per-record objects.
        """
        from repro.engine.batch import EventBatch

        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for start in range(0, self.n_events, chunk_size):
            stop = start + chunk_size
            yield EventBatch(
                file_id=self.file_ids[start:stop],
                size=self.sizes[start:stop],
                time=self.times[start:stop],
                is_write=self.is_write[start:stop],
                device=self.device_idx[start:stop],
                error=self.errors[start:stop],
                user=self.users[start:stop],
                latency=self.latencies[start:stop],
                transfer=self.transfers[start:stop],
            )

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield the trace as :class:`TraceRecord` objects, in time order.

        Lazy record views over the columnar batches -- the engine's
        adapter owns the row-materialization logic.
        """
        from repro.engine.records import records_from_batches

        return records_from_batches(self.iter_batches(), self.namespace)

    def records(self) -> List[TraceRecord]:
        """Materialize the full record list (use iter_records at scale)."""
        return list(self.iter_records())

    def write(self, path, comments: Optional[dict] = None) -> int:
        """Write the trace to an ASCII trace file; returns record count."""
        meta = {"generator": "repro.workload", "scale": self.config.scale,
                "seed": self.config.seed}
        meta.update(comments or {})
        with TraceWriter(path, comments=meta) as writer:
            return writer.write_all(self.iter_records())


def generate_trace(config: Optional[WorkloadConfig] = None) -> SyntheticTrace:
    """Generate a synthetic NCAR trace from a configuration.

    Per-stage wall time lands on the returned trace's
    :attr:`~SyntheticTrace.stage_seconds`.
    """
    config = config or WorkloadConfig()
    seeds = SeedSequenceFactory(config.seed)
    prof = StageProfiler()

    with prof.stage("namespace"):
        namespace = generate_namespace(
            config.namespace_profile(), rng=seeds.named("namespace")
        )
    with prof.stage("lifecycles"):
        n_files = namespace.file_count
        large_mask = (
            _file_size_array(namespace) >= config.placement.disk_threshold_bytes
        )
        lifecycles = draw_lifecycles(seeds.named("lifecycle"), n_files, large_mask)
        _apply_history_atom(config, namespace, lifecycles, seeds.named("atom"))
        _shrink_preexisting_archives(
            config, namespace, lifecycles, seeds.named("shrink")
        )

    with prof.stage("chains"):
        times, file_idx, event_is_write = _build_event_chains(
            config, lifecycles, seeds.named("chains"), large_mask, namespace
        )
    with prof.stage("bursts"):
        times, event_is_write, file_idx = expand_bursts(
            seeds.named("bursts"), times, event_is_write, file_idx,
            config.bursts, config.duration_seconds,
        )

        order = np.argsort(times, kind="stable")
        times = times[order]
        file_idx = file_idx[order]
        event_is_write = event_is_write[order]

    with prof.stage("placement"):
        sizes = _file_size_array(namespace)[file_idx]
        device_idx = assign_devices_batch(
            seeds.named("placement"), config.placement, file_idx, sizes,
            times, event_is_write,
        )

    with prof.stage("sessions"):
        file_dirs = _file_dir_array(namespace)
        times, session_ids = pack_sessions(
            seeds.named("sessions"), times, config.sessions,
            group_keys=file_dirs[file_idx],
        )
    with prof.stage("users"):
        users = _assign_users(
            file_dirs, file_idx, event_is_write, session_ids,
            config, seeds.named("users"),
        )

    with prof.stage("errors"):
        errors = np.zeros(times.size, dtype=np.int8)
        (times, file_idx, event_is_write, device_idx, sizes, users, errors) = (
            _inject_errors(
                config, namespace, seeds.named("errors"),
                times, file_idx, event_is_write, device_idx, sizes, users,
                errors,
            )
        )

        order = np.argsort(times, kind="stable")
        times = times[order]
        file_idx = file_idx[order]
        event_is_write = event_is_write[order]
        device_idx = device_idx[order]
        sizes = sizes[order]
        users = users[order]
        errors = errors[order]

    with prof.stage("latencies"):
        latencies, transfers = _fill_latencies(
            config, seeds.named("latency"), event_is_write, device_idx, sizes,
            errors,
        )

    return SyntheticTrace(
        config=config,
        namespace=namespace,
        times=times,
        file_ids=file_idx,
        is_write=event_is_write,
        device_idx=device_idx,
        sizes=sizes,
        users=users,
        errors=errors,
        latencies=latencies,
        transfers=transfers,
        lifecycles=lifecycles,
        stage_seconds=dict(prof.stages),
    )


def generate_batches(
    config: Optional[WorkloadConfig] = None, chunk_size: int = 65_536
) -> Iterator["EventBatch"]:
    """Generate a trace and stream it as :class:`EventBatch` chunks.

    The batch producer the engine pipeline plugs into directly: no record
    objects are ever built, and consumers see the stream chunk by chunk.
    """
    yield from generate_trace(config).iter_batches(chunk_size=chunk_size)


# ---------------------------------------------------------------------------
# Stage helpers


def _apply_history_atom(
    config: WorkloadConfig,
    namespace: Namespace,
    lifecycles: LifecycleSample,
    rng: np.random.Generator,
) -> None:
    """Give a slice of write-once files the ~8 MB standard-history size.

    Produces Figure 10's "small jump in file writes at approximately 8 MB":
    climate-model history files are written once at a standard size and
    rarely read back.
    """
    from repro.workload.lifecycle import Archetype

    candidates = np.where(
        lifecycles.archetypes == int(Archetype.WRITE_ONCE_NEVER_READ)
    )[0]
    if candidates.size == 0:
        return
    chosen = candidates[rng.random(candidates.size) < config.history_atom_fraction]
    jitter = rng.normal(1.0, 0.03, size=chosen.size)
    for idx, j in zip(chosen, jitter):
        namespace.files[int(idx)].size = max(1, int(config.history_atom_bytes * j))


def _shrink_preexisting_archives(
    config: WorkloadConfig,
    namespace: Namespace,
    lifecycles: LifecycleSample,
    rng: np.random.Generator,
) -> None:
    """Shrink tape-class files that pre-date the trace.

    The shelved archive was written in earlier years when files were
    smaller, which is why Table 3's shelf reads average 47 MB against the
    silo's 80 MB.  Sizes stay above the 30 MB threshold so the files remain
    tape-class.
    """
    threshold = config.placement.disk_threshold_bytes
    sizes = _file_size_array(namespace)
    targets = np.where(lifecycles.preexisting & (sizes >= threshold))[0]
    if targets.size == 0:
        return
    factors = rng.lognormal(np.log(0.55), 0.30, size=targets.size)
    for idx, factor in zip(targets, factors):
        entry = namespace.files[int(idx)]
        entry.size = int(min(max(entry.size * factor, threshold), entry.size))


def _file_size_array(namespace: Namespace) -> np.ndarray:
    """File sizes as an int64 array indexed by file id."""
    return np.fromiter(
        (f.size for f in namespace.files), dtype=np.int64, count=namespace.file_count
    )


def _file_dir_array(namespace: Namespace) -> np.ndarray:
    """Directory ids as an int64 array indexed by file id."""
    return np.fromiter(
        (f.dir_id for f in namespace.files),
        dtype=np.int64,
        count=namespace.file_count,
    )


def _day_factor_table(
    intensities: IntensityPair, is_write: bool, n_days: int
) -> np.ndarray:
    """Relative day-level intensity per trace day, normalized to max 1."""
    model = intensities.for_direction(is_write)
    factors = np.array(
        [model.day_factor(day * DAY + DAY / 2) for day in range(n_days)]
    )
    peak = factors.max()
    if peak <= 0:
        raise ValueError("day factors collapsed to zero")
    return factors / peak


#: Mean files per birth run and mean spacing between run members.
_RUN_LENGTH_MEAN = 12.0
_RUN_SPACING_MEAN = 240.0


def _sample_run_births(
    config: WorkloadConfig,
    namespace: Namespace,
    first_is_write: np.ndarray,
    intensities: IntensityPair,
    rng: np.random.Generator,
) -> np.ndarray:
    """Birth time per file, correlated in sequence runs per directory."""
    births = np.empty(namespace.file_count)
    horizon = config.duration_seconds - 1.0
    for directory in namespace.directories:
        if not directory.file_ids:
            continue
        for direction in (True, False):
            members = [
                fid for fid in directory.file_ids
                if bool(first_is_write[fid]) == direction
            ]
            model = intensities.for_direction(direction)
            index = 0
            while index < len(members):
                run = min(
                    int(rng.geometric(1.0 / _RUN_LENGTH_MEAN)),
                    len(members) - index,
                )
                base = float(model.sample_times(rng, 1)[0])
                offsets = np.cumsum(rng.exponential(_RUN_SPACING_MEAN, size=run))
                for j in range(run):
                    births[members[index + j]] = min(base + offsets[j], horizon)
                index += run
    return births


def _hour_cumulative_tables(intensities: IntensityPair) -> np.ndarray:
    """Cumulative hour-of-day profiles, one row per (direction, dow).

    Row ``int(direction) * 7 + dow`` holds the normalized cumulative
    distribution over the 24 hours, ready for
    :func:`_draw_hours_grouped`'s one-shot inverse-CDF lookup.
    """
    cum = np.empty((14, 24))
    for direction in (False, True):
        model = intensities.for_direction(direction)
        for dow in range(7):
            row = np.cumsum(model.hour_probabilities_for_dow(dow))
            cum[int(direction) * 7 + dow] = row / row[-1]
    return cum


def _draw_hours_grouped(
    rng: np.random.Generator,
    hour_cum: np.ndarray,
    dirs: np.ndarray,
    dows: np.ndarray,
) -> np.ndarray:
    """Fractional hour-of-day per event from its (direction, dow) profile.

    Equivalent to one ``rng.choice(24, p=...)`` per (direction, dow)
    group plus a uniform within-hour offset, but drawn for all groups at
    once: each row's cumulative table is offset by its row index, so a
    single ``np.searchsorted`` over the flattened tables inverts every
    event's own CDF.
    """
    n = dirs.size
    if n == 0:
        return np.empty(0)
    n_rows, n_hours = hour_cum.shape
    flat = (hour_cum + np.arange(n_rows)[:, None]).ravel()
    row = dirs.astype(np.int64) * 7 + dows
    u = rng.random(n)
    drawn = np.searchsorted(flat, u + row, side="right") - row * n_hours
    np.clip(drawn, 0, n_hours - 1, out=drawn)
    return drawn + rng.random(n)


def _build_event_chains(
    config: WorkloadConfig,
    lifecycles: LifecycleSample,
    rng: np.random.Generator,
    large_mask: np.ndarray,
    namespace: Namespace,
):
    """Deduped event times, file indices and directions for every file."""
    writes = lifecycles.write_counts.astype(np.int64)
    reads = lifecycles.read_counts.astype(np.int64)
    counts = writes + reads
    n_files = counts.size
    total = int(counts.sum())

    file_idx = np.repeat(np.arange(n_files, dtype=np.int64), counts)
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    slots = np.arange(total, dtype=np.int64) - seg_starts[file_idx]
    first_mask = slots == 0

    intensities = IntensityPair(config.duration_seconds)

    # Birth times: write-born files follow the write intensity, read-only
    # (pre-existing) files follow the read intensity.  Births come in
    # *runs*: a model job writes h0001.nc, h0002.nc, ... minutes apart
    # (and an archive scan first-reads old files the same way), which is
    # what makes sequential prefetch and cartridge affinity meaningful
    # ("a researcher interested in day 1 ... will usually be interested
    # in day 2", Section 5.2.1).
    first_is_write = writes > 0
    births = _sample_run_births(
        config, namespace, first_is_write, intensities, rng
    )

    # Directions: the first event of a written file is its creating write;
    # the remaining writes and reads interleave in random order.
    is_write = np.zeros(total, dtype=bool)
    is_write[first_mask] = first_is_write
    extra_writes = np.maximum(writes - 1, 0)
    nf_positions = np.where(~first_mask)[0]
    if nf_positions.size:
        nf_files = file_idx[nf_positions]
        keys = rng.random(nf_positions.size)
        order = np.lexsort((keys, nf_files))
        sorted_nf = nf_positions[order]
        per_file_nf = (counts - 1).astype(np.int64)
        run_starts = np.concatenate([[0], np.cumsum(per_file_nf)[:-1]])
        present = per_file_nf > 0
        ranks = (
            np.arange(sorted_nf.size, dtype=np.int64)
            - np.repeat(run_starts[present], per_file_nf[present])
        )
        thresholds = np.repeat(extra_writes[present], per_file_nf[present])
        is_write[sorted_nf] = ranks < thresholds

    # Chain times, slot by slot: each follow-on event lands the same day
    # (later 8-hour block, or a short write->read turnaround) or 1 + tail
    # days later at a profile-drawn hour, skipping quiet days.
    times = np.empty(total)
    times[seg_starts] = births
    n_days = int(np.ceil(config.duration_seconds / DAY))
    day_tables = {
        direction: _day_factor_table(intensities, direction, n_days)
        for direction in (False, True)
    }
    hour_cum = _hour_cumulative_tables(intensities)
    g = config.gaps
    prev_time = births.copy()
    max_count = int(counts.max()) if counts.size else 0
    block_len = 8.0 * 3600.0
    for s in range(1, max_count):
        active = np.where(counts > s)[0]
        if active.size == 0:
            break
        pos = seg_starts[active] + s
        prev = prev_time[active]
        cur_w = is_write[pos]
        cross = cur_w != is_write[pos - 1]
        large = large_mask[active]
        p0 = np.where(
            cross, g.p0_cross, np.where(large, g.p0_same_large, g.p0_same_small)
        )
        same_day = rng.random(active.size) < p0
        new_times = np.empty(active.size)

        sd = np.where(same_day)[0]
        fallback = np.empty(0, dtype=np.int64)
        if sd.size:
            prev_sd = prev[sd]
            day_start = (prev_sd // DAY) * DAY
            frac = prev_sd - day_start
            turnaround = rng.lognormal(
                np.log(g.cross_same_day_median), g.cross_same_day_sigma, sd.size
            )
            t_cross = prev_sd + turnaround
            block = (frac // block_len).astype(np.int64)
            next_block_start = day_start + (block + 1) * block_len
            t_same = next_block_start + rng.random(sd.size) * block_len
            candidate = np.where(cross[sd], t_cross, t_same)
            overflow = candidate >= day_start + DAY
            ok = ~overflow
            new_times[sd[ok]] = candidate[ok]
            fallback = sd[overflow]

        nd = np.concatenate([np.where(~same_day)[0], fallback])
        if nd.size:
            n_fallback = fallback.size
            q = np.where(
                cross[nd],
                g.q_short_cross,
                np.where(large[nd], g.q_short_large, g.q_short_small),
            )
            short = rng.random(nd.size) < q
            delta_days = np.empty(nd.size, dtype=np.int64)
            n_short = int(short.sum())
            delta_days[short] = rng.geometric(g.geom_p, n_short)
            delta_days[~short] = np.ceil(
                rng.lognormal(np.log(g.long_median_days), g.long_sigma, nd.size - n_short)
            ).astype(np.int64)
            if n_fallback:
                # Same-day attempts that ran past midnight move to tomorrow.
                delta_days[-n_fallback:] = 1
            day_idx = (prev[nd] // DAY).astype(np.int64) + delta_days
            dirs_nd = cur_w[nd]
            for direction in (False, True):
                table = day_tables[direction]
                pend = np.where(dirs_nd == direction)[0]
                for _ in range(_MAX_DAY_SHIFTS):
                    if pend.size == 0:
                        break
                    clamped = np.minimum(day_idx[pend], n_days - 1)
                    accept = rng.random(pend.size) < table[clamped]
                    rejected = pend[~accept]
                    # Spread deferred demand over the following week rather
                    # than piling it onto the first day back: a scientist
                    # away for Christmas does not do two weeks of reading
                    # on January 2nd (keeps the Figure 6 dips visible).
                    day_idx[rejected] += rng.integers(1, 8, size=rejected.size)
                    pend = rejected
            dows = ((day_idx % 7) + 1) % 7  # trace epoch is a Monday
            hours = _draw_hours_grouped(rng, hour_cum, dirs_nd, dows)
            new_times[nd] = day_idx * DAY + hours * (DAY / 24.0)

        times[pos] = new_times
        prev_time[active] = new_times

    keep = times < config.duration_seconds
    return times[keep], file_idx[keep], is_write[keep]


def _assign_users(
    file_dirs: np.ndarray,
    file_idx: np.ndarray,
    is_write: np.ndarray,
    session_ids: np.ndarray,
    config: WorkloadConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One user per session: batch accounts write, scientists read."""
    population = UserPopulation.scaled(config.scale, rng=rng)
    users = np.empty(file_idx.size, dtype=np.int32)
    if file_idx.size == 0:
        return users
    unique_sessions, inverse = np.unique(session_ids, return_inverse=True)
    n_sessions = unique_sessions.size
    # Decide each session's flavour from its first event (the smallest
    # event index per session; unbuffered ufunc.at has guaranteed
    # semantics for duplicate indices, unlike fancy assignment).
    first_event = np.full(n_sessions, file_idx.size, dtype=np.int64)
    np.minimum.at(first_event, inverse, np.arange(file_idx.size, dtype=np.int64))
    session_is_write = is_write[first_event]
    writer_draws = population.sample_writers(rng, n_sessions)
    reader_draws = population.sample_readers(rng, n_sessions)
    owner_coin = rng.random(n_sessions) < OWNER_READ_PROBABILITY
    owners = population.owners_of_directories(file_dirs[file_idx[first_event]])
    session_users = np.where(
        session_is_write,
        writer_draws,
        np.where(owner_coin, owners, reader_draws),
    ).astype(np.int32)
    users[:] = session_users[inverse]
    return users


def _inject_errors(
    config: WorkloadConfig,
    namespace: Namespace,
    rng: np.random.Generator,
    times: np.ndarray,
    file_idx: np.ndarray,
    is_write: np.ndarray,
    device_idx: np.ndarray,
    sizes: np.ndarray,
    users: np.ndarray,
    errors: np.ndarray,
):
    """Add failed references so errors are ERROR_FRACTION of raw refs."""
    e = config.errors
    n_good = times.size
    n_err = int(round(n_good * e.error_fraction / (1.0 - e.error_fraction)))
    if n_err == 0:
        return times, file_idx, is_write, device_idx, sizes, users, errors

    intensities = IntensityPair(config.duration_seconds)
    err_times = intensities.read.sample_times(rng, n_err)
    kinds = rng.choice(
        [
            int(ErrorKind.NO_SUCH_FILE),
            int(ErrorKind.MEDIA_ERROR),
            int(ErrorKind.PREMATURE_TERMINATION),
            int(ErrorKind.OTHER),
        ],
        size=n_err,
        p=[
            e.no_such_file_share,
            e.media_error_share,
            e.premature_share,
            1.0 - e.no_such_file_share - e.media_error_share - e.premature_share,
        ],
    ).astype(np.int8)
    # Failed requests are mostly users asking for files that never existed,
    # which are read attempts against disk (the MSCP looks there first).
    err_is_write = rng.random(n_err) < 0.15
    shares = [paper.DEVICE_REFERENCE_SHARES[d] for d in Device.storage_devices()]
    shares = np.asarray(shares) / sum(shares)
    err_devices = rng.choice(len(shares), size=n_err, p=shares).astype(np.int8)
    err_files = np.empty(n_err, dtype=np.int64)
    err_sizes = np.zeros(n_err, dtype=np.int64)
    real_error = kinds != int(ErrorKind.NO_SUCH_FILE)
    n_real = int(real_error.sum())
    if n_real and namespace.file_count:
        picks = rng.integers(0, namespace.file_count, size=n_real)
        err_files[real_error] = picks
        err_sizes[real_error] = _file_size_array(namespace)[picks]
    err_files[~real_error] = -(np.arange(int((~real_error).sum()), dtype=np.int64) + 1)
    population = UserPopulation.scaled(config.scale, rng=rng)
    err_users = population.sample_readers(rng, n_err)

    return (
        np.concatenate([times, err_times]),
        np.concatenate([file_idx, err_files]),
        np.concatenate([is_write, err_is_write]),
        np.concatenate([device_idx, err_devices]),
        np.concatenate([sizes, err_sizes]),
        np.concatenate([users, err_users]),
        np.concatenate([errors, kinds]),
    )


def _fill_latencies(
    config: WorkloadConfig,
    rng: np.random.Generator,
    is_write: np.ndarray,
    device_idx: np.ndarray,
    sizes: np.ndarray,
    errors: np.ndarray,
):
    """Startup latency and transfer time per event."""
    n = is_write.size
    latencies = np.zeros(n)
    transfers = np.zeros(n)
    if not config.fill_latencies or n == 0:
        return latencies, transfers
    model = AnalyticLatencyModel(rng)
    good = errors == int(ErrorKind.NONE)
    for device, idx in _DEVICE_INDEX.items():
        for direction in (False, True):
            mask = good & (device_idx == idx) & (is_write == direction)
            count = int(mask.sum())
            if count == 0:
                continue
            latencies[mask] = model.startup_latencies(device, direction, count)
            transfers[mask] = model.transfer_times(sizes[mask])
    # Failed requests surface quickly (lookup failures) or abort mid-way.
    bad = ~good
    n_bad = int(bad.sum())
    if n_bad:
        latencies[bad] = rng.uniform(1.0, 30.0, size=n_bad)
    return latencies, transfers
