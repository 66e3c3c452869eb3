"""The parallel experiment runner: seeds x capacities x policies.

One call fans the full Section 6 ablation grid out over worker processes.
The parent prepares each seed's replay stream once -- into an on-disk
columnar :class:`~repro.engine.store.TraceStore` -- and ships workers
only the store *paths*: each worker memory-maps the shared shards, so
the initializer payload carries no arrays and N workers share one copy
of every seed's stream through the page cache.  With a ``cache_dir``
the stores are content-addressed and persist across sweeps; without one
they live in a temporary directory for the run.  Replay is the
embarrassingly parallel part, so wall-clock scales with cores.

Execution is fault-tolerant (:mod:`repro.engine.resilience`): workers
run under supervision with per-task timeout and bounded retry, a
SIGKILLed fork re-spawns the pool and requeues only the lost tasks, and
exhausted retries degrade the result (``failed_cells`` annotated and
rendered) instead of raising.  With a ``run_dir`` the run's
``run_record.json`` (a registry
:class:`~repro.registry.record.RunRecord`) is its checkpoint: every
finished task's cells and the run's counters land in it atomically, so
an interrupted multi-hour grid resumes at task granularity
(``resume=True`` / ``repro sweep --resume``), and ``repro runs
list|show|index`` read the same file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.batch import DEFAULT_CHUNK_SIZE, EventBatch
from repro.engine.replay import replay_policy
from repro.engine.resilience import (
    RetryPolicy,
    TaskOutcome,
    fault_point,
    run_supervised,
    sigterm_as_interrupt,
    sweep_config_hash,
)
from repro.engine.stackdist import multi_capacity_replay, resolve_engine
from repro.engine.store import TraceStore, open_or_generate
from repro.hsm.metrics import HSMMetrics
from repro.util.units import DAY

if TYPE_CHECKING:  # run-time registry imports stay function-local
    from repro.registry.record import RunRecord

#: Capacity range (fractions of the referenced store) a point-count sweep
#: spans: around the paper's ~1.5 % managed-disk operating point.
DEFAULT_FRACTION_RANGE = (0.005, 0.08)


@dataclass(frozen=True)
class SweepConfig:
    """The full grid one sweep covers."""

    policies: Tuple[str, ...]
    capacity_fractions: Tuple[float, ...]
    seeds: Tuple[int, ...] = (0,)
    scale: float = 0.02
    duration_days: Optional[float] = None
    writeback_delay: Optional[float] = 4 * 3600.0
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Persistent content-addressed store cache; None uses a per-run
    #: temporary directory (prepared streams still go through the store
    #: so workers memmap instead of unpickling).
    cache_dir: Optional[str] = None
    #: Built-in scenario archetypes to sweep policies against.  Empty
    #: means the classic single-workload grid; otherwise the grid is
    #: scenarios x seeds x policies x capacities, each scenario's
    #: composed HSM stream prepared once per seed (content-addressed by
    #: scenario hash) and replayed against every (policy, capacity) cell.
    scenarios: Tuple[str, ...] = ()
    #: Replay machinery: ``auto`` collapses all capacity cells of an
    #: inclusion-preserving (policy, stream) group into one stack-engine
    #: scan and runs the rest per-cell through the DES; ``des`` forces
    #: per-cell DES everywhere; ``stack`` insists on the stack engine
    #: and rejects policies it cannot replay.  Both engines are exact.
    engine: str = "auto"
    #: Retries per task after the first attempt (0 disables retries).
    max_retries: int = 2
    #: Seconds an in-flight task may run before its pool is recycled and
    #: the task retried; None disables the deadline.
    task_timeout: Optional[float] = None
    #: Exponential-backoff base delay between retries, seconds.
    retry_backoff: float = 0.5
    #: Runs root for task-granular checkpoints; None disables them.  The
    #: run directory is ``<run_dir>/sweep-<config-hash>`` (the hash
    #: excludes runtime knobs like workers -- see
    #: :func:`repro.engine.resilience.sweep_config_hash`).
    run_dir: Optional[str] = None
    #: Restore tasks whose cells are already in the run's record
    #: (requires ``run_dir``): the Ctrl-C-then-rerun recovery path.
    resume: bool = False

    def __post_init__(self) -> None:
        from repro.migration.registry import available_policies

        if not self.policies:
            raise ValueError("need at least one policy")
        known = set(available_policies()) | {"opt"}
        unknown = [name for name in self.policies if name not in known]
        if unknown:
            raise ValueError(
                f"unknown policies {unknown}; choose from {sorted(known)}"
            )
        for policy in self.policies:
            # "stack" must fail fast on a non-stack-replayable policy.
            resolve_engine(self.engine, policy)
        if not self.capacity_fractions:
            raise ValueError("need at least one capacity fraction")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.resume and self.run_dir is None:
            raise ValueError("resume requires a run_dir to resume from")
        if self.scenarios:
            from repro.scenarios.library import scenario_names

            known_scenarios = set(scenario_names())
            unknown = [
                name for name in self.scenarios if name not in known_scenarios
            ]
            if unknown:
                raise ValueError(
                    f"unknown scenarios {unknown}; "
                    f"choose from {sorted(known_scenarios)}"
                )

    @property
    def stream_keys(self) -> Tuple[Tuple[Optional[str], int], ...]:
        """(scenario or None, seed) pairs: one prepared stream each."""
        scenarios: Tuple[Optional[str], ...] = self.scenarios or (None,)
        return tuple(
            (scenario, seed) for scenario in scenarios for seed in self.seeds
        )

    @property
    def n_cells(self) -> int:
        """Number of grid cells."""
        return (
            len(self.policies)
            * len(self.capacity_fractions)
            * len(self.stream_keys)
        )


def log_spaced_fractions(
    count: int,
    low: float = DEFAULT_FRACTION_RANGE[0],
    high: float = DEFAULT_FRACTION_RANGE[1],
) -> Tuple[float, ...]:
    """``count`` log-spaced capacity fractions in ``[low, high]``."""
    if count < 1:
        raise ValueError("need at least one capacity point")
    if count == 1:
        return (low * (high / low) ** 0.5,)
    ratio = (high / low) ** (1.0 / (count - 1))
    return tuple(low * ratio**i for i in range(count))


#: One prepared stream's identity: (scenario name or None, seed).
StreamKey = Tuple[Optional[str], int]

#: One worker task: a (stream, policy) group and the capacity fractions
#: it covers -- the full fraction grid in one stack-engine scan, or a
#: single fraction per DES task.
SweepTask = Tuple[StreamKey, str, Tuple[float, ...], Optional[float], bool]


def cell_seed(seed: int, scenario: Optional[str], policy: str, fraction: float) -> int:
    """Deterministic per-cell RNG seed for stochastic policies.

    Every (stream, policy, capacity) cell must draw an independent
    victim stream -- the registry default would hand each cell the same
    ``seed=0`` RNG.  Hashing keeps the derivation stable across runs and
    processes (unlike ``hash()``, which PYTHONHASHSEED perturbs).
    """
    label = f"{scenario}:{seed}:{policy}:{fraction!r}"
    digest = hashlib.blake2s(label.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def task_label(task: SweepTask) -> str:
    """Human-readable task name (fault-point label, retry jitter key)."""
    key, policy, fractions, _, _ = task
    scenario, seed = key
    frac = ",".join(f"{fraction:g}" for fraction in fractions)
    return f"{scenario or 'classic'}:s{seed}:{policy}:{frac}"


@dataclass(frozen=True)
class SweepRow:
    """One replayed grid cell."""

    seed: int
    policy: str
    capacity_fraction: float
    capacity_bytes: int
    metrics: HSMMetrics
    #: Scenario the cell replayed, None for the classic workload grid.
    scenario: Optional[str] = None
    #: Executions its task consumed (1 = first try succeeded).
    attempts: int = 1
    #: ``ok`` | ``retried`` -- degraded cells have no row at all; they
    #: appear in :attr:`SweepResult.failed_cells` instead.
    status: str = "ok"


@dataclass(frozen=True)
class FailedCell:
    """One grid cell whose task exhausted its retries."""

    seed: int
    policy: str
    capacity_fraction: float
    scenario: Optional[str]
    attempts: int
    error: str


def row_to_dict(row: SweepRow) -> dict:
    """A SweepRow as a plain dict (the form the run record's cells take)."""
    return dataclasses.asdict(row)


def _row_from_cell(cell: dict) -> SweepRow:
    """Rebuild a SweepRow from its run-record cell, bit-identically.

    JSON floats round-trip exactly (``repr`` shortest-float), so a
    resumed row equals the row the original run computed.
    """
    values = dict(cell["values"])
    capacity_bytes = values.pop("capacity_bytes")
    meta = cell.get("meta") or {}
    return SweepRow(
        seed=int(cell["seed"]),
        policy=cell["policy"],
        capacity_fraction=float(cell["capacity_fraction"]),
        capacity_bytes=int(capacity_bytes),
        metrics=HSMMetrics(**values),
        scenario=cell.get("scenario"),
        attempts=int(meta.get("attempts", 1)),
        status=meta.get("status", "ok"),
    )


@dataclass
class SweepResult:
    """Everything a sweep produced."""

    config: SweepConfig
    rows: List[SweepRow]
    prepare_seconds: float
    replay_seconds: float
    #: Referenced-store bytes per prepared stream key (scenario, seed).
    total_bytes: Dict["StreamKey", int] = field(default_factory=dict)
    #: Grid cells served by the one-pass stack engine vs per-cell DES.
    stack_cells: int = 0
    des_cells: int = 0
    #: Cells whose task exhausted its retries (degraded, not raised).
    failed_cells: List[FailedCell] = field(default_factory=list)
    #: Tasks executed this run / restored from the run record / failed.
    tasks_executed: int = 0
    tasks_resumed: int = 0
    tasks_failed: int = 0
    #: Extra attempts consumed beyond each task's first try.
    retries: int = 0
    #: Checkpoint run directory (None when checkpointing was off).
    run_path: Optional[str] = None

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock (stream preparation + parallel replay)."""
        return self.prepare_seconds + self.replay_seconds

    def aggregated(self) -> Dict[tuple, HSMMetrics]:
        """Seed-summed metrics per grid cell.

        Keys are ``(policy, capacity_fraction)`` for the classic
        single-workload grid and ``(scenario, policy, capacity_fraction)``
        when the sweep covered scenarios.  Every counter field sums
        across seeds; ``span_seconds`` is a duration, so the grid cell
        keeps the longest seed's span.  Failed cells contribute nothing:
        a cell with every seed failed is absent from the result.
        """
        counter_names = [
            field.name
            for field in dataclasses.fields(HSMMetrics)
            if field.name != "span_seconds"
        ]
        merged: Dict[tuple, HSMMetrics] = {}
        for row in self.rows:
            key: tuple = (row.policy, row.capacity_fraction)
            if row.scenario is not None:
                key = (row.scenario,) + key
            bucket = merged.setdefault(key, HSMMetrics())
            for name in counter_names:
                setattr(bucket, name, getattr(bucket, name) + getattr(row.metrics, name))
            bucket.span_seconds = max(bucket.span_seconds, row.metrics.span_seconds)
        return merged

    def _cell_health(self) -> Tuple[Dict[tuple, List[str]], Dict[tuple, int]]:
        """Row statuses and failed-seed counts per (scenario?, policy, frac)."""
        statuses: Dict[tuple, List[str]] = {}
        for row in self.rows:
            key: tuple = (row.policy, row.capacity_fraction)
            if row.scenario is not None:
                key = (row.scenario,) + key
            statuses.setdefault(key, []).append(row.status)
        failed: Dict[tuple, int] = {}
        for cell in self.failed_cells:
            key = (cell.policy, cell.capacity_fraction)
            if cell.scenario is not None:
                key = (cell.scenario,) + key
            failed[key] = failed.get(key, 0) + 1
        return statuses, failed

    def render(self) -> str:
        """The Section 6 comparison table over the whole grid."""
        from repro.analysis.render import TextTable

        scenarios = self.config.scenarios
        headers = ["policy", "capacity", "miss ratio", "capacity-miss",
                   "person-min/day", "status"]
        if scenarios:
            headers.insert(0, "scenario")
        table = TextTable(
            headers,
            title=(
                f"Section 6 sweep: {len(self.config.policies)} policies x "
                f"{len(self.config.capacity_fractions)} capacities x "
                + (f"{len(scenarios)} scenarios x " if scenarios else "")
                + f"{len(self.config.seeds)} seeds (scale {self.config.scale})"
            ),
        )
        merged = self.aggregated()
        statuses, failed = self._cell_health()
        n_seeds = len(self.config.seeds)
        for scenario in scenarios or (None,):
            for policy in self.config.policies:
                for fraction in self.config.capacity_fractions:
                    key: tuple = (policy, fraction)
                    if scenario is not None:
                        key = (scenario,) + key
                    n_failed = failed.get(key, 0)
                    if n_failed:
                        status = f"failed({n_failed}/{n_seeds})"
                    elif "retried" in statuses.get(key, ()):
                        status = "retried"
                    else:
                        status = "ok"
                    metrics = merged.get(key)
                    if metrics is None:
                        cells = [policy, f"{fraction:.3%}", "--", "--", "--",
                                 status]
                    else:
                        n_ok = max(n_seeds - n_failed, 1)
                        per_seed = metrics.person_minutes_per_day() / n_ok
                        cells = [
                            policy,
                            f"{fraction:.3%}",
                            f"{metrics.read_miss_ratio:.4f}",
                            f"{metrics.capacity_miss_ratio:.4f}",
                            f"{per_seed:.2f}",
                            status,
                        ]
                    if scenario is not None:
                        cells.insert(0, scenario)
                    table.add_row(*cells)
        lines = [table.render()]
        lines.append(
            f"prepare {self.prepare_seconds:.1f}s + replay {self.replay_seconds:.1f}s "
            f"({self.config.n_cells} cells: {self.stack_cells} stack-engine + "
            f"{self.des_cells} DES, {self.config.workers} workers)"
        )
        if self.tasks_resumed or self.retries or self.failed_cells:
            n_tasks = self.tasks_executed + self.tasks_resumed + self.tasks_failed
            lines.append(
                f"resilience: {self.tasks_executed} tasks run + "
                f"{self.tasks_resumed} resumed from checkpoints + "
                f"{self.tasks_failed} failed (of {n_tasks}), "
                f"{self.retries} retries"
            )
        if self.failed_cells:
            lines.append(
                f"WARNING: {len(self.failed_cells)} cells failed after "
                f"retries were exhausted (see status column)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Worker side

#: (scenario, seed) -> (store path, referenced-store bytes).  The
#: initializer payload is strings and ints only -- never arrays: each
#: worker memory-maps the shared shards on first use, so the OS page
#: cache holds one copy of every stream regardless of worker count.
_WORKER_STORES: Dict[StreamKey, Tuple[str, int]] = {}

#: Per-process memmapped batch lists, opened lazily per stream key.
_WORKER_BATCHES: Dict[StreamKey, List[EventBatch]] = {}


def _init_worker(stores: Dict[StreamKey, Tuple[str, int]]) -> None:
    global _WORKER_STORES, _WORKER_BATCHES
    _WORKER_STORES = stores
    _WORKER_BATCHES = {}


def _open_stream(key: StreamKey) -> Tuple[List[EventBatch], int]:
    """Memmapped batches (cached per process) for one stream's store."""
    path, total_bytes = _WORKER_STORES[key]
    batches = _WORKER_BATCHES.get(key)
    if batches is None:
        batches = TraceStore.open(path).batches()
        _WORKER_BATCHES[key] = batches
    return batches, total_bytes


def _run_cells(task: SweepTask) -> List[SweepRow]:
    fault_point("worker-task", task_label(task))
    key = task[0]
    return _run_cells_with({key: _open_stream(key)}, task)


def _run_cells_with(
    streams: Dict[StreamKey, Tuple[List[EventBatch], int]],
    task: SweepTask,
) -> List[SweepRow]:
    """Replay one task: every fraction of a stack group, or one DES cell."""
    key, policy, fractions, writeback_delay, use_stack = task
    scenario, seed = key
    batches, total_bytes = streams[key]
    capacities = [
        max(int(total_bytes * fraction), 1) for fraction in fractions
    ]
    if use_stack:
        rows = multi_capacity_replay(
            batches, policy, capacities, writeback_delay=writeback_delay
        )
    else:
        rows = [
            replay_policy(
                batches,
                policy,
                capacity,
                writeback_delay=writeback_delay,
                policy_seed=cell_seed(seed, scenario, policy, fraction),
            )
            for fraction, capacity in zip(fractions, capacities)
        ]
    return [
        SweepRow(
            seed=seed,
            policy=policy,
            capacity_fraction=fraction,
            capacity_bytes=capacity,
            metrics=metrics,
            scenario=scenario,
        )
        for fraction, capacity, metrics in zip(fractions, capacities, rows)
    ]


# ---------------------------------------------------------------------------
# Parent side


def _seed_config(config: SweepConfig, seed: int):
    from repro.workload.config import WorkloadConfig

    kwargs = {"scale": config.scale, "seed": seed, "fill_latencies": False}
    if config.duration_days is not None:
        kwargs["duration_seconds"] = config.duration_days * DAY
    return WorkloadConfig(**kwargs)


def _prepare_stores(
    config: SweepConfig, cache_dir: str
) -> Dict[StreamKey, Tuple[str, int]]:
    """Per-stream prepared stores: (scenario, seed) -> (path, bytes).

    Classic cells prepare the single-workload HSM stream
    (config-addressed); scenario cells compose the archetype's
    multi-tenant stream through the scenario cache (scenario-hash
    addressed, with per-component stores shared underneath).  The
    returned payload is what the pool initializer ships to workers, so
    it must stay plain strings and ints -- no ndarrays (the whole point
    of the store is that workers memmap instead of unpickling).

    Cached slots are validated on the way in (shards present at their
    recorded sizes); a damaged slot is quarantined and regenerated, so
    a flipped bit or truncated shard degrades to a regeneration instead
    of a mid-sweep crash.
    """
    stores: Dict[StreamKey, Tuple[str, int]] = {}
    for key in config.stream_keys:
        scenario, seed = key
        if scenario is None:
            store = open_or_generate(
                _seed_config(config, seed),
                cache_dir,
                variant="hsm",
                chunk_size=config.chunk_size,
            )
        else:
            from repro.scenarios.cache import compose_cached
            from repro.scenarios.library import build_scenario

            spec = build_scenario(
                scenario,
                scale=config.scale,
                seed=seed,
                days=config.duration_days,
            )
            store = compose_cached(
                spec,
                cache_dir,
                variant="scenario-hsm",
                chunk_size=config.chunk_size,
            )
        total = store.total_bytes
        if total is None:
            raise ValueError(f"store {store.path} lacks referenced-store bytes")
        stores[key] = (str(store.path), total)
    return stores


def _build_tasks(config: SweepConfig) -> Tuple[List[SweepTask], int]:
    """The task list: one per DES cell, one per stack-engine group."""
    tasks: List[SweepTask] = []
    stack_cells = 0
    for key in config.stream_keys:
        for policy in config.policies:
            if resolve_engine(config.engine, policy):
                tasks.append(
                    (key, policy, config.capacity_fractions,
                     config.writeback_delay, True)
                )
                stack_cells += len(config.capacity_fractions)
            else:
                tasks.extend(
                    (key, policy, (fraction,),
                     config.writeback_delay, False)
                    for fraction in config.capacity_fractions
                )
    return tasks, stack_cells


def _open_run_record(
    config: SweepConfig, run_dir: Path, tasks: List[SweepTask]
) -> Tuple[RunRecord, Dict[int, List[SweepRow]]]:
    """A fresh ``in-progress`` record for this run, and the rows it restores.

    ``created_at`` survives from any record already in ``run_dir``, so a
    rerun updates one logical run.  With ``resume`` every task whose
    cells are all in that record is restored from it, and those cells
    carry over into the new record; every other task starts over.
    Registry imports stay local: :mod:`repro.registry.record` imports
    this package's sibling :mod:`repro.engine.resilience`.
    """
    from repro.registry.record import (
        RunRecord,
        cell_key,
        default_code_versions,
        load_run_record,
        utcnow,
    )

    previous = load_run_record(run_dir)
    restored: Dict[int, List[SweepRow]] = {}
    kept: List[dict] = []
    if previous is not None and config.resume:
        by_cell = {row.get("cell"): row for row in previous.rows}
        for index, ((scenario, seed), policy, fractions, _, _) in enumerate(tasks):
            cells = [
                by_cell.get(cell_key(scenario, seed, policy, fraction))
                for fraction in fractions
            ]
            if None not in cells:
                restored[index] = [_row_from_cell(cell) for cell in cells]
                kept.extend(cells)
    record = RunRecord(
        kind="sweep",
        config=dataclasses.asdict(config),
        config_hash=sweep_config_hash(config),
        rows=sorted(kept, key=lambda row: row["cell"]),
        status="in-progress",
        created_at=getattr(previous, "created_at", None) or utcnow(),
        code_versions=default_code_versions(),
    )
    return record, restored


def checkpoint_task(
    run_dir: Path, record: RunRecord, rows: List[SweepRow]
) -> None:
    """Add one finished task's cells to the record and rewrite it.

    A failed task adds no cells (its grid cells are in the record's
    ``failed_cells`` counter instead).  The rewrite is atomic, so a
    crash leaves the previous checkpoint intact.
    """
    from repro.registry.record import (
        sweep_rows_to_record_rows,
        write_run_record,
    )

    record.rows = sorted(
        record.rows
        + sweep_rows_to_record_rows([row_to_dict(row) for row in rows]),
        key=lambda row: row["cell"],
    )
    write_run_record(run_dir, record)


def write_run_summary(run_dir: Path, record: RunRecord, status: str) -> None:
    """Set the run's status and rewrite its record: ``in-progress`` at
    start, ``complete``/``degraded``/``interrupted`` at the end."""
    from repro.registry.record import write_run_record

    record.status = status
    write_run_record(run_dir, record)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full grid; parallel across cells when ``workers > 1``.

    Never raises for worker faults: crashed, hung, or repeatedly failing
    tasks retry under the config's :class:`RetryPolicy` budget and then
    degrade into ``failed_cells``.  ``KeyboardInterrupt`` still
    propagates -- after terminating the pool, cleaning the temp cache
    dir, and (with a ``run_dir``) leaving the run record at
    ``interrupted``, so a rerun with ``resume=True`` recovers at task
    granularity.  SIGTERM takes the same path (via
    :func:`sigterm_as_interrupt`), so an orchestrator stopping the
    process gets the same clean checkpoint as a Ctrl-C; a SIGKILL leaves
    the record at ``in-progress`` with every task checkpointed so far.
    """
    with sigterm_as_interrupt():
        return _run_sweep(config)


def _run_sweep(config: SweepConfig) -> SweepResult:
    start = _time.perf_counter()
    tasks, stack_cells = _build_tasks(config)
    labels = [task_label(task) for task in tasks]

    # Mutated by the per-task completion hook below; read by both the
    # success path and the KeyboardInterrupt record.
    results: Dict[int, List[SweepRow]] = {}
    failed_cells: List[FailedCell] = []
    counters = {"executed": 0, "failed": 0, "retries": 0}
    prepared: Optional[float] = None

    run_dir: Optional[Path] = None
    record: Optional[RunRecord] = None
    if config.run_dir is not None:
        run_dir = Path(config.run_dir) / f"sweep-{sweep_config_hash(config)}"
        record, results = _open_run_record(config, run_dir, tasks)
    resumed = len(results)

    def stamp(now: float) -> None:
        """Refresh the record's counters and timings as of ``now``."""
        ready = prepared if prepared is not None else now
        record.metrics = {
            "n_tasks": len(tasks),
            "tasks_executed": counters["executed"],
            "tasks_resumed": resumed,
            "tasks_failed": counters["failed"],
            "retries": counters["retries"],
            "failed_cells": [dataclasses.asdict(cell) for cell in failed_cells],
            "stack_cells": stack_cells,
            "des_cells": config.n_cells - stack_cells,
            "prepare_seconds": ready - start,
            "replay_seconds": now - ready,
        }
        record.wall_seconds = now - start

    tempdir: Optional[tempfile.TemporaryDirectory] = None
    if config.cache_dir is None:
        tempdir = tempfile.TemporaryDirectory(
            prefix="repro-sweep-", ignore_cleanup_errors=True
        )
        cache_dir = tempdir.name
    else:
        cache_dir = config.cache_dir

    try:
        if record is not None:
            stamp(_time.perf_counter())
            write_run_summary(run_dir, record, "in-progress")
        stores = _prepare_stores(config, cache_dir)
        prepared = _time.perf_counter()

        # Resume: restored tasks already have rows; run the rest.
        todo = [index for index in range(len(tasks)) if index not in results]
        retry = RetryPolicy(
            max_retries=config.max_retries,
            task_timeout=config.task_timeout,
            backoff=config.retry_backoff,
        )

        def on_complete(outcome: TaskOutcome) -> None:
            index = todo[outcome.index]
            counters["retries"] += outcome.attempts - 1
            if outcome.status == "failed":
                counters["failed"] += 1
                (scenario, seed), policy, fractions, _, _ = tasks[index]
                failed_cells.extend(
                    FailedCell(
                        seed=seed, policy=policy, capacity_fraction=fraction,
                        scenario=scenario, attempts=outcome.attempts,
                        error=outcome.error or "",
                    )
                    for fraction in fractions
                )
            else:
                counters["executed"] += 1
                results[index] = [
                    dataclasses.replace(
                        row, attempts=outcome.attempts, status=outcome.status
                    )
                    for row in outcome.result
                ]
            if record is not None:
                stamp(_time.perf_counter())
                checkpoint_task(run_dir, record, results.get(index, []))
                fault_point("parent-checkpoint", labels[index])

        if config.workers == 1:
            # Open in-process; memmapped batches stay locals so nothing
            # pins every seed's pages for the process lifetime.
            opened = {
                key: (TraceStore.open(path).batches(), total)
                for key, (path, total) in stores.items()
            }

            def serial_worker(task: SweepTask) -> List[SweepRow]:
                fault_point("worker-task", task_label(task))
                return _run_cells_with(opened, task)

            run_supervised(
                serial_worker,
                [tasks[index] for index in todo],
                workers=1,
                retry=retry,
                labels=[labels[index] for index in todo],
                on_complete=on_complete,
            )
        else:
            run_supervised(
                _run_cells,
                [tasks[index] for index in todo],
                workers=config.workers,
                retry=retry,
                labels=[labels[index] for index in todo],
                initializer=_init_worker,
                initargs=(stores,),
                on_complete=on_complete,
            )

        rows = [
            row
            for index in range(len(tasks))
            for row in results.get(index, [])
        ]
        done = _time.perf_counter()

        result = SweepResult(
            config=config,
            rows=rows,
            prepare_seconds=prepared - start,
            replay_seconds=done - prepared,
            total_bytes={key: total for key, (_, total) in stores.items()},
            stack_cells=stack_cells,
            des_cells=config.n_cells - stack_cells,
            failed_cells=failed_cells,
            tasks_executed=counters["executed"],
            tasks_resumed=resumed,
            tasks_failed=counters["failed"],
            retries=counters["retries"],
            run_path=str(run_dir) if run_dir is not None else None,
        )
        if record is not None:
            stamp(done)
            write_run_summary(
                run_dir, record, "degraded" if failed_cells else "complete"
            )
        return result
    except KeyboardInterrupt:
        # The supervisor already terminated (not joined) its pool on the
        # way out; leave the record at ``interrupted`` so a rerun with
        # resume=True picks up from the checkpointed tasks.
        if record is not None:
            stamp(_time.perf_counter())
            write_run_summary(run_dir, record, "interrupted")
        raise
    finally:
        if tempdir is not None:
            tempdir.cleanup()
