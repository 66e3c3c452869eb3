"""The columnar event-batch engine.

One streaming pipeline from trace synthesis through HSM replay to the
Section 6 sweeps: producers yield :class:`EventBatch` chunks, transforms
are vectorized per batch, and the sweep runner fans grid cells out over
worker processes.
"""

from repro.engine.batch import (
    DEFAULT_CHUNK_SIZE,
    DEVICE_ORDER,
    EventBatch,
    device_at,
    device_index,
    rechunk,
)
from repro.engine.records import records_from_batch, records_from_batches
from repro.engine.replay import (
    build_policy,
    capacity_sweep_batches,
    prepare_stream,
    replay_policy,
)
from repro.engine.stackdist import (
    STACK_POLICIES,
    StackEngineError,
    multi_capacity_replay,
    resolve_engine,
    supports_policy,
)
from repro.engine.resilience import (
    FaultInjected,
    RetryPolicy,
    TaskOutcome,
    fault_point,
    run_supervised,
    sigterm_as_interrupt,
    sweep_config_hash,
)
from repro.engine.store import (
    StoreError,
    TraceStore,
    config_hash,
    open_or_generate,
    quarantine_slot,
    store_dir_for,
    sweep_stale_staging,
)
from repro.engine.stream import (
    BlockDeduper,
    collect,
    dedupe_blocks,
    prepare_batch,
    strip_errors,
)
from repro.engine.sweep import (
    FailedCell,
    SweepConfig,
    SweepResult,
    SweepRow,
    log_spaced_fractions,
    run_sweep,
)

__all__ = [
    "BlockDeduper",
    "DEFAULT_CHUNK_SIZE",
    "DEVICE_ORDER",
    "EventBatch",
    "FailedCell",
    "FaultInjected",
    "RetryPolicy",
    "STACK_POLICIES",
    "StackEngineError",
    "StoreError",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "TaskOutcome",
    "TraceStore",
    "build_policy",
    "config_hash",
    "fault_point",
    "capacity_sweep_batches",
    "collect",
    "dedupe_blocks",
    "device_at",
    "device_index",
    "log_spaced_fractions",
    "multi_capacity_replay",
    "open_or_generate",
    "prepare_batch",
    "prepare_stream",
    "quarantine_slot",
    "rechunk",
    "records_from_batch",
    "records_from_batches",
    "replay_policy",
    "resolve_engine",
    "run_supervised",
    "run_sweep",
    "sigterm_as_interrupt",
    "store_dir_for",
    "strip_errors",
    "supports_policy",
    "sweep_config_hash",
    "sweep_stale_staging",
]
