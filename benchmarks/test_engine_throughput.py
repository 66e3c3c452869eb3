"""Engine micro-benchmark: batch replay vs the old per-record loop.

Measures events/sec from a generated trace to HSM metrics along both
paths -- the record walk kept as the tests' oracle (``events_from_trace``
+ the per-tuple ``EventHSM.run``) and the columnar engine
(``prepare_stream`` + batch ``HSM.replay``) -- and gates the engine at
>= 5x.
"""

import dataclasses
import os
import time

import pytest

#: CI runners have noisy wall-clocks; REPRO_BENCH_RELAXED=1 keeps the
#: benchmark running (and the metric-identity check enforced) but skips
#: the hard timing gates.
RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

from repro.engine import prepare_stream, replay_policy
from repro.hsm.manager import HSMConfig
from repro.migration.registry import make_policy
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace
from tests.oracles.hsm import EventHSM, events_from_trace

SCALE = 0.05
CAPACITY_FRACTION = 0.05
POLICY = "lru"


@pytest.fixture(scope="module")
def throughput_trace():
    return generate_trace(WorkloadConfig(scale=SCALE, seed=11))


def _best_of(fn, rounds=3):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def test_batch_replay_is_5x_faster_than_record_loop(throughput_trace):
    trace = throughput_trace
    capacity = int(trace.namespace.total_bytes * CAPACITY_FRACTION)

    legacy_seconds, legacy_metrics = _best_of(
        lambda: EventHSM(
            HSMConfig.with_capacity(capacity), make_policy(POLICY)
        ).run(events_from_trace(trace))
    )
    engine_seconds, engine_metrics = _best_of(
        lambda: replay_policy(prepare_stream(trace), POLICY, capacity)
    )

    n_events = legacy_metrics.reads + legacy_metrics.writes
    legacy_rate = n_events / legacy_seconds
    engine_rate = n_events / engine_seconds
    speedup = legacy_seconds / engine_seconds
    print(
        f"\nper-record loop: {legacy_rate:10,.0f} events/s ({legacy_seconds:.2f}s)"
        f"\nbatch replay:    {engine_rate:10,.0f} events/s ({engine_seconds:.2f}s)"
        f"\nspeedup:         {speedup:.1f}x over {n_events} deduped events"
    )

    # Same stream, same policy, same capacity: identical metrics ...
    assert dataclasses.asdict(engine_metrics) == dataclasses.asdict(legacy_metrics)
    # ... at one-fifth the cost or better.
    if not RELAXED:
        assert speedup >= 5.0, f"batch replay only {speedup:.1f}x faster"


def test_prepared_stream_amortizes_across_cells(throughput_trace):
    """Sweeps reuse one prepared stream: re-deriving the reference stream
    per cell (the old pattern) must cost more than replaying it."""
    trace = throughput_trace
    capacity = int(trace.namespace.total_bytes * CAPACITY_FRACTION)
    prep_seconds, batches = _best_of(lambda: prepare_stream(trace))
    replay_seconds, _ = _best_of(
        lambda: replay_policy(batches, POLICY, capacity)
    )
    legacy_prep_seconds, _ = _best_of(lambda: events_from_trace(trace))
    print(
        f"\nstream prep: engine {prep_seconds:.3f}s vs legacy "
        f"{legacy_prep_seconds:.3f}s; replay {replay_seconds:.3f}s"
    )
    if not RELAXED:
        assert prep_seconds * 10 < legacy_prep_seconds
        assert prep_seconds < replay_seconds
