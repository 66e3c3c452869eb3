"""Stack-distance engine tests: the DES replay is the exactness oracle.

Every supported policy's one-pass multi-capacity rows must be identical
-- every counter, not approximately -- to per-capacity ``replay_policy``
runs, the same way the batch engine was pinned to the per-record path.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    STACK_POLICIES,
    StackEngineError,
    capacity_sweep_batches,
    multi_capacity_replay,
    prepare_stream,
    replay_policy,
    resolve_engine,
    supports_policy,
)
from repro.engine.batch import EventBatch
from repro.engine.stackdist import MAX_CAPACITIES_PER_PASS

#: Low / mid / high operating points plus a deliberately tiny capacity
#: that forces the oversized-file bypass path.
FRACTIONS = (0.002, 0.01, 0.03, 0.08)


@pytest.fixture(scope="module")
def stream(tiny_trace):
    return prepare_stream(tiny_trace)


@pytest.fixture(scope="module")
def capacities(tiny_trace):
    total = tiny_trace.namespace.total_bytes
    return [max(int(total * fraction), 1) for fraction in FRACTIONS]


def _batch(events):
    fids, sizes, times, writes = zip(*events)
    n = len(fids)
    return EventBatch(
        file_id=np.array(fids, dtype=np.int64),
        size=np.array(sizes, dtype=np.int64),
        time=np.array(times, dtype=np.float64),
        is_write=np.array(writes, dtype=bool),
        device=np.zeros(n, dtype=np.int8),
        error=np.zeros(n, dtype=np.int8),
    )


@pytest.mark.parametrize("policy", STACK_POLICIES)
def test_stack_rows_match_des_at_every_capacity(policy, stream, capacities):
    rows = multi_capacity_replay(stream, policy, capacities)
    assert len(rows) == len(capacities)
    for capacity, row in zip(capacities, rows):
        des = replay_policy(stream, policy, capacity)
        assert dataclasses.asdict(row) == dataclasses.asdict(des), (
            policy, capacity,
        )


@pytest.mark.parametrize("policy", ("lru", "fifo"))
def test_stack_matches_des_with_eager_writeback(policy, stream, capacities):
    rows = multi_capacity_replay(
        stream, policy, capacities, writeback_delay=None
    )
    for capacity, row in zip(capacities, rows):
        des = replay_policy(
            stream, policy, capacity, writeback_delay=None
        )
        assert dataclasses.asdict(row) == dataclasses.asdict(des)


def test_bypass_capacity_actually_bypasses(stream, capacities):
    """The tiny capacity point must exercise the oversized-file path --
    otherwise the bypass equivalence above is vacuous."""
    rows = multi_capacity_replay(stream, "lru", capacities)
    assert rows[0].bypassed_reads > 0 or rows[0].bypassed_writes > 0


def test_capacity_order_and_duplicates_are_preserved(stream, capacities):
    shuffled = [capacities[2], capacities[0], capacities[2], capacities[1]]
    rows = multi_capacity_replay(stream, "lru", shuffled)
    sorted_rows = multi_capacity_replay(stream, "lru", sorted(set(shuffled)))
    by_cap = dict(zip(sorted(set(shuffled)), sorted_rows))
    for capacity, row in zip(shuffled, rows):
        assert dataclasses.asdict(row) == dataclasses.asdict(by_cap[capacity])
    # Duplicate capacities yield equal but independent row objects.
    assert rows[0] is not rows[2]


def test_more_capacities_than_one_pass_allows(stream, capacities):
    """> 64 capacities run as multiple passes over the same stream."""
    lo, hi = capacities[1], capacities[-1]
    many = list(
        np.unique(np.linspace(lo, hi, MAX_CAPACITIES_PER_PASS + 7, dtype=np.int64))
    )
    assert len(many) > MAX_CAPACITIES_PER_PASS
    rows = multi_capacity_replay(stream, "fifo", many)
    for index in (0, len(many) // 2, len(many) - 1):
        (single,) = multi_capacity_replay(stream, "fifo", [many[index]])
        assert dataclasses.asdict(rows[index]) == dataclasses.asdict(single)


@pytest.mark.parametrize("policy", ("stp", "saac", "random", "opt"))
def test_unsupported_policies_are_rejected(policy, stream):
    assert not supports_policy(policy)
    with pytest.raises(StackEngineError, match="not stack-replayable"):
        multi_capacity_replay(stream, policy, [1000])
    with pytest.raises(StackEngineError):
        resolve_engine("stack", policy)
    # auto falls back to the DES instead of raising.
    assert resolve_engine("auto", policy) is False


def test_resolve_engine():
    assert resolve_engine("auto", "lru") is True
    assert resolve_engine("stack", "lru") is True
    assert resolve_engine("des", "lru") is False
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp", "lru")


def test_invalid_capacities_rejected(stream):
    with pytest.raises(ValueError, match="positive"):
        multi_capacity_replay(stream, "lru", [0])
    with pytest.raises(ValueError, match="positive"):
        multi_capacity_replay(stream, "lru", [-5, 1000])
    assert multi_capacity_replay(stream, "lru", []) == []


#: Reads ``(fid, size, time)`` whose recency keys differ by less than the
#: rounding of ``now - key`` at the eviction instant (2**26 s): ranking by
#: that difference tied two residents, and the DES broke the tie by
#: residency order while the stack engine orders by the key itself.
ROUNDING_STREAMS = {
    "lru": [(1, 40, 0.5), (0, 40, 1.0), (1, 40, 1.0 + 1e-9), (2, 20, 2.0**26),
            (0, 40, 2.0**26 + 1), (1, 40, 2.0**26 + 2)],
    "mru": [(3, 30, 0.5), (0, 40, 1.0 + 1e-9), (2, 20, 1.0 + 2e-9),
            (3, 30, 2.0**26), (1, 40, 2.0**26 + 1), (1, 40, 2.0**26 + 2)],
}


@pytest.mark.parametrize("policy", sorted(ROUNDING_STREAMS))
def test_des_ranks_by_key_not_rounded_age(policy):
    batch = _batch([(f, s, t, False) for f, s, t in ROUNDING_STREAMS[policy]])
    (stack,) = multi_capacity_replay([batch], policy, [100], writeback_delay=None)
    des = replay_policy([batch], policy, 100, writeback_delay=None)
    assert dataclasses.asdict(des) == dataclasses.asdict(stack)


def test_size_change_is_rejected():
    batch = _batch([(1, 10, 0.0, False), (1, 20, 1.0, False)])
    with pytest.raises(StackEngineError, match="changed size"):
        multi_capacity_replay([batch], "lru", [1000])


def test_invalid_size_raises_like_the_des():
    batch = _batch([(1, 10, 0.0, True), (2, -5, 1.0, False)])
    with pytest.raises(ValueError, match="file size must be positive"):
        multi_capacity_replay([batch], "lru", [1000])


# ---------------------------------------------------------------------------
# capacity_sweep_batches / engine selection (satellite: capacity edges)


def _sweep_dict(stream, total, fractions, engine):
    return {
        fraction: dataclasses.asdict(metrics)
        for fraction, metrics in capacity_sweep_batches(
            stream, "lru", total, fractions, engine=engine
        )
    }


def test_sweep_batches_engines_agree_on_edge_grids(tiny_trace, stream):
    total = tiny_trace.namespace.total_bytes
    largest = int(max(batch.size.max() for batch in stream))
    grids = (
        (0.03, 0.005, 0.005, 0.08),       # unsorted, with a duplicate
        (largest * 0.5 / total,)           # capacity < largest file: bypass
        + (0.02,),
        (0.015,),                          # single-capacity grid
    )
    for fractions in grids:
        stack = _sweep_dict(stream, total, fractions, "stack")
        des = _sweep_dict(stream, total, fractions, "des")
        assert stack == des, fractions


def test_sweep_batches_auto_uses_stack_for_qualifying_policies(
    tiny_trace, stream
):
    total = tiny_trace.namespace.total_bytes
    auto = _sweep_dict(stream, total, (0.01, 0.04), "auto")
    des = _sweep_dict(stream, total, (0.01, 0.04), "des")
    assert auto == des
    with pytest.raises(StackEngineError):
        list(
            capacity_sweep_batches(
                stream, "random", total, (0.01,), engine="stack"
            )
        )
