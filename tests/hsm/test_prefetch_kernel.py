"""Prefetch on the batch kernel equals the per-event oracle.

``HSM.feed`` settles a run of read hits against the outstanding
prefetches when the run ends, cancels the prefetch of every file a
demand stage, a write insert or a prefetch insert evicts, and stages
the siblings of every read miss, including a bypassed (oversized) read.
The per-event :class:`~tests.oracles.hsm.EventHSM` does each of these
one reference at a time; after every batch the two must agree on the
metrics, the outstanding prefetches, the cache's residency, dirty set
and usage, and the policy's resident metadata.
"""

import dataclasses
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import EventBatch
from repro.hsm.manager import HSM, HSMConfig
from repro.migration.opt import OptimalPolicy
from repro.migration.registry import make_policy
from tests.oracles.hsm import EventHSM, opt_from_events

POLICIES = ("lru", "stp", "fifo", "largest-first", "random", "opt", "saac")


class _Directories:
    """A namespace of files in sequence order, grouped into directories:
    a file's prefetch siblings are the files after it in its directory."""

    def __init__(self, sizes, dir_sizes):
        self.files = [
            SimpleNamespace(file_id=i, size=size) for i, size in enumerate(sizes)
        ]
        self._dir_end = []
        for n in dir_sizes:
            self._dir_end.extend([len(self._dir_end) + n] * n)

    def sibling_after(self, entry):
        following = entry.file_id + 1
        if following < self._dir_end[entry.file_id]:
            return self.files[following]
        return None


def _state(hsm):
    cache = hsm.cache
    return (
        dataclasses.asdict(hsm.metrics),
        set(hsm.prefetcher._outstanding),
        list(cache._sizes.items()),
        set(cache._dirty),
        cache.usage_bytes,
        list(cache.policy._resident.values()),
    )


def _replay_both(events, chunks, capacity, namespace, policy="lru",
                 writeback_delay=4 * 3600.0):
    """Feed ``chunks`` to an HSM and the same events to the oracle; the
    states must agree after every batch and after finalize."""
    config = HSMConfig.with_capacity(
        capacity, writeback_delay=writeback_delay, prefetch=True
    )
    batches = [EventBatch.from_columns(*zip(*chunk)) for chunk in chunks]
    if policy == "opt":
        fed_policy = OptimalPolicy.from_batches(batches)
        handled_policy = opt_from_events((fid, t) for fid, _, t, _ in events)
    else:
        fed_policy = make_policy(policy, seed=3)
        handled_policy = make_policy(policy, seed=3)
    fed = HSM(config, fed_policy, namespace=namespace)
    handled = EventHSM(config, handled_policy, namespace=namespace)
    for chunk, batch in zip(chunks, batches):
        fed.feed(batch)
        for event in chunk:
            handled.handle(event)
        assert _state(fed) == _state(handled)
    fed.finalize()
    handled.cache.flush_all()
    assert _state(fed) == _state(handled)
    return fed


def _cut(events, cuts):
    bounds = [0, *sorted(set(cuts)), len(events)]
    return [events[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _each_chunking(events, capacity, namespace, **kwargs):
    """Whole-batch, one-event and two-event chunkings; returns the last."""
    for size in (len(events), 1, 2):
        fed = _replay_both(
            events, _cut(events, range(size, len(events), size)),
            capacity, namespace, **kwargs,
        )
    return fed


@st.composite
def _workloads(draw):
    dir_sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n_files = sum(dir_sizes)
    sizes = draw(st.lists(st.integers(1, 200), min_size=n_files, max_size=n_files))
    # A second size per file (a rewrite at another length); some exceed
    # the cache and bypass it.
    other_sizes = draw(
        st.lists(st.integers(1, 3000), min_size=n_files, max_size=n_files)
    )
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, n_files - 1),
            st.integers(0, 5),          # 0: the file's other size
            st.integers(0, 2),          # 0: a write
            st.integers(0, 900),        # gap to the previous event
        ),
        min_size=1, max_size=120,
    ))
    events = []
    time = 0.0
    for file_id, which, kind, gap in rows:
        time += gap
        size = other_sizes[file_id] if which == 0 else sizes[file_id]
        events.append((file_id, size, time, kind == 0))
    cuts = draw(st.lists(st.integers(1, max(len(events) - 1, 1)), max_size=6))
    return SimpleNamespace(
        events=events,
        chunks=_cut(events, cuts),
        namespace=_Directories(sizes, dir_sizes),
        capacity=draw(st.integers(40, 2500)),
        writeback_delay=draw(st.sampled_from([None, 0.0, 600.0, 3600.0])),
        policy=draw(st.sampled_from(POLICIES)),
    )


@given(_workloads())
@settings(max_examples=150, deadline=None)
def test_batch_prefetch_matches_per_event_oracle(workload):
    _replay_both(
        workload.events, workload.chunks, workload.capacity,
        workload.namespace, policy=workload.policy,
        writeback_delay=workload.writeback_delay,
    )


# ---------------------------------------------------------------------------
# The orderings the per-event path handles one reference at a time


def _one_directory(n=10, size=10):
    return _Directories([size] * n, [n])


def test_write_evicted_prefetch_restaged_on_demand_is_no_hit():
    """A prefetched file that a write insert evicts, then a demand read
    stages again, is no prefetch when it is read next."""
    # Capacity 40 (high watermark 38, low 34): read 0 stages 0 and
    # prefetches 1, 2; re-reading 0 leaves 1 the least recent; the
    # write of 7 evicts 1; read 1 stages it on demand; its re-read hits.
    events = [
        (0, 10, 0.0, False),
        (0, 10, 1.0, False),
        (7, 10, 2.0, True),
        (1, 10, 3.0, False),
        (1, 10, 4.0, False),
    ]
    fed = _each_chunking(events, 40, _one_directory())
    metrics = fed.metrics
    assert metrics.read_misses == 2
    assert metrics.read_hits == 2
    assert metrics.prefetch_hits == 0
    assert 1 not in fed.prefetcher._outstanding


def test_prefetch_evicted_by_another_prefetch_is_no_hit():
    """A prefetched file that another prefetch's insert evicts is no
    longer outstanding; the prefetch that survives still counts."""
    # 0 prefetches 1, 2; 5's prefetches of 6, 7 evict 1, 2; 6 then hits
    # as a prefetch, while 1 misses and its re-read is a plain hit.
    events = [
        (0, 10, 0.0, False),
        (5, 10, 1.0, False),
        (6, 10, 2.0, False),
        (1, 10, 3.0, False),
        (1, 10, 4.0, False),
    ]
    fed = _each_chunking(events, 40, _one_directory())
    metrics = fed.metrics
    assert metrics.prefetch_hits == 1
    assert metrics.read_hits == 2


def test_bypassed_read_miss_triggers_prefetch():
    """An oversized read bypasses the cache but is still a read miss: it
    stages the file's siblings, and reading one is a prefetch hit."""
    events = [
        (0, 500, 0.0, False),   # larger than the cache: bypassed
        (1, 10, 1.0, False),
    ]
    fed = _each_chunking(events, 100, _one_directory())
    metrics = fed.metrics
    assert metrics.bypassed_reads == 1
    assert metrics.prefetches_issued == 2
    assert metrics.prefetch_hits == 1
    assert not fed.cache.is_resident(0)


def test_oversized_read_of_a_prefetched_file_counts_then_bypasses():
    """A resident, prefetched file read at a size beyond the capacity
    counts one prefetch hit, then bypasses and prefetches its siblings."""
    events = [
        (0, 10, 0.0, False),    # prefetches 1, 2
        (1, 500, 1.0, False),   # resident at 10 B, read at 500 B
        (1, 10, 2.0, False),
    ]
    fed = _each_chunking(events, 100, _one_directory())
    metrics = fed.metrics
    assert metrics.prefetch_hits == 1
    assert metrics.bypassed_reads == 1
    assert metrics.prefetches_issued == 3   # 1, 2, then 3
    assert metrics.read_hits == 1
