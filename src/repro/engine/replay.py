"""Batch-oriented HSM replay: the engine-side policy runners.

They move :class:`~repro.engine.batch.EventBatch`es end to end through
:meth:`HSM.feed <repro.hsm.manager.HSM.feed>`: the stream is never
expanded into per-event tuples, OPT builds its future schedule with one
vectorized pass, and a prepared stream can be replayed against many
(policy, capacity) cells without re-deriving it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.engine import stream
from repro.engine.batch import EventBatch
from repro.hsm.manager import HSM, HSMConfig
from repro.hsm.metrics import HSMMetrics
from repro.migration.opt import OptimalPolicy
from repro.migration.policy import MigrationPolicy
from repro.migration.registry import make_policy
from repro.namespace.model import Namespace


def prepare_stream(
    trace, deduped: bool = True, chunk_size: int = 65_536
) -> List[EventBatch]:
    """Materialize a trace's HSM reference stream as batches.

    The list is compact (a few numpy arrays per chunk) and reusable
    across every cell of a sweep; OPT also needs the whole stream ahead
    of time for its schedule.
    """
    # Looked up on the module at call time, so a wrapper installed on
    # ``stream.hsm_batches_from_stream`` (tracing) sees every prep.
    return stream.collect(stream.hsm_batches_from_stream(
        trace.iter_batches(chunk_size=chunk_size), deduped=deduped
    ))


def build_policy(
    policy_name: str,
    batches: Iterable[EventBatch],
    seed: Optional[int] = None,
) -> MigrationPolicy:
    """Instantiate a policy by name; OPT gets the full future schedule.

    ``seed`` reseeds stochastic policies (see
    :func:`repro.migration.registry.make_policy`); deterministic
    policies and OPT ignore it.
    """
    if policy_name == "opt":
        return OptimalPolicy.from_batches(list(batches))
    return make_policy(policy_name, seed=seed)


def replay_policy(
    batches: List[EventBatch],
    policy_name: str,
    capacity_bytes: int,
    namespace: Optional[Namespace] = None,
    writeback_delay: Optional[float] = 4 * 3600.0,
    prefetch: bool = False,
    policy_seed: Optional[int] = None,
) -> HSMMetrics:
    """Run one named policy over a prepared batch stream."""
    from repro.verify.invariants import invariant_context

    policy = build_policy(policy_name, batches, seed=policy_seed)
    config = HSMConfig.with_capacity(
        capacity_bytes, writeback_delay=writeback_delay, prefetch=prefetch
    )
    hsm = HSM(config, policy, namespace=namespace)
    with invariant_context(
        engine="des", policy=policy_name, capacity_bytes=capacity_bytes,
        writeback_delay=writeback_delay, prefetch=prefetch,
        policy_seed=policy_seed,
    ):
        return hsm.replay(batches)


def capacity_sweep_batches(
    batches: List[EventBatch],
    policy_name: str,
    total_bytes: int,
    fractions: Iterable[float],
    namespace: Optional[Namespace] = None,
    engine: str = "auto",
) -> Iterator[Tuple[float, HSMMetrics]]:
    """Miss ratio vs capacity over a prepared stream (Section 2.3 curve).

    ``engine`` picks the replay machinery: ``auto`` computes the whole
    curve in one stack-engine scan when the policy qualifies (see
    :mod:`repro.engine.stackdist`) and falls back to one DES replay per
    capacity otherwise; ``stack`` / ``des`` force one side.  Both
    engines are exact and produce identical metrics.
    """
    from repro.engine.stackdist import multi_capacity_replay, resolve_engine

    fractions = list(fractions)
    if resolve_engine(engine, policy_name):
        capacities = [
            max(int(total_bytes * fraction), 1) for fraction in fractions
        ]
        rows = multi_capacity_replay(batches, policy_name, capacities)
        yield from zip(fractions, rows)
        return
    for fraction in fractions:
        capacity = max(int(total_bytes * fraction), 1)
        yield fraction, replay_policy(
            batches, policy_name, capacity, namespace=namespace
        )
