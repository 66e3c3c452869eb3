"""S6b -- ablations of the design choices Section 6 recommends.

* lazy write-back vs write-through ("write data to tape relatively
  quickly, and then mark the file as 'deleteable'"),
* sequential prefetch ("use the extra space to prefetch files which might
  be read shortly"),
* the 30 MB disk/tape placement threshold ("the dividing point ... is a
  subject for future research"),
* the STP time exponent (Smith's STP**1.4).
"""

import pytest
from conftest import report  # noqa: F401  (kept for parity with other benches)

from repro.engine import replay_policy
from repro.hsm import HSM, HSMConfig
from repro.migration.stp import SpaceTimePolicy
from repro.util.units import HOUR, MB


@pytest.fixture(scope="module")
def batches(bench_study):
    return bench_study.event_batches()


@pytest.fixture(scope="module")
def capacity(bench_study):
    return int(bench_study.trace.namespace.total_bytes * 0.03)


def test_ablation_lazy_writeback(benchmark, batches, capacity):
    """Lazy write-back saves tape writes by absorbing rewrites."""

    def run_lazy():
        return replay_policy(batches, "stp", capacity, writeback_delay=8 * HOUR)

    lazy = benchmark(run_lazy)
    eager = replay_policy(batches, "stp", capacity, writeback_delay=None)
    print(f"\nlazy:  tape writes {lazy.tape_writes}, absorbed {lazy.rewrites_absorbed}")
    print(f"eager: tape writes {eager.tape_writes}, absorbed {eager.rewrites_absorbed}")
    assert lazy.rewrites_absorbed > 0
    assert lazy.tape_writes < eager.tape_writes
    # Same read behaviour either way: laziness is free for reads.
    assert lazy.read_miss_ratio == pytest.approx(eager.read_miss_ratio, abs=0.01)


def test_ablation_prefetch(benchmark, batches, capacity, bench_study):
    """Sequential prefetch trades staged bytes for fewer read stalls."""
    namespace = bench_study.trace.namespace

    def run_prefetch():
        return replay_policy(
            batches, "stp", capacity, namespace=namespace, prefetch=True
        )

    fetched = benchmark.pedantic(run_prefetch, rounds=1, iterations=1)
    plain = replay_policy(batches, "stp", capacity, namespace=namespace)
    print(f"\nplain miss {plain.read_miss_ratio:.4f}; "
          f"prefetch miss {fetched.read_miss_ratio:.4f} "
          f"(accuracy {fetched.prefetch_accuracy():.1%}, "
          f"{fetched.prefetches_issued} issued)")
    assert fetched.prefetches_issued > 0
    assert fetched.prefetch_hits > 0
    assert fetched.read_miss_ratio <= plain.read_miss_ratio + 0.005


def test_ablation_placement_threshold(benchmark, bench_study):
    """Sweep the 30 MB disk/tape split: small thresholds overload tape
    with hot small files; huge thresholds blow the disk budget."""
    from repro.workload.config import PlacementConfig, WorkloadConfig
    from repro.workload.generator import generate_trace

    def tape_share(threshold_mb: float) -> float:
        config = WorkloadConfig(
            scale=0.004,
            seed=17,
            placement=PlacementConfig(disk_threshold_bytes=int(threshold_mb * MB)),
        )
        trace = generate_trace(config)
        good = trace.errors == 0
        return float((trace.device_idx[good] > 0).mean())

    shares = benchmark.pedantic(
        lambda: {t: tape_share(t) for t in (5, 30, 120)}, rounds=1, iterations=1
    )
    print(f"\ntape reference share by threshold: {shares}")
    # More goes to tape as the threshold drops.
    assert shares[5] > shares[30] > shares[120]
    # The NCAR operating point keeps tape to roughly a third of references.
    assert shares[30] == pytest.approx(0.33, abs=0.08)


def test_ablation_stp_exponent(benchmark, batches, capacity):
    """Sweep the STP time exponent around Smith's 1.4."""

    def sweep():
        out = {}
        for alpha in (0.5, 1.0, 1.4, 2.0):
            policy = SpaceTimePolicy(time_exponent=alpha)
            config = HSMConfig.with_capacity(capacity)
            out[alpha] = HSM(config, policy).replay(batches).read_miss_ratio
        return out

    misses = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nSTP exponent sweep: {misses}")
    best = min(misses, key=misses.get)
    worst = max(misses, key=misses.get)
    # The exponent matters little on this trace (Lawrie found "only by a
    # slim margin" differences), but the family stays well-behaved.
    assert misses[worst] - misses[best] < 0.05
    assert misses[1.4] <= misses[worst]
