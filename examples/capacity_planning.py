#!/usr/bin/env python
"""Capacity planning: how much managed disk does the archive need?

Sweeps the managed-disk size from 0.5 % to 8 % of the archive and reports
the STP miss-ratio curve, the paper's person-minutes currency, and the
effect of the Section 6 recommendations (lazy write-back, prefetch) at the
chosen operating point.  This is the study a storage architect would run
before buying 3380s.
"""

from repro import WorkloadConfig, generate_trace
from repro.analysis.render import TextTable
from repro.engine import capacity_sweep_batches, prepare_stream, replay_policy


def main() -> None:
    config = WorkloadConfig(scale=0.01, seed=9)
    trace = generate_trace(config)
    batches = prepare_stream(trace)
    total = trace.namespace.total_bytes
    references = sum(len(batch) for batch in batches)
    print(f"archive: {total / 1e9:.1f} GB in {trace.namespace.file_count} files; "
          f"{references} deduped references over two years\n")

    table = TextTable(
        ["disk (% of archive)", "disk (GB)", "miss ratio",
         "capacity-miss", "mean read latency (s)", "person-min/day"],
        title="STP miss ratio vs managed-disk capacity",
    )
    fractions = (0.005, 0.01, 0.015, 0.02, 0.04, 0.08)
    for fraction, metrics in capacity_sweep_batches(batches, "stp", total, fractions):
        table.add_row(
            f"{fraction:.1%}",
            f"{total * fraction / 1e9:.1f}",
            f"{metrics.read_miss_ratio:.4f}",
            f"{metrics.capacity_miss_ratio:.4f}",
            f"{metrics.mean_read_latency():.1f}",
            f"{metrics.person_minutes_per_day():.2f}",
        )
    print(table.render())

    capacity = int(total * 0.015)
    print("\nat the 1.5% operating point:")
    lazy = replay_policy(batches, "stp", capacity, writeback_delay=4 * 3600.0)
    eager = replay_policy(batches, "stp", capacity, writeback_delay=None)
    print(f"  write-through : {eager.tape_writes} tape writes")
    print(f"  lazy writeback: {lazy.tape_writes} tape writes "
          f"({lazy.rewrites_absorbed} rewrites absorbed before flushing)")
    fetched = replay_policy(batches, "stp", capacity,
                            namespace=trace.namespace, prefetch=True)
    plain = replay_policy(batches, "stp", capacity, namespace=trace.namespace)
    print(f"  prefetch      : miss {plain.read_miss_ratio:.4f} -> "
          f"{fetched.read_miss_ratio:.4f} "
          f"(accuracy {fetched.prefetch_accuracy():.0%})")


if __name__ == "__main__":
    main()
