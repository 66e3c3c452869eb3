#!/usr/bin/env python
"""Compare migration policies on a synthetic NCAR year.

Replays the deduped reference stream through a managed disk sized at 1.5 %
of the archive (the operating point Section 2.3 discusses) under every
registered policy plus the offline-optimal bound, and reports miss ratios
and the person-minutes-per-day cost of the misses.

Expected outcome (matching Smith [14,15] and Lawrie [10]): OPT < STP <=
LRU ~ SAAC < FIFO < random < size-only policies, with STP ahead of LRU
"only by a slim margin."
"""

from repro import WorkloadConfig, generate_trace
from repro.analysis.render import TextTable
from repro.engine import prepare_stream, replay_policy


def main() -> None:
    config = WorkloadConfig(scale=0.01, seed=42)
    print(f"generating workload (scale {config.scale}) ...")
    trace = generate_trace(config)
    batches = prepare_stream(trace)
    total = trace.namespace.total_bytes
    capacity = int(total * 0.015)
    references = sum(len(batch) for batch in batches)
    print(f"{references} deduped references; managed disk = 1.5% of "
          f"{total / 1e9:.1f} GB archive\n")

    table = TextTable(
        ["policy", "miss ratio", "capacity-miss", "evictions", "person-min/day"],
        title="Migration policies at 1.5% managed-disk capacity",
    )
    names = ("opt", "stp", "stp-1.0", "lru", "saac", "fifo",
             "random", "largest-first", "smallest-first", "mru")
    for name in names:
        metrics = replay_policy(batches, name, capacity, namespace=trace.namespace)
        table.add_row(
            name,
            f"{metrics.read_miss_ratio:.4f}",
            f"{metrics.capacity_miss_ratio:.4f}",
            metrics.evictions,
            f"{metrics.person_minutes_per_day():.2f}",
        )
    print(table.render())
    print("\n(capacity-miss excludes compulsory first-touch misses; opt is the")
    print(" Belady-style offline bound with the full reference string)")


if __name__ == "__main__":
    main()
