#!/usr/bin/env python
"""Quickstart: synthesize an NCAR-like trace and reproduce Table 3.

Runs in a few seconds at 1 % scale.  What you should see: a read:write
ratio near 2:1, two thirds of references on MSS disk, most bytes moving
through the tape silo, and a 4.76 % error rate -- the fingerprints of the
Miller & Katz trace.
"""

from repro import WorkloadConfig, generate_trace
from repro.analysis import overall_statistics_from_batches


def main() -> None:
    config = WorkloadConfig(scale=0.01, seed=1993)
    print(f"generating {config.n_files} files over 731 simulated days ...")
    trace = generate_trace(config)
    print(f"-> {trace.n_events} MSS references\n")

    analysis = overall_statistics_from_batches(trace.iter_batches())
    print(analysis.render())
    print()
    print(analysis.comparison().render())

    stats = analysis.stats
    print()
    print(f"read:write ratio  {stats.read_write_ratio():.2f}  (paper: ~2:1)")
    print(
        "mean interarrival at full scale  "
        f"{stats.mean_interarrival_seconds() * config.scale:.1f} s  (paper: 18 s)"
    )


if __name__ == "__main__":
    main()
