"""Stack-engine benchmark: one-pass capacity sweeps vs per-cell DES.

Times the Section 6 sweep on the dense config -- 8 log-spaced capacity
points for every stack-replayable policy -- along both engines and gates
the stack engine at >= 4x.  Metric identity is asserted unconditionally;
``REPRO_BENCH_RELAXED=1`` skips only the timing gate.

Each run emits a bench-kind RunRecord into the experiment registry's
runs root (see ``conftest.bench_runs_root``) and re-derives
``BENCH_sweep.json`` in that same runs root as a view over every recorded
run -- engine cell counts, wall seconds, measured speedup, and the full
trajectory -- so ``repro runs trajectory stackdist_sweep`` tracks sweep
throughput across PRs while the working tree stays untouched.
"""

import dataclasses
import os
import time
from pathlib import Path

import pytest

from conftest import bench_runs_root, dump_bench_timings  # noqa: E402
from repro.engine import (
    STACK_POLICIES,
    log_spaced_fractions,
    multi_capacity_replay,
    prepare_stream,
    replay_policy,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace

RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

SCALE = 0.02
SEED = 42
N_CAPACITIES = 8
MIN_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def sweep_inputs():
    trace = generate_trace(
        WorkloadConfig(scale=SCALE, seed=SEED, fill_latencies=False)
    )
    batches = prepare_stream(trace)
    total = trace.namespace.total_bytes
    capacities = [
        max(int(total * fraction), 1)
        for fraction in log_spaced_fractions(N_CAPACITIES)
    ]
    return batches, capacities


def test_stack_sweep_is_4x_faster_than_des(sweep_inputs):
    batches, capacities = sweep_inputs

    des_seconds = 0.0
    stack_seconds = 0.0
    per_policy = {}
    for policy in STACK_POLICIES:
        start = time.perf_counter()
        des_rows = [
            replay_policy(batches, policy, capacity) for capacity in capacities
        ]
        des_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        stack_rows = multi_capacity_replay(batches, policy, capacities)
        stack_elapsed = time.perf_counter() - start

        # Exactness first: one-pass rows must equal the DES cell by cell.
        for capacity, des, stack in zip(capacities, des_rows, stack_rows):
            assert dataclasses.asdict(stack) == dataclasses.asdict(des), (
                policy, capacity,
            )
        des_seconds += des_elapsed
        stack_seconds += stack_elapsed
        per_policy[policy] = {
            "des_seconds": round(des_elapsed, 3),
            "stack_seconds": round(stack_elapsed, 3),
            "speedup": round(des_elapsed / stack_elapsed, 1),
        }

    speedup = des_seconds / stack_seconds
    n_cells = len(STACK_POLICIES) * len(capacities)
    print(
        f"\n8-capacity sweep, {len(STACK_POLICIES)} stack policies "
        f"({n_cells} cells):"
        f"\nper-cell DES:  {des_seconds:7.2f}s"
        f"\nstack engine:  {stack_seconds:7.2f}s"
        f"\nspeedup:       {speedup:7.1f}x"
    )
    for policy, row in per_policy.items():
        print(
            f"  {policy:15s} des {row['des_seconds']:6.2f}s   "
            f"stack {row['stack_seconds']:6.2f}s   {row['speedup']:5.1f}x"
        )

    # One RunRecord through the shared sink; BENCH_sweep.json is then
    # re-derived from the records in the runs root, so the file is a
    # pure view over every recorded bench run (history included).
    payload = {
        "des_seconds": round(des_seconds, 3),
        "stack_seconds": round(stack_seconds, 3),
        "speedup": round(speedup, 1),
        "cells": {"stack": n_cells, "des": n_cells},
        "per_policy": per_policy,
    }
    config = {
        "scale": SCALE,
        "seed": SEED,
        "capacity_points": len(capacities),
        "policies": list(STACK_POLICIES),
    }
    dump_bench_timings(
        {"stackdist_sweep": payload}, configs={"stackdist_sweep": config}
    )
    from repro.registry import refresh_bench_view

    root = bench_runs_root()
    refresh_bench_view(root, "stackdist_sweep", Path(root) / "BENCH_sweep.json")

    if not RELAXED:
        assert speedup >= MIN_SPEEDUP, (
            f"stack engine only {speedup:.1f}x faster than the DES sweep"
        )
