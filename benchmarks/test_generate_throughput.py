"""Cold-generation benchmark: vectorized stages vs the seed scalar path.

PR 3's trace store made warm runs cheap; this gate keeps *cold* runs
cheap.  The two generation stages that used to walk events one at a time
-- device placement (:func:`repro.workload.placement.assign_devices_batch`
vs the per-event ``DevicePlacement.assign`` loop) and session packing
(:func:`repro.workload.clustering.pack_sessions` vs the per-hour-bin
``while`` loop), both kept in ``tests.oracles.generator`` -- are
re-timed on the dense-study stream and the vectorized pair must beat the
scalar pair by >= 4x combined.

A statistical sanity check pins the vectorized outputs to the scalar
ones (device shares, hour preservation), so the speed never comes at the
cost of the numbers.  ``REPRO_BENCH_RELAXED=1`` skips the hard timing
gate on noisy CI wall-clocks; the measured timings land as a bench
RunRecord in the runs root (``REPRO_RUNS_DIR``, default ``.runs/``).
"""

import os
import time

import numpy as np
import pytest

from repro.core.study import StudyConfig
from repro.util.units import HOUR
from repro.workload.generator import generate_trace
from tests.oracles.generator import time_generation_stage_paths

#: CI runners have noisy wall-clocks; REPRO_BENCH_RELAXED=1 keeps the
#: benchmark (and the statistical checks) running but skips the hard
#: timing gate.
RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

#: The dense study workload (full-scale arrival density, short span).
DENSE_CONFIG = StudyConfig.dense(scale=0.02, seed=42, days=14.62).workload

MIN_SPEEDUP = 4.0


from conftest import dump_bench_timings as _dump_timings  # noqa: E402


def test_vectorized_cold_generation_4x_scalar_stages():
    trace = generate_trace(DENSE_CONFIG)
    timings = time_generation_stage_paths(trace, rounds=3)

    # Statistical equivalence: same device shares (the Table 3 inputs)...
    n = timings["n_events"]
    for device in range(3):
        scalar_share = (timings["scalar_devices"] == device).sum() / n
        vector_share = (timings["vector_devices"] == device).sum() / n
        assert vector_share == pytest.approx(scalar_share, abs=0.01), device
    # ... and the vectorized packer honors the events-keep-their-hour
    # contract (the scalar reference predates the clamp fix).
    np.testing.assert_array_equal(
        (timings["vector_packed_times"] // HOUR).astype(np.int64),
        (timings["times"] // HOUR).astype(np.int64),
    )

    speedup = timings["speedup"]
    vector_seconds = (
        timings["vector_placement_seconds"] + timings["vector_sessions_seconds"]
    )
    rate = n / vector_seconds if vector_seconds else float("inf")
    print(
        f"\nplacement: scalar {timings['scalar_placement_seconds']:.3f}s -> "
        f"{timings['vector_placement_seconds']:.3f}s, sessions: scalar "
        f"{timings['scalar_sessions_seconds']:.3f}s -> "
        f"{timings['vector_sessions_seconds']:.3f}s, combined {speedup:.1f}x "
        f"({n} events, {rate:,.0f} ev/s vectorized)"
    )
    _dump_timings(
        {
            "generate_scalar_placement_seconds":
                timings["scalar_placement_seconds"],
            "generate_vector_placement_seconds":
                timings["vector_placement_seconds"],
            "generate_scalar_sessions_seconds":
                timings["scalar_sessions_seconds"],
            "generate_vector_sessions_seconds":
                timings["vector_sessions_seconds"],
            "generate_stage_speedup": speedup,
        }
    )
    if RELAXED:
        pytest.skip("REPRO_BENCH_RELAXED=1: timing gates skipped")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized placement+sessions only {speedup:.1f}x the scalar "
        f"path (need >= {MIN_SPEEDUP:.0f}x)"
    )


def test_cold_generation_stage_profile():
    """The stage profiler accounts for the full cold generation pass and
    no single re-vectorized stage dominates it."""
    from repro.workload.profiler import StageProfiler

    start = time.perf_counter()
    trace = generate_trace(DENSE_CONFIG)
    wall = time.perf_counter() - start
    prof = StageProfiler()
    for name, seconds in trace.stage_seconds.items():
        prof.add(name, seconds)
    assert set(prof.stages) == {
        "namespace", "lifecycles", "chains", "bursts", "placement",
        "sessions", "users", "errors", "latencies",
    }
    _dump_timings({"generate_cold_seconds": wall})
    print(f"\ncold generation {wall:.3f}s")
    print(prof.render(indent="  "))
    if RELAXED:
        pytest.skip("REPRO_BENCH_RELAXED=1: timing gates skipped")
    # Stage timers cover the pass: no large unattributed gap (one-sided
    # with headroom -- a scheduler hiccup between timers lands in `wall`
    # but not in any stage), and the re-vectorized stages stay minor
    # players in the cold pass.
    assert prof.total_seconds <= wall * 1.05
    assert prof.total_seconds >= 0.6 * wall
    for stage in ("placement", "sessions"):
        assert prof.stages[stage] < 0.25 * prof.total_seconds, stage
