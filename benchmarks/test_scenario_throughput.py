"""Scenario compositor benchmark: composition must cost ~generation.

Two gates on a two-component scenario:

* **composition tax** -- cold-composing the merged stream (generate both
  components + thin/shift/remap + k-way merge) costs at most 1.5x the
  sum of the two components' solo generation times: the merge is a
  streaming pass, not a second pipeline;
* **warm reuse** -- with a cache directory, a second composition serves
  both components from their content-addressed stores and never calls
  the generator (asserted by stubbing it out), and the warm stream is
  bit-identical to the cold one.

``REPRO_BENCH_RELAXED=1`` keeps the identity checks but skips the hard
timing gate (shared CI runners have noisy wall-clocks); the measured
timings land as a bench RunRecord in the runs root.
"""

import os
import time

import numpy as np
import pytest

from repro.engine.batch import EventBatch
from repro.scenarios.compositor import ScenarioCompositor
from repro.scenarios.spec import ComponentSpec, ScenarioSpec
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace

RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

#: Cold composition may cost at most this multiple of the summed solo
#: component generation times.
COMPOSE_TAX_LIMIT = 1.5

#: Two non-trivial components (enough events that per-batch Python
#: overhead would show up in the ratio if the merge were sloppy).
SPEC = ScenarioSpec(
    name="bench-two-tenant",
    components=(
        ComponentSpec(
            name="alpha",
            workload=WorkloadConfig(scale=0.01, duration_seconds=120 * DAY),
        ),
        ComponentSpec(
            name="beta",
            workload=WorkloadConfig(scale=0.01, duration_seconds=120 * DAY),
            start_day=10.0,
        ),
    ),
    seed=42,
)


from conftest import dump_bench_timings as _dump_timings  # noqa: E402


def _drain(batches):
    """Consume a stream, returning (n_events, concatenated batch)."""
    collected = list(batches)
    merged = EventBatch.concat(collected)
    return len(merged), merged


def test_composed_generation_within_budget_and_warm_cache_reuse(
    tmp_path, monkeypatch, capsys
):
    # Solo baselines: generate each component stream on its own.
    solo_seconds = {}
    for name in SPEC.tenants:
        config = SPEC.derived_config(name)
        start = time.perf_counter()
        trace = generate_trace(config)
        solo_seconds[name] = time.perf_counter() - start
        assert trace.n_events > 0
    solo_total = sum(solo_seconds.values())

    # Cold composition: both components generated + merged, streamed.
    start = time.perf_counter()
    n_cold, cold = _drain(ScenarioCompositor(SPEC).iter_batches())
    compose_seconds = time.perf_counter() - start
    assert n_cold > 0
    tax = compose_seconds / solo_total if solo_total > 0 else float("inf")

    # Warm path: first composition populates the per-component stores ...
    cache = str(tmp_path / "cache")
    start = time.perf_counter()
    _drain(ScenarioCompositor(SPEC, cache_dir=cache).iter_batches())
    cold_cached_seconds = time.perf_counter() - start
    assert len(list((tmp_path / "cache").glob("trace-*/manifest.json"))) == 2

    # ... and the second must never generate: stores only.
    import repro.workload.generator as generator

    def boom(*args, **kwargs):  # pragma: no cover - the assertion is the call
        raise AssertionError("warm composition regenerated a component")

    monkeypatch.setattr(generator, "generate_trace", boom)
    start = time.perf_counter()
    n_warm, warm = _drain(ScenarioCompositor(SPEC, cache_dir=cache).iter_batches())
    warm_seconds = time.perf_counter() - start
    monkeypatch.undo()

    # The warm stream is the cold stream, bit for bit.
    assert n_warm == n_cold
    np.testing.assert_array_equal(warm.file_id, cold.file_id)
    np.testing.assert_array_equal(warm.time, cold.time)
    np.testing.assert_array_equal(warm.size, cold.size)
    np.testing.assert_array_equal(warm.is_write, cold.is_write)

    timings = {
        "scenario_solo_seconds": solo_total,
        "scenario_compose_seconds": compose_seconds,
        "scenario_compose_tax": tax,
        "scenario_cold_cached_seconds": cold_cached_seconds,
        "scenario_warm_seconds": warm_seconds,
        "scenario_events": n_cold,
    }
    _dump_timings(timings)
    with capsys.disabled():
        print(
            f"\n[scenario-bench] solo {solo_total:.3f}s -> composed "
            f"{compose_seconds:.3f}s (tax {tax:.2f}x, limit "
            f"{COMPOSE_TAX_LIMIT}x); warm {warm_seconds:.3f}s "
            f"({n_cold} events)"
        )

    if RELAXED:
        pytest.skip("REPRO_BENCH_RELAXED=1: timing gate skipped")
    assert tax <= COMPOSE_TAX_LIMIT, (
        f"composed generation cost {tax:.2f}x the summed solo generation "
        f"(limit {COMPOSE_TAX_LIMIT}x)"
    )
