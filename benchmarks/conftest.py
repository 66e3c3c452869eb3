"""Shared fixtures for the benchmark suite.

Two studies back all benches:

* ``bench_study`` -- a 2 %-scale, full-span (731-day) trace; shape
  statistics (shares, CDFs, ratios) are scale-invariant.
* ``dense_study`` -- a short-span trace with full-scale arrival *density*,
  replayed through the discrete-event simulator; used by the experiments
  whose statistics live at second/queueing timescales (Figures 3 and 7).

Each bench prints its paper-vs-measured comparison; run with ``-s`` (or
read the saved bench output) to see the tables.
"""

from __future__ import annotations

import os

import pytest

from repro.core.experiments import ExperimentResult
from repro.core.study import Study, StudyConfig
from repro.workload.config import WorkloadConfig


def bench_runs_root() -> str:
    """The runs root benchmark RunRecords land in.

    ``REPRO_RUNS_DIR`` overrides (CI points it at the sweep runs root so
    one ``repro runs list`` shows both kinds); the default is a
    git-ignored ``.runs/`` at the repo root, so local bench invocations
    accumulate a trajectory without any setup.
    """
    root = os.environ.get("REPRO_RUNS_DIR")
    if root:
        return root
    return os.path.join(os.path.dirname(os.path.dirname(__file__)), ".runs")


def dump_bench_timings(timings: dict, configs: dict = None) -> None:
    """Report measured timings as registry RunRecords.

    The one shared sink every throughput benchmark reports through.
    Each top-level ``{benchmark: payload}`` entry becomes one bench-kind
    RunRecord under :func:`bench_runs_root` (the substrate of ``repro
    runs trajectory``); a payload is a nested timings dict or a bare
    number.  ``configs`` optionally carries a per-benchmark config dict
    recorded alongside.
    """
    from repro.registry import record_bench_run

    root = bench_runs_root()
    for benchmark, payload in timings.items():
        record_bench_run(
            root, benchmark, payload, config=(configs or {}).get(benchmark)
        )


@pytest.fixture(scope="session")
def bench_study() -> Study:
    """The standard benchmark study (scale 0.02, seed 42, 731 days)."""
    return Study(StudyConfig(workload=WorkloadConfig(scale=0.02, seed=42)))


@pytest.fixture(scope="session")
def dense_study() -> Study:
    """Full-density short-span study with DES-simulated latencies."""
    return Study(StudyConfig.dense(scale=0.02, seed=42, days=14.62))


def report(result: ExperimentResult, tolerance: float = None) -> None:
    """Print the experiment output and optionally gate on tolerance."""
    print()
    print(result.render())
    if tolerance is not None and result.comparison is not None:
        worst = max(result.comparison.rows, key=lambda r: r.relative_error)
        assert result.comparison.within(tolerance), (
            f"{result.experiment_id}: worst row {worst.label!r} off by "
            f"{worst.relative_error:.1%} (tolerance {tolerance:.0%})"
        )
