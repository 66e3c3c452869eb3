"""Sweep-level fault injection: crashes, hangs, and poison tasks.

The acceptance bar: a SIGKILLed worker mid-grid yields a complete,
bit-identical ``SweepResult`` after automatic retry; a hung worker is
abandoned by deadline (never joined); exhausted retries degrade into
``failed_cells`` instead of raising; and the per-run temp cache dir is
reclaimed on every path.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.engine import SweepConfig, run_sweep
from repro.registry.record import load_run_record
from tests.resilience.faults import FaultPlan

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fork + POSIX signals required"
)

#: Tiny grid: lru rides the one-pass stack engine (1 task covering both
#: fractions), stp is per-cell DES (2 tasks) -- 3 tasks, 4 cells.
BASE = dict(
    policies=("stp", "lru"),
    capacity_fractions=(0.01, 0.04),
    seeds=(0,),
    scale=0.002,
    duration_days=90.0,
    retry_backoff=0.0,
)


def _cells(result):
    """Fault-independent view of the rows: identity + metrics only."""
    return sorted(
        (row.seed, row.scenario, row.policy, row.capacity_fraction,
         row.capacity_bytes, row.metrics)
        for row in result.rows
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Shared store cache + the fault-free baseline result."""
    cache = tmp_path_factory.mktemp("sweep-cache")
    baseline = run_sweep(SweepConfig(**BASE, cache_dir=str(cache)))
    assert not baseline.failed_cells and baseline.retries == 0
    return cache, baseline


def test_sigkilled_worker_yields_bit_identical_result(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    plan = FaultPlan(tmp_path)
    plan.kill_worker(once=True)
    plan.install(monkeypatch)

    result = run_sweep(SweepConfig(**BASE, cache_dir=str(cache), workers=2))

    assert result.failed_cells == []
    assert result.retries >= 1, "the SIGKILL never cost an attempt"
    assert _cells(result) == _cells(baseline)
    assert any(row.status == "retried" and row.attempts >= 2
               for row in result.rows)


def test_hung_worker_abandoned_by_deadline(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    plan = FaultPlan(tmp_path)
    plan.sleep_worker(120.0, once=True)
    plan.install(monkeypatch)

    start = time.monotonic()
    result = run_sweep(SweepConfig(
        **BASE, cache_dir=str(cache), workers=2, task_timeout=2.0,
    ))
    elapsed = time.monotonic() - start

    assert elapsed < 60.0, f"sweep joined a hung worker ({elapsed:.0f}s)"
    assert result.failed_cells == []
    assert _cells(result) == _cells(baseline)


def test_poisoned_task_degrades_with_annotated_cells(
    warm, tmp_path, monkeypatch, capsys
):
    cache, baseline = warm
    plan = FaultPlan(tmp_path)
    plan.raise_worker(match=":lru:", once=False)  # every lru attempt dies
    plan.install(monkeypatch)

    runs = tmp_path / "runs"
    result = run_sweep(SweepConfig(
        **BASE, cache_dir=str(cache), workers=2, max_retries=1,
        run_dir=str(runs),
    ))

    # lru's single stack task covers both fractions -> 2 failed cells;
    # the stp cells are untouched.
    assert {(c.policy, c.capacity_fraction) for c in result.failed_cells} == {
        ("lru", 0.01), ("lru", 0.04)
    }
    assert all(c.attempts == 2 and "FaultInjected" in c.error
               for c in result.failed_cells)
    assert {row.policy for row in result.rows} == {"stp"}
    assert result.tasks_failed == 1

    rendered = result.render()
    assert "failed(1/1)" in rendered
    assert "--" in rendered  # failed cells render placeholders, not garbage
    assert "WARNING" in rendered

    # The run record keeps the failed cells next to the recorded ones,
    # and `runs show` lists them with their attempts.
    record = load_run_record(result.run_path)
    assert record.status == "degraded"
    assert len(record.rows) == 2 and len(record.metrics["failed_cells"]) == 2
    assert main(["runs", "show", str(runs), Path(result.run_path).name]) == 0
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[:3] for line in lines if ":lru:" in line]
    assert failed == [["classic:s0:lru:0.01", "failed", "2"],
                      ["classic:s0:lru:0.04", "failed", "2"]]


def _leftover_sweep_tmpdirs():
    root = Path(tempfile.gettempdir())
    return {path.name for path in root.glob("repro-sweep-*")}


def test_temp_cache_dir_reclaimed_on_worker_faults(tmp_path, monkeypatch):
    """cache_dir=None sweeps must reclaim their TemporaryDirectory even
    when tasks fail hard (the pool is terminated, not joined)."""
    before = _leftover_sweep_tmpdirs()
    plan = FaultPlan(tmp_path)
    plan.raise_worker(once=False)
    plan.install(monkeypatch)

    result = run_sweep(SweepConfig(
        policies=("lru",), capacity_fractions=(0.01,), seeds=(0,),
        scale=0.002, duration_days=90.0, workers=2,
        max_retries=0, retry_backoff=0.0,
    ))

    assert result.failed_cells and not result.rows
    assert _leftover_sweep_tmpdirs() == before
