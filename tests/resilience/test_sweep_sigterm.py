"""SIGTERM mid-sweep leaves the same clean ``interrupted`` checkpoint
as Ctrl-C: orchestrators stop sweeps with SIGTERM, and before this fix
that killed the process without recording how the run ended."""

from __future__ import annotations

import os
import signal
from pathlib import Path

import pytest

from repro.engine import SweepConfig, run_sweep
from repro.engine.resilience import sigterm_as_interrupt
from repro.registry.record import load_run_record
from tests.resilience.faults import FaultPlan

BASE = dict(
    policies=("stp", "lru"),
    capacity_fractions=(0.01, 0.04),
    seeds=(0,),
    scale=0.002,
    duration_days=90.0,
    engine="des",
    retry_backoff=0.0,
)


def test_sigterm_as_interrupt_converts_and_restores():
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(KeyboardInterrupt):
        with sigterm_as_interrupt():
            os.kill(os.getpid(), signal.SIGTERM)
    assert signal.getsignal(signal.SIGTERM) is before


def test_sigterm_mid_sweep_writes_interrupted_summary(tmp_path, monkeypatch):
    plan = FaultPlan(tmp_path)
    # SIGTERM the parent right after the 2nd checkpoint lands -- the
    # exact moment an orchestrator might stop the run.
    plan.sigterm_after_checkpoints(2)
    plan.install(monkeypatch)

    config = SweepConfig(
        **BASE, cache_dir=str(tmp_path / "cache"),
        run_dir=str(tmp_path / "runs"),
    )
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(config)

    # SIGTERM handling is restored after the sweep.
    assert signal.getsignal(signal.SIGTERM) is before

    run_path = next(Path(tmp_path / "runs").iterdir())
    record = load_run_record(run_path)
    assert record is not None and record.status == "interrupted"
    assert len(record.rows) == 2
    assert record.metrics["tasks_executed"] == 2

    # And the checkpoint is resumable, exactly like a Ctrl-C one.
    resumed = run_sweep(SweepConfig(
        **BASE, cache_dir=str(tmp_path / "cache"),
        run_dir=str(tmp_path / "runs"), resume=True,
    ))
    assert resumed.tasks_resumed == 2
    assert resumed.tasks_executed == 2
    record = load_run_record(run_path)
    assert record.status == "complete"
    assert (record.metrics["tasks_resumed"],
            record.metrics["tasks_executed"]) == (2, 2)
