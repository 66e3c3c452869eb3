"""Checkpointed runs: task-granular resume, interrupt recovery, runs CLI.

The acceptance bar: a sweep interrupted (or SIGKILLed) at >= 50%
checkpointed tasks resumes re-running only the missing tasks, verified
by task-execution counters (the fault harness logs every worker-task
hit), and the resumed result is bit-identical to an uninterrupted run.
The run's ``run_record.json`` is the only checkpoint file.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.cli import main
from repro.engine import SweepConfig, run_sweep, sweep_config_hash
from repro.engine.resilience import FAULT_PLAN_ENV
from repro.registry.record import RECORD_FILENAME, load_run_record
from tests.resilience.faults import FaultPlan

#: engine="des" makes every (policy, capacity) cell its own task:
#: 2 policies x 2 fractions = 4 checkpointable tasks.
BASE = dict(
    policies=("stp", "lru"),
    capacity_fractions=(0.01, 0.04),
    seeds=(0,),
    scale=0.002,
    duration_days=90.0,
    engine="des",
    retry_backoff=0.0,
)


def _cells(result):
    return sorted(
        (row.seed, row.scenario, row.policy, row.capacity_fraction,
         row.capacity_bytes, row.metrics)
        for row in result.rows
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    cache = tmp_path_factory.mktemp("resume-cache")
    baseline = run_sweep(SweepConfig(**BASE, cache_dir=str(cache)))
    return cache, baseline


def _config(cache, runs, **extra):
    return SweepConfig(**BASE, cache_dir=str(cache), run_dir=str(runs), **extra)


def _counters(record):
    return record.metrics["tasks_executed"], record.metrics["tasks_resumed"]


def test_completed_run_resumes_without_reexecuting(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    runs = tmp_path / "runs"

    first = run_sweep(_config(cache, runs))
    assert first.tasks_executed == 4
    run_path = Path(first.run_path)
    record = load_run_record(run_path)
    assert len(record.rows) == 4
    assert record.status == "complete"
    assert _counters(record) == (4, 0)
    assert [path.name for path in run_path.iterdir()] == [RECORD_FILENAME]

    plan = FaultPlan(tmp_path)
    counter = plan.count_worker_tasks()
    plan.install(monkeypatch)
    second = run_sweep(_config(cache, runs, resume=True))

    assert second.tasks_executed == 0
    assert second.tasks_resumed == 4
    assert _counters(load_run_record(run_path)) == (0, 4)
    assert not counter.exists() or counter.read_text() == ""
    assert _cells(second) == _cells(baseline)


def test_resume_reruns_only_missing_tasks(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    runs = tmp_path / "runs"
    first = run_sweep(_config(cache, runs))
    path = Path(first.run_path) / RECORD_FILENAME
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == 4
    del payload["rows"][:2]  # engine="des": one cell per task
    path.write_text(json.dumps(payload))

    plan = FaultPlan(tmp_path)
    plan.count_worker_tasks()
    plan.install(monkeypatch)
    second = run_sweep(_config(cache, runs, resume=True))

    assert second.tasks_executed == 2
    assert second.tasks_resumed == 2
    assert _counters(load_run_record(path.parent)) == (2, 2)
    assert len(plan.executed_labels()) == 2
    assert _cells(second) == _cells(baseline)


def test_interrupted_run_resumes_at_task_granularity(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    runs = tmp_path / "runs"

    plan = FaultPlan(tmp_path)
    plan.interrupt_after_checkpoints(2)  # Ctrl-C at 50% checkpointed
    plan.install(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(_config(cache, runs))

    run_path = next(Path(runs).iterdir())
    record = load_run_record(run_path)
    assert record.status == "interrupted"
    assert len(record.rows) == 2
    assert _counters(record) == (2, 0)
    assert [path.name for path in run_path.iterdir()] == [RECORD_FILENAME]

    resume_plan = FaultPlan(tmp_path / "resume")
    (tmp_path / "resume").mkdir()
    resume_plan.count_worker_tasks()
    resume_plan.install(monkeypatch)
    second = run_sweep(_config(cache, runs, resume=True))

    assert second.tasks_resumed == 2
    assert second.tasks_executed == 2
    assert len(resume_plan.executed_labels()) == 2
    assert _cells(second) == _cells(baseline)
    record = load_run_record(run_path)
    assert record.status == "complete"
    assert _counters(record) == (2, 2)


def test_sigkilled_parent_resumes(warm, tmp_path, monkeypatch):
    cache, baseline = warm
    runs = tmp_path / "runs"

    # SIGKILL the sweep parent right after its 2nd checkpoint: no
    # handler runs, so whatever is on disk is all a resume gets.
    plan = FaultPlan(tmp_path / "kill")
    plan.kill_after_checkpoints(2)
    env = dict(os.environ)
    env[FAULT_PLAN_ENV] = str(plan.write())
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).parents[1])
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    script = (
        "from repro.engine import SweepConfig, run_sweep\n"
        f"run_sweep(SweepConfig(**{BASE!r}, cache_dir={str(cache)!r}, "
        f"run_dir={str(runs)!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    run_path = next(Path(runs).iterdir())
    assert [path.name for path in run_path.iterdir()] == [RECORD_FILENAME]
    record = load_run_record(run_path)
    assert record.status == "in-progress"
    assert len(record.rows) == 2  # engine="des": one cell per task
    assert _counters(record) == (2, 0)

    resume_plan = FaultPlan(tmp_path / "resume")
    resume_plan.count_worker_tasks()
    resume_plan.install(monkeypatch)
    second = run_sweep(_config(cache, runs, resume=True))

    assert (second.tasks_executed, second.tasks_resumed) == (2, 2)
    assert len(resume_plan.executed_labels()) == 2
    assert _cells(second) == _cells(baseline)
    assert load_run_record(run_path).status == "complete"


def test_rerun_without_resume_reports_its_own_status(
    warm, tmp_path, monkeypatch, capsys
):
    cache, _ = warm
    runs = tmp_path / "runs"
    first = run_sweep(_config(cache, runs))
    created_at = load_run_record(first.run_path).created_at

    # A fresh (non-resume) run over a complete dir, Ctrl-C'd at 1 of 4:
    # the record must say so, not keep the earlier run's ``complete``.
    plan = FaultPlan(tmp_path)
    plan.interrupt_after_checkpoints(1)
    plan.install(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(_config(cache, runs))
    record = load_run_record(first.run_path)
    assert record.created_at == created_at
    assert len(record.rows) == 1

    assert main(["runs", "list", str(runs)]) == 0
    [line] = [
        line for line in capsys.readouterr().out.splitlines()
        if line.lstrip().startswith("sweep-")
    ]
    assert line.split()[2:4] == ["interrupted", "1/4"]

    assert main(["runs", "index", str(runs)]) == 0
    capsys.readouterr()
    assert main(["runs", "query", str(runs), "--status", "interrupted"]) == 0
    out = capsys.readouterr().out
    assert "Indexed runs (1)" in out and record.run_hash()[:12] in out


def test_runs_cli_list_and_show(warm, tmp_path, capsys):
    cache, _ = warm
    runs = tmp_path / "runs"
    result = run_sweep(_config(cache, runs))
    name = Path(result.run_path).name

    assert main(["runs", "list", str(runs)]) == 0
    out = capsys.readouterr().out
    assert name in out and "complete" in out and "4/4" in out

    assert main(["runs", "show", str(runs), name]) == 0
    out = capsys.readouterr().out
    assert "4 executed" in out.replace("  ", " ") or "tasks:" in out
    assert "Recorded cells (4)" in out and "attempts" in out

    # Config-hash prefix addressing, and the JSON escape hatch.
    prefix = sweep_config_hash(_config(cache, runs))[:8]
    assert main(["runs", "show", str(runs), prefix, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.split("\n{", 1)[1].join(["{", ""]))
    assert payload["status"] == "complete"

    assert main(["runs", "show", str(runs), "no-such-run"]) == 1
    assert main(["runs", "list", str(tmp_path / "empty")]) == 0


def test_sweep_cli_resume_flags(warm, tmp_path, capsys):
    cache, _ = warm
    runs = tmp_path / "runs"
    argv = [
        "sweep", "--scale", "0.002", "--days", "90", "--policies", "stp,lru",
        "--capacities", "0.01,0.04", "--engine", "des",
        "--cache-dir", str(cache), "--run-dir", str(runs),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "run dir:" in first

    assert main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "4 resumed from checkpoints" in second

    assert main(["sweep", "--resume"]) == 2
    assert "--resume requires --run-dir" in capsys.readouterr().err
