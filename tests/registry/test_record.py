"""RunRecord schema contracts: round-trips and forward compat.

Forward: unknown top-level JSON keys written by a future schema survive
load -> rewrite -> re-load untouched.  Runs-root scans find every dir
holding a ``run_record.json`` and order them deterministically.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.registry.record import (
    RECORD_FILENAME,
    RunRecord,
    cell_key,
    flatten_metrics,
    load_run_record,
    new_run_dir,
    scan_runs_root,
    sweep_rows_to_record_rows,
    write_run_record,
)


def _sweep_row(policy: str = "lru", fraction: float = 0.01) -> dict:
    return {
        "seed": 0,
        "policy": policy,
        "capacity_fraction": fraction,
        "capacity_bytes": 123456789,
        "metrics": {"reads": 100, "read_misses": 7, "span_seconds": 86400.0},
        "scenario": None,
        "attempts": 2,
        "status": "retried",
    }


def _sweep_dir(root: Path, name: str = "sweep-aaaa000000000000") -> Path:
    run = root / name
    write_run_record(run, RunRecord(
        kind="sweep",
        config={"policies": ["lru"], "capacity_fractions": [0.01]},
        config_hash=name.split("-")[1],
        rows=sweep_rows_to_record_rows([_sweep_row()]),
        metrics={"n_tasks": 1, "tasks_executed": 1, "tasks_resumed": 0,
                 "tasks_failed": 0, "retries": 1, "failed_cells": [],
                 "prepare_seconds": 1.5, "replay_seconds": 2.5},
        created_at=100.0,
        wall_seconds=4.0,
    ))
    return run


def test_record_round_trips_through_disk(tmp_path):
    record = RunRecord(
        kind="bench",
        config={"benchmark": "b"},
        rows=[{"cell": "b", "values": {"speedup": 3.25, "n": 40}}],
        metrics={"b": {"speedup": 3.25}},
        created_at=50.0,
        wall_seconds=1.25,
    )
    run_dir = new_run_dir(tmp_path, record)
    assert run_dir.name == f"bench-{record.run_hash()}"
    loaded = load_run_record(run_dir)
    assert loaded.to_payload() == record.to_payload()
    assert loaded.run_hash() == record.run_hash()
    # Values come back with exact types: int stays int, float stays float.
    cells = loaded.cells()
    assert cells["b"]["n"] == 40 and isinstance(cells["b"]["n"], int)
    assert cells["b"]["speedup"] == 3.25


def test_unknown_keys_survive_load_and_rewrite(tmp_path):
    record = RunRecord(kind="bench", config={}, created_at=1.0)
    run_dir = new_run_dir(tmp_path, record)
    # A future writer adds top-level fields this schema knows nothing of.
    path = run_dir / RECORD_FILENAME
    payload = json.loads(path.read_text())
    payload["future_field"] = {"nested": [1, 2, 3]}
    payload["another"] = "hello"
    path.write_text(json.dumps(payload))

    loaded = load_run_record(run_dir)
    assert loaded.extra["future_field"] == {"nested": [1, 2, 3]}
    assert loaded.extra["another"] == "hello"

    # Rewriting preserves them verbatim (and they stay hashed, so the
    # identity reflects the full content).
    write_run_record(run_dir, loaded)
    rewritten = json.loads(path.read_text())
    assert rewritten["future_field"] == {"nested": [1, 2, 3]}
    assert rewritten["another"] == "hello"
    assert load_run_record(run_dir).run_hash() == loaded.run_hash()


def test_corrupt_record_returns_none(tmp_path):
    run = tmp_path / "bench-dead"
    run.mkdir()
    (run / RECORD_FILENAME).write_text("{truncated")
    assert load_run_record(run) is None
    assert load_run_record(tmp_path / "missing") is None


def test_sweep_rows_sorted_and_keyed(tmp_path):
    rows = sweep_rows_to_record_rows(
        [_sweep_row("stp", 0.04), _sweep_row("lru", 0.01)]
    )
    assert [row["cell"] for row in rows] == [
        "classic:s0:lru:0.01", "classic:s0:stp:0.04",
    ]
    [row] = sweep_rows_to_record_rows([_sweep_row()])
    assert row["cell"] == cell_key(None, 0, "lru", 0.01)
    assert row["values"]["reads"] == 100
    assert row["values"]["capacity_bytes"] == 123456789
    # Execution metadata is not a compared value.
    assert row["meta"] == {"attempts": 2, "status": "retried"}
    assert "reads" not in row["meta"]


def test_flatten_metrics_dotted_scalars():
    flat = flatten_metrics({
        "speedup": 3.5,
        "per_policy": {"lru": {"t": 1.25}},
        "dropped_list": [1, 2],
        "dropped_none": None,
    })
    assert flat == {"speedup": 3.5, "per_policy.lru.t": 1.25}


def test_scan_orders_by_created_at_then_hash(tmp_path):
    newer = RunRecord(kind="bench", config={"x": 1}, created_at=300.0)
    older = RunRecord(kind="bench", config={"x": 2}, created_at=200.0)
    new_run_dir(tmp_path, newer)
    new_run_dir(tmp_path, older)
    _sweep_dir(tmp_path)  # created_at 100.0
    (tmp_path / "notes.txt").write_text("not a run")
    (tmp_path / "empty-dir").mkdir()

    entries = scan_runs_root(tmp_path)
    records = [entry["record"] for entry in entries]
    assert [record.created_at for record in records] == [100.0, 200.0, 300.0]
    assert records[0].kind == "sweep"
    assert records[0].wall_seconds == 4.0
    assert {record.kind for record in records[1:]} == {"bench"}
    # Deterministic no matter what order the filesystem lists dirs.
    assert entries == scan_runs_root(tmp_path)
