"""The ``repro runs`` registry verbs, end to end through ``main``.

list -> promote -> compare -> trajectory over a runs root holding
sweep, bench and verify records, and damage; exit codes are the
contract CI scripts on (compare: 1 on regression, 2 on usage errors).
Every verb reads the records as they stand, so a rewritten or deleted
run dir is never answered from a stale copy.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.registry.emit import record_bench_run, record_run
from repro.registry.record import (
    RECORD_FILENAME,
    RunRecord,
    load_run_record,
    sweep_rows_to_record_rows,
    write_run_record,
)


def _sweep_dir(root: Path, name: str = "sweep-aaaa000000000000") -> Path:
    run = root / name
    write_run_record(run, RunRecord(
        kind="sweep", config={"policies": ["lru"]},
        config_hash=name.split("-")[1], created_at=50.0,
        rows=sweep_rows_to_record_rows([{
            "seed": 0, "policy": "lru", "capacity_fraction": 0.01,
            "capacity_bytes": 1000, "scenario": None,
            "metrics": {"reads": 10, "read_misses": 3},
        }]),
        metrics={"n_tasks": 1, "tasks_executed": 1, "tasks_resumed": 0,
                 "tasks_failed": 0, "retries": 0, "failed_cells": []},
    ))
    return run


def _bench_point(root: Path, speedup: float, when: float) -> Path:
    return record_bench_run(
        root, "stackdist_sweep", {"speedup": speedup}, created_at=when
    )


def test_index_query_promote_compare_trajectory(tmp_path, capsys):
    root = tmp_path / "runs"
    _sweep_dir(root)
    _bench_point(root, 3.5, 10.0)
    _bench_point(root, 4.5, 20.0)
    baseline = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.0}}], created_at=30.0,
    )
    skewed = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.5}}], created_at=40.0,
    )
    base_hash = load_run_record(baseline).run_hash()
    skew_hash = load_run_record(skewed).run_hash()

    # The sweep dir lists alongside the emitted sweep records.
    assert main(["runs", "list", str(root), "--kind", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "(3)" in out and "bench-" not in out
    assert main(["runs", "list", str(root), "--kind", "sweep", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [run["schema_version"] for run in listed] == [2, 2, 2]
    assert [run["run_hash"] for run in listed][:2] == [base_hash, skew_hash]
    assert set(listed[0]) == {
        "run_hash", "kind", "config_hash", "schema_version", "status",
        "created_at", "wall_seconds", "path", "n_cells",
    }

    # Self-compare: exit 0, bit-identical.
    assert main(["runs", "compare", str(root), base_hash, base_hash]) == 0
    capsys.readouterr()

    # Skew: exit 1, readable per-cell diff.
    assert main(["runs", "compare", str(root), base_hash, skew_hash]) == 1
    out = capsys.readouterr().out
    assert "out of tolerance" in out and "1.5" in out

    # Tolerance flag admits the skew.
    assert main([
        "runs", "compare", str(root), base_hash, skew_hash,
        "--rel-tol", "0.5",
    ]) == 0
    capsys.readouterr()

    # Promote + implicit-baseline compare round-trips.
    assert main(["runs", "promote", str(root), base_hash[:8]]) == 0
    capsys.readouterr()
    assert main(["runs", "compare", str(root), base_hash]) == 0
    assert main(["runs", "compare", str(root), skew_hash]) == 1
    capsys.readouterr()
    assert main([
        "runs", "promote", str(root), skew_hash, "--name", "nightly",
    ]) == 0
    capsys.readouterr()
    assert main([
        "runs", "compare", str(root), skew_hash, "--baseline", "nightly",
    ]) == 0
    capsys.readouterr()

    # Trajectory renders both recorded bench points.
    assert main(["runs", "trajectory", str(root), "stackdist_sweep"]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out and "3.5" in out and "4.5" in out

    # The list table marks the promoted baselines.
    assert main(["runs", "list", str(root)]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    [base_line] = [line for line in out.splitlines() if baseline.name in line]
    [skew_line] = [line for line in out.splitlines() if skewed.name in line]
    assert base_line.split()[-1] == "default"
    assert skew_line.split()[-1] == "nightly"


def test_rewritten_record_is_read_as_it_stands(tmp_path, capsys):
    root = tmp_path / "runs"
    reference = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.0}}], created_at=30.0,
    )
    candidate = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.0}}], created_at=40.0,
        status="complete",
    )
    assert main(["runs", "compare", str(root), reference.name,
                 candidate.name]) == 0
    capsys.readouterr()

    # Rewrite the candidate in place, as a re-run or a resumed sweep does.
    record = load_run_record(candidate)
    record.status = "interrupted"
    record.rows[0]["values"]["v"] = 2.0
    write_run_record(candidate, record)

    assert main(["runs", "list", str(root), "--status", "interrupted",
                 "--json"]) == 0
    [listed] = json.loads(capsys.readouterr().out)
    assert listed["run_hash"] == record.run_hash()
    assert main(["runs", "list", str(root), "--status", "complete",
                 "--json"]) == 0
    assert [run["path"] for run in json.loads(capsys.readouterr().out)] == [
        str(reference)
    ]
    assert main(["runs", "compare", str(root), reference.name,
                 candidate.name]) == 1
    assert "2.0" in capsys.readouterr().out


def test_deleted_run_dir_is_gone(tmp_path, capsys):
    root = tmp_path / "runs"
    keep = _bench_point(root, 1.0, 10.0)
    gone = _bench_point(root, 2.0, 20.0)
    shutil.rmtree(gone)

    assert main(["runs", "list", str(root)]) == 0
    out = capsys.readouterr().out
    assert keep.name in out and gone.name not in out
    assert main(["runs", "compare", str(root), keep.name, gone.name]) == 2
    assert "no run matches" in capsys.readouterr().err


def test_rewritten_baseline_run_is_a_usage_error(tmp_path, capsys):
    root = tmp_path / "runs"
    promoted = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.0}}], created_at=30.0,
    )
    candidate = record_run(
        root, kind="sweep", config={"x": 1},
        rows=[{"cell": "c", "values": {"v": 1.0}}], created_at=40.0,
    )
    old_hash = load_run_record(promoted).run_hash()
    assert main(["runs", "promote", str(root), promoted.name]) == 0
    capsys.readouterr()

    record = load_run_record(promoted)
    record.status = "degraded"
    write_run_record(promoted, record)

    assert main(["runs", "compare", str(root), candidate.name]) == 2
    err = capsys.readouterr().err
    assert "baseline 'default'" in err and old_hash in err


def test_bare_scalar_bench_runs_compare_their_value(tmp_path, capsys):
    root = tmp_path / "runs"
    fast = record_bench_run(root, "generate_cold_seconds", 1.25,
                            created_at=10.0)
    slow = record_bench_run(root, "generate_cold_seconds", 12.5,
                            created_at=20.0)
    assert main(["runs", "compare", str(root), fast.name, slow.name]) == 1
    out = capsys.readouterr().out
    assert "1 shared cells x 1 metrics" in out
    assert "generate_cold_seconds" in out.split("\n", 1)[1]


def test_registry_usage_errors_exit_2(tmp_path, capsys):
    root = tmp_path / "runs"
    _bench_point(root, 1.0, 10.0)

    assert main(["runs", "compare", str(root), "nope", "nada"]) == 2
    assert "no run matches" in capsys.readouterr().err
    assert main(["runs", "compare", str(root), "deadbeef"]) == 2
    assert "no baseline" in capsys.readouterr().err
    assert main(["runs", "trajectory", str(root), "unknown_bench"]) == 2
    assert "no bench runs" in capsys.readouterr().err
    assert main(["runs", "promote", str(root), "zzzz"]) == 2
    capsys.readouterr()
    # A registry.sqlite left by an older version is ignored, not deleted.
    (root / "registry.sqlite").write_bytes(b"SQLite format 3\x00")
    assert main(["runs", "list", str(root)]) == 0
    assert "bench-" in capsys.readouterr().out
    assert (root / "registry.sqlite").is_file()
    # The index verbs and --db are gone.
    for argv in (["runs", "index", str(root)], ["runs", "query", str(root)],
                 ["runs", "list", str(root), "--db", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_corrupt_record_dir_skips_and_warns(tmp_path, capsys):
    root = tmp_path / "runs"
    good = _bench_point(root, 2.0, 10.0)
    bad = root / "bench-deadbeefdeadbeef"
    bad.mkdir(parents=True)
    (bad / RECORD_FILENAME).write_text("{not json")

    assert main(["runs", "list", str(root)]) == 0
    captured = capsys.readouterr()
    assert good.name in captured.out
    assert bad.name not in captured.out
    assert "warning" in captured.err and bad.name in captured.err

    assert main(["runs", "trajectory", str(root), "stackdist_sweep"]) == 0
    captured = capsys.readouterr()
    assert "1 runs" in captured.out
    assert bad.name in captured.err
    assert main(["runs", "compare", str(root), bad.name, good.name]) == 2
    assert "damaged" in capsys.readouterr().err


def test_runs_list_is_deterministic_with_kind_column(tmp_path, capsys):
    root = tmp_path / "runs"
    _sweep_dir(root)
    _bench_point(root, 2.0, 100.0)
    record_run(root, kind="verify", config={},
               rows=[{"cell": "case-000", "values": {"ok": True}}],
               created_at=75.0)

    assert main(["runs", "list", str(root)]) == 0
    out = capsys.readouterr().out
    assert "kind" in out
    lines = [line for line in out.splitlines() if line.strip()]
    order = [line.split()[1] for line in lines if line.lstrip().startswith(
        ("sweep-", "bench-", "verify-"))]
    # created_at ordering: sweep (50) < verify (75) < bench (100).
    assert order == ["sweep", "verify", "bench"]

    assert main(["runs", "list", str(root)]) == 0
    assert capsys.readouterr().out == out


def test_runs_show_renders_both_schema_versions(tmp_path, capsys):
    root = tmp_path / "runs"
    sweep = _sweep_dir(root)
    v2 = _bench_point(root, 2.0, 10.0)

    # A sweep record shows its task counters and a per-cell table.
    assert main(["runs", "show", str(root), sweep.name]) == 0
    out = capsys.readouterr().out
    assert "1 executed" in out and "Recorded cells (1)" in out
    assert "classic:s0:lru:0.01" in out and "attempts" in out

    assert main(["runs", "show", str(root), v2.name]) == 0
    out = capsys.readouterr().out
    assert "schema v2" in out and "bench" in out
    assert "Recorded cells" in out

    # --json dumps the full v2 record payload.
    assert main(["runs", "show", str(root), v2.name, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads("{" + out.split("\n{", 1)[1])
    assert payload["kind"] == "bench"
    assert payload["metrics"]["stackdist_sweep"]["speedup"] == 2.0
