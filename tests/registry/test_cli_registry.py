"""The ``repro runs`` registry verbs, end to end through ``main``.

index -> query -> promote -> compare -> trajectory over a runs root
holding sweep, bench and verify records, and damage; exit codes are the
contract CI scripts on (compare: 1 on regression, 2 on usage errors).
"""

from __future__ import annotations

import json
from pathlib import Path

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

    assert main(["runs", "index", str(root)]) == 0
    out = capsys.readouterr().out
    assert "indexed 5 new" in out

    # The sweep dir indexes alongside the emitted sweep records.
    assert main(["runs", "query", str(root), "--kind", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "Indexed runs (3)" in out and "v2" in out

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

    # Trajectory renders both indexed bench points.
    assert main(["runs", "trajectory", str(root), "stackdist_sweep"]) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out and "3.5" in out and "4.5" in out

    # The query table marks the promoted baselines.
    assert main(["runs", "query", str(root)]) == 0
    out = capsys.readouterr().out
    assert "default" in out and "nightly" in out


def test_registry_usage_errors_exit_2(tmp_path, capsys):
    root = tmp_path / "runs"
    _bench_point(root, 1.0, 10.0)

    # No database yet: query-side verbs fail with a pointer to index.
    assert main(["runs", "query", str(root)]) == 2
    assert "runs index" in capsys.readouterr().err

    assert main(["runs", "index", str(root)]) == 0
    capsys.readouterr()
    assert main(["runs", "compare", str(root), "nope", "nada"]) == 2
    assert "no indexed run" in capsys.readouterr().err
    assert main(["runs", "compare", str(root), "deadbeef"]) == 2
    assert "no baseline" in capsys.readouterr().err
    assert main(["runs", "trajectory", str(root), "unknown_bench"]) == 2
    assert "no bench runs" in capsys.readouterr().err
    assert main(["runs", "promote", str(root), "zzzz"]) == 2
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

    assert main(["runs", "index", str(root)]) == 0
    captured = capsys.readouterr()
    assert "indexed 1 new" in captured.out
    assert bad.name in captured.err


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
