"""``repro runs list|show`` on damaged run dirs: skip and warn, never
raise.  A crash or a bad disk can leave a truncated or mangled
``run_record.json``; inspecting the runs root must keep working."""

from __future__ import annotations

from pathlib import Path

from repro.core.cli import main
from repro.registry.record import (
    RECORD_FILENAME,
    RunRecord,
    load_run_record,
    scan_runs_root,
    write_run_record,
)


def _good_run(root: Path, name: str = "sweep-aaaa000000000000") -> Path:
    run = root / name
    write_run_record(run, RunRecord(
        kind="sweep", config={}, config_hash=name.split("-")[1],
        status="complete",
        metrics={"n_tasks": 4, "tasks_executed": 4, "tasks_resumed": 0,
                 "tasks_failed": 0, "retries": 0, "failed_cells": []},
    ))
    return run


def test_truncated_summary_is_skipped_with_warning(tmp_path, capsys):
    runs_root = tmp_path / "runs"
    good = _good_run(runs_root)
    bad = _good_run(runs_root, "sweep-bbbb111111111111")
    # Truncate the record mid-write, the way a crash would.
    full = (bad / RECORD_FILENAME).read_text()
    (bad / RECORD_FILENAME).write_text(full[: len(full) // 2])

    records = {run["name"]: run for run in scan_runs_root(runs_root)}
    assert records[good.name]["corrupt"] == []
    assert records[bad.name]["corrupt"] == [RECORD_FILENAME]
    assert records[bad.name]["status"] == "corrupt"
    assert load_run_record(bad) is None

    assert main(["runs", "list", str(runs_root)]) == 0
    captured = capsys.readouterr()
    assert good.name in captured.out
    assert bad.name not in captured.out
    assert "warning" in captured.err and bad.name in captured.err


def test_non_dict_config_is_skipped_with_warning(tmp_path, capsys):
    runs_root = tmp_path / "runs"
    bad = _good_run(runs_root)
    (bad / RECORD_FILENAME).write_text('"not a dict"')

    [record] = scan_runs_root(runs_root)
    assert record["corrupt"] == [RECORD_FILENAME]

    assert main(["runs", "list", str(runs_root)]) == 0
    assert "warning" in capsys.readouterr().err


def test_runs_show_on_corrupt_run_warns_and_survives(tmp_path, capsys):
    runs_root = tmp_path / "runs"
    bad = _good_run(runs_root)
    (bad / RECORD_FILENAME).write_text("{curly disaster")

    assert main(["runs", "show", str(runs_root), bad.name]) == 0
    captured = capsys.readouterr()
    assert "corrupt" in captured.out  # the status line
    assert "warning" in captured.err


def test_stray_files_in_runs_root_are_ignored(tmp_path):
    runs_root = tmp_path / "runs"
    _good_run(runs_root)
    (runs_root / "notes.txt").write_text("not a run dir")
    (runs_root / "empty-dir").mkdir()

    assert len(scan_runs_root(runs_root)) == 1
