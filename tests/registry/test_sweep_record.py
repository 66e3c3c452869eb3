"""Acceptance: a real sweep's registry record reproduces its numbers.

``sweep --run-dir`` writes ``run_record.json``, its one checkpoint and
registry record; scanning the root and reading the cells back hands
back the exact binary64/int values the checkpointed rows hold, and
``repro runs compare`` gates on those same values.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.engine import SweepConfig, run_sweep
from repro.engine.sweep import row_to_dict
from repro.registry.record import (
    RECORD_FILENAME,
    cell_key,
    load_run_record,
    scan_runs_root,
)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep-record")
    config = SweepConfig(
        policies=("stp", "lru"),
        capacity_fractions=(0.01, 0.04),
        scale=0.002,
        duration_days=60,
        cache_dir=str(base / "cache"),
        run_dir=str(base / "runs"),
        engine="auto",
    )
    result = run_sweep(config)
    return base / "runs", result


def test_sweep_emits_v2_record(swept):
    runs_root, result = swept
    run_dir = Path(result.run_path)
    assert (run_dir / RECORD_FILENAME).is_file()
    record = load_run_record(run_dir)
    assert record.schema_version == 2
    assert record.kind == "sweep"
    assert record.status == "complete"
    assert record.config_hash == run_dir.name.split("-", 1)[1]
    assert record.created_at is not None
    assert len(record.rows) == len(result.rows) == 4
    assert record.code_versions["generator"] >= 1

    # Row values are the SweepRow numbers, exactly.
    by_cell = record.cells()
    for row in result.rows:
        cell = cell_key(row.scenario, row.seed, row.policy,
                        row.capacity_fraction)
        values = by_cell[cell]
        assert values["capacity_bytes"] == row.capacity_bytes
        for name, value in row_to_dict(row)["metrics"].items():
            assert values[name] == value


def test_indexed_sweep_cells_bit_identical_and_cli_gate(swept, capsys):
    runs_root, result = swept
    run_dir = Path(result.run_path)

    [entry] = scan_runs_root(runs_root)
    run_hash = entry["run_hash"]
    cells = entry["record"].cells()
    payload = json.loads((run_dir / RECORD_FILENAME).read_text())
    for row in payload["rows"]:
        for metric, value in row["values"].items():
            stored = cells[row["cell"]][metric]
            assert stored == value and type(stored) is type(value)

    # Self-compare through the CLI: bit-identical, exit 0.
    assert main(["runs", "compare", str(runs_root), run_hash, run_hash]) == 0
    out = capsys.readouterr().out
    assert "identical within tolerance" in out

    # The dir name (config-hash addressed) resolves too.
    assert main([
        "runs", "compare", str(runs_root), run_dir.name, run_hash,
    ]) == 0
    capsys.readouterr()
