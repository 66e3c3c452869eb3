"""The runs-root scan + compare gate: one ledger, bit-identity, tolerances.

The acceptance contract: scanning a mixed-kind runs root reads back
every record, the cell values it hands to ``compare`` reproduce the
run-dir JSON numbers exactly (binary64 for binary64, int for int), a
rewritten or deleted run dir is read as it now stands, identical runs
compare clean at zero tolerance, and an injected skew trips the gate.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.registry.compare import (
    BASELINES_FILENAME,
    Tolerance,
    baseline_record,
    compare_cells,
    compare_runs,
    load_baselines,
    promote,
)
from repro.registry.emit import (
    record_bench_run,
    record_chaos_run,
    record_run,
    record_verify_run,
)
from repro.registry.record import (
    RECORD_FILENAME,
    RegistryError,
    load_run_record,
    resolve_run,
    scan_runs_root,
    write_run_record,
)
from repro.registry.views import (
    bench_history,
    bench_view_payload,
    render_trajectory,
)


def _sweep_like_run(root, value: float = 0.8023, created_at: float = 10.0):
    return record_run(
        root,
        kind="sweep",
        config={"policies": ["lru"]},
        rows=[
            {
                "cell": "classic:s0:lru:0.01",
                "policy": "lru",
                "seed": 0,
                "capacity_fraction": 0.01,
                "values": {
                    "read_miss_ratio": value,
                    "reads": 12345,
                    "capacity_bytes": 987654321,
                },
                "meta": {"attempts": 1, "status": "ok"},
            },
        ],
        created_at=created_at,
    )


def test_mixed_kind_root_indexes_and_reindexes_idempotently(tmp_path):
    _sweep_like_run(tmp_path)
    record_bench_run(tmp_path, "b", {"speedup": 3.5}, created_at=20.0)
    record_verify_run(tmp_path, {
        "seed": 0, "cases": 1, "engines": ["des", "stack"], "ok": True,
        "results": [{"case": 0, "ok": True, "events": 9,
                     "config": {"policy": "lru"}}],
    })
    record_chaos_run(tmp_path, {
        "master_seed": 0, "episodes": 1, "kinds": ["kill"], "ok": True,
        "results": [{"episode": 0, "kind": "kill", "ok": True,
                     "checks": {"recovered": True}}],
    })

    entries = scan_runs_root(tmp_path)
    assert not any(entry["corrupt"] for entry in entries)
    kinds = sorted(entry["record"].kind for entry in entries)
    assert kinds == ["bench", "chaos", "sweep", "verify"]
    # A second read of an unchanged root is the same ledger.
    assert [entry["run_hash"] for entry in scan_runs_root(tmp_path)] == [
        entry["run_hash"] for entry in entries
    ]


def test_indexed_values_are_bit_identical_to_run_dir_json(tmp_path):
    run_dir = _sweep_like_run(tmp_path, value=0.1 + 0.2)  # 0.30000000000000004
    [entry] = scan_runs_root(tmp_path)

    cells = entry["record"].cells()
    from_json = json.loads((run_dir / RECORD_FILENAME).read_text())
    [row] = from_json["rows"]
    for metric, value in row["values"].items():
        stored = cells[row["cell"]][metric]
        assert stored == value
        assert type(stored) is type(value)
    # And the full record payload survives the load losslessly.
    assert entry["record"].to_payload() == from_json


def test_rewritten_run_dir_replaces_stale_rows(tmp_path):
    run_dir = _sweep_like_run(tmp_path, value=0.5)
    old = load_run_record(run_dir)

    # The dir is rewritten in place (a resumed sweep, a re-run bench).
    record = load_run_record(run_dir)
    record.rows[0]["values"]["read_miss_ratio"] = 0.25
    write_run_record(run_dir, record)

    [entry] = scan_runs_root(tmp_path)
    assert entry["run_hash"] != old.run_hash()
    assert entry["record"].cells()["classic:s0:lru:0.01"][
        "read_miss_ratio"] == 0.25
    result = compare_runs(old, entry["record"])
    assert [diff.right for diff in result.diffs] == [0.25]

    # A deleted dir is gone from the next read.
    shutil.rmtree(run_dir)
    assert scan_runs_root(tmp_path) == []


def test_self_compare_is_exact_at_zero_tolerance(tmp_path):
    record = load_run_record(_sweep_like_run(tmp_path, value=0.1 + 0.2))
    result = compare_runs(record, record)
    assert result.ok and result.n_cells == 1


def test_skew_trips_the_gate_with_readable_diff(tmp_path):
    left = load_run_record(_sweep_like_run(tmp_path, value=0.8023))
    right = load_run_record(
        _sweep_like_run(tmp_path, value=0.8123, created_at=20.0)
    )

    result = compare_runs(left, right)
    assert not result.ok
    [diff] = result.diffs
    assert diff.metric == "read_miss_ratio"
    assert (diff.left, diff.right) == (0.8023, 0.8123)
    rendered = result.render()
    assert "read_miss_ratio" in rendered and "classic:s0:lru:0.01" in rendered

    # A loose-enough relative tolerance accepts the skew...
    assert compare_runs(left, right, Tolerance(rel=0.02)).ok
    # ...and so does an absolute one; a tighter one does not.
    assert compare_runs(left, right, Tolerance(abs=0.011)).ok
    assert not compare_runs(left, right, Tolerance(abs=0.001)).ok


def test_bench_rows_name_bare_scalars_after_the_benchmark(tmp_path):
    scalar = load_run_record(record_bench_run(
        tmp_path, "generate_cold_seconds", 1.25, created_at=10.0,
    ))
    assert scalar.cells() == {
        "generate_cold_seconds": {"generate_cold_seconds": 1.25}
    }
    # Dict payloads keep their dotted rows.
    nested = load_run_record(record_bench_run(
        tmp_path, "b", {"speedup": 3.5, "per_policy": {"lru": {"t": 1.0}}},
    ))
    assert nested.cells() == {"b": {"speedup": 3.5, "per_policy.lru.t": 1.0}}


def test_missing_cells_and_metrics_are_regressions():
    left = {"a": {"m": 1}, "b": {"m": 2, "n": 3}}
    right = {"a": {"m": 1}, "c": {"m": 4}}
    result = compare_cells(left, {**left, "b": {"m": 2}})
    assert not result.ok  # metric n vanished
    assert result.diffs[0].right == "<absent>"
    result = compare_cells(left, right)
    assert result.only_left == ["b"] and result.only_right == ["c"]
    assert not result.ok


def test_promote_and_baseline_round_trip(tmp_path):
    run_dir = _sweep_like_run(tmp_path)
    record = load_run_record(run_dir)
    promote(tmp_path, "default", record)
    assert load_baselines(tmp_path)["default"]["run_hash"] == record.run_hash()
    assert (tmp_path / BASELINES_FILENAME).is_file()
    entries = scan_runs_root(tmp_path)
    assert baseline_record(tmp_path, entries, "default").run_hash() == \
        record.run_hash()
    with pytest.raises(RegistryError, match="no baseline named"):
        baseline_record(tmp_path, entries, "nightly")
    with pytest.raises(RegistryError, match="no run matches"):
        resolve_run(entries, "feedfeedfeedfeed")

    # The baselines file is not a run dir: the scan still sees one run.
    assert len(entries) == 1
    # A rewritten run no longer matches the hash the baseline pins.
    record.status = "interrupted"
    write_run_record(run_dir, record)
    with pytest.raises(RegistryError, match="'default'.*no longer under"):
        baseline_record(tmp_path, scan_runs_root(tmp_path), "default")


def test_resolve_by_prefix_name_and_ambiguity(tmp_path):
    run_dir = _sweep_like_run(tmp_path)
    record_bench_run(tmp_path, "b", {"speedup": 1.0}, created_at=20.0)
    bad = tmp_path / "sweep-feedfeedfeedfeed"
    bad.mkdir()
    (bad / RECORD_FILENAME).write_text("{torn")
    entries = scan_runs_root(tmp_path)
    run_hash = load_run_record(run_dir).run_hash()
    config_hash = load_run_record(run_dir).config_hash
    assert resolve_run(entries, run_hash[:6])["run_hash"] == run_hash
    assert resolve_run(entries, run_dir.name)["run_hash"] == run_hash
    assert resolve_run(entries, config_hash[:8])["run_hash"] == run_hash
    # A damaged dir resolves by its name only.
    assert resolve_run(entries, bad.name)["record"] is None
    with pytest.raises(RegistryError, match="no run matches"):
        resolve_run(entries, "feedfeed")
    with pytest.raises(RegistryError, match="no run matches"):
        resolve_run(entries, "zzzz")
    with pytest.raises(RegistryError, match="ambiguous"):
        resolve_run(entries, "")  # empty prefix matches everything


def test_bench_history_and_trajectory(tmp_path):
    record_bench_run(
        tmp_path, "stackdist_sweep",
        {"speedup": 3.5, "per_policy": {"lru": {"t": 1.0}}}, created_at=10.0,
    )
    record_bench_run(
        tmp_path, "stackdist_sweep", {"speedup": 4.5}, created_at=20.0,
    )
    record_bench_run(tmp_path, "store_cold_seconds", 0.75, created_at=30.0)
    entries = scan_runs_root(tmp_path)
    history = bench_history(entries, "stackdist_sweep")
    assert [point["metrics"]["speedup"] for point in history] == [3.5, 4.5]
    # Dotted breakdown keys stay out of the top-level trajectory.
    assert "per_policy.lru.t" not in history[0]["metrics"]
    # A bare-scalar payload is one metric named after its benchmark.
    [scalar] = bench_history(entries, "store_cold_seconds")
    assert scalar["metrics"] == {"store_cold_seconds": 0.75}

    rendered = render_trajectory(entries, "stackdist_sweep")
    assert "3.5" in rendered and "4.5" in rendered
    with pytest.raises(RegistryError, match="no bench runs"):
        render_trajectory(entries, "nope")
    with pytest.raises(RegistryError, match="no metric"):
        render_trajectory(entries, "stackdist_sweep", metric="bogus")

    view = bench_view_payload(entries, "stackdist_sweep")
    assert view["runs_indexed"] == 2
    assert view["latest"]["speedup"] == 4.5
    assert [point["speedup"] for point in view["history"]] == [3.5, 4.5]
