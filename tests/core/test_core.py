"""Paper constants, Study pipeline, experiment registry, CLI tests."""

import re

import pytest

from repro.core import paper
from repro.core.cli import build_parser, main
from repro.core.experiments import (
    experiment_ids,
    needs_dense_study,
    run_experiment,
)
from repro.core.study import Study, StudyConfig
from repro.trace.record import Device
from repro.workload.config import WorkloadConfig


# ---------------------------------------------------------------------------
# Paper constants sanity


def test_table3_internal_consistency():
    reads = paper.TABLE3[(None, False)]
    writes = paper.TABLE3[(None, True)]
    assert reads.references + writes.references == paper.ANALYZED_REFERENCES
    assert reads.gb_transferred + writes.gb_transferred == pytest.approx(
        paper.TABLE3_TOTAL.gb_transferred, rel=1e-4
    )


def test_device_totals_sum_to_grand_total():
    total_refs = sum(c.references for c in paper.TABLE3_DEVICE_TOTALS.values())
    assert total_refs == paper.ANALYZED_REFERENCES
    shares = sum(paper.DEVICE_REFERENCE_SHARES.values())
    assert shares == pytest.approx(1.0)


def test_error_fraction_value():
    assert paper.ERROR_FRACTION == pytest.approx(0.0476, abs=0.0005)
    # The published numbers do not subtract exactly (3,688,817 - 175,633 =
    # 3,513,184 vs the stated 3,515,794) -- an inconsistency in the paper
    # itself; we keep all three constants as published.
    assert paper.RAW_REFERENCES - paper.ERROR_REFERENCES == pytest.approx(
        paper.ANALYZED_REFERENCES, rel=0.001
    )


def test_read_write_ratio_is_two_to_one():
    assert paper.READ_WRITE_RATIO == pytest.approx(2.0, abs=0.02)


def test_storage_pyramid_related_constants():
    assert paper.SILO_CARTRIDGES * paper.CARTRIDGE_CAPACITY_BYTES == 1_200_000_000_000


# ---------------------------------------------------------------------------
# Study


@pytest.fixture(scope="module")
def study():
    return Study(StudyConfig(workload=WorkloadConfig(scale=0.004, seed=7)))


def test_study_lazy_trace(study):
    assert study.trace.n_events > 0
    # The raw stream is the generated trace, no DES replay involved.
    assert sum(len(b) for b in study.iter_batches("raw")) == study.trace.n_events


def test_study_streams(study):
    good = sum(len(b) for b in study.iter_batches("good"))
    deduped = sum(len(b) for b in study.iter_batches("deduped"))
    assert 0 < deduped < good < study.trace.n_events + 1


def test_study_table_comparisons(study):
    t3 = study.table3()
    assert t3.row("error fraction").relative_error < 0.1
    t4 = study.table4()
    assert t4.row("files (scaled)").relative_error < 0.01


def test_study_metrics_requires_simulation(study):
    with pytest.raises(ValueError):
        _ = study.mss_metrics


def test_iter_batches_rejects_unknown_kind(study):
    from repro.core.study import BATCH_KINDS

    with pytest.raises(ValueError) as excinfo:
        study.iter_batches("bogus")
    message = str(excinfo.value)
    assert "bogus" in message
    for kind in BATCH_KINDS:
        assert kind in message


def test_event_batches_rejects_non_bool_flag(study):
    # Passing an iter_batches-style kind string must fail loudly instead
    # of silently preparing the truthy default stream.
    with pytest.raises(ValueError, match="deduped=True/False"):
        study.event_batches("deduped")
    with pytest.raises(ValueError, match="iter_batches"):
        study.event_batches(1)


def test_scenario_study_streams_and_breaks_down_by_tenant():
    from repro.scenarios import build_scenario

    spec = build_scenario("mixed-tenant", scale=0.004, seed=7, days=30.0)
    scenario_study = Study(StudyConfig(scenario=spec))
    with pytest.raises(ValueError, match="no single SyntheticTrace"):
        _ = scenario_study.trace
    breakdown = scenario_study.tenant_breakdown()
    assert breakdown.labels == spec.tenants
    refs = {
        label: breakdown.tenant(label).grand_total().references
        for label in breakdown.labels
    }
    assert all(count > 0 for count in refs.values())
    batches = scenario_study.event_batches(deduped=True)
    assert batches and sum(len(b) for b in batches) > 0
    # Table 3 runs off the composed stream too.
    assert scenario_study.table3().row("error fraction").relative_error < 0.25


def test_scenario_study_rejects_des_latencies():
    from repro.scenarios import build_scenario

    spec = build_scenario("ncar-baseline", scale=0.004, seed=7, days=30.0)
    with pytest.raises(ValueError, match="simulate_latencies"):
        Study(StudyConfig(scenario=spec, simulate_latencies=True))


def test_dense_study_runs_des():
    dense = Study(StudyConfig.dense(scale=0.004, seed=7, days=4.0))
    good = list(dense.iter_batches("good"))
    assert dense.mss_metrics.total_completed == sum(len(b) for b in good)
    assert all((b.latency > 0).all() for b in good)


# ---------------------------------------------------------------------------
# Experiment registry


def test_registry_covers_every_artifact():
    ids = set(experiment_ids())
    expected = {
        "T1", "T2", "T3", "T4",
        "F1", "F2", "F3", "F4", "F5", "F6",
        "F7", "F8", "F9", "F10", "F11", "F12",
        "ABSTRACT", "S6",
    }
    assert expected <= ids


def test_dense_flags():
    assert needs_dense_study("F3")
    assert needs_dense_study("F7")
    assert not needs_dense_study("T3")


def test_run_experiment_unknown_id(study):
    with pytest.raises(ValueError):
        run_experiment("T99", study)


@pytest.mark.parametrize("exp_id", ["T1", "T4", "F1", "F2", "F11", "F12"])
def test_cheap_experiments_run(study, exp_id):
    result = run_experiment(exp_id, study)
    assert result.experiment_id == exp_id
    assert result.render()


# ---------------------------------------------------------------------------
# CLI


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["generate", "--scale", "0.002", "out.rt"])
    assert args.scale == 0.002


def test_cli_generate_and_analyze(tmp_path, capsys):
    out = tmp_path / "t.rt"
    assert main(["generate", "--scale", "0.002", "--seed", "7", str(out)]) == 0
    assert out.exists()
    assert main(["analyze", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Table 3" in printed


def test_cli_policies(capsys):
    code = main([
        "policies", "--scale", "0.002", "--seed", "7",
        "--capacity-fraction", "0.02",
        "--policy", "lru", "--policy", "stp",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "lru" in printed and "stp" in printed


def test_cli_replay(tmp_path, capsys):
    out = tmp_path / "t.rt"
    main(["generate", "--scale", "0.002", "--seed", "7", "--days", "4", str(out)])
    assert main(["replay", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "startup" in printed


# ---------------------------------------------------------------------------
# Trace store: CLI surface and Study cache plumbing


def test_cli_generate_store_and_trace_info(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main([
        "generate", "--scale", "0.002", "--seed", "7", "--days", "90",
        "--store", str(cache),
    ]) == 0
    printed = capsys.readouterr().out
    assert "stored" in printed and "shards" in printed
    store_dir = next(cache.glob("trace-*"))

    assert main(["trace", "info", str(store_dir)]) == 0
    info = capsys.readouterr().out
    assert "events:" in info and "config:" in info
    assert "seed:      7" in info
    assert "shard checksums:" in info

    assert main(["trace", "verify", str(store_dir)]) == 0
    assert "ok:" in capsys.readouterr().out

    # Analyzing the store directory gives the same Table 3 as the cache path.
    assert main(["analyze", str(store_dir)]) == 0
    from_store = capsys.readouterr().out
    assert main([
        "analyze", "--scale", "0.002", "--seed", "7", "--days", "90",
        "--cache-dir", str(cache),
    ]) == 0
    from_cache = capsys.readouterr().out
    assert from_store == from_cache
    assert "Table 3" in from_store


def test_cli_trace_info_rejects_non_store(tmp_path, capsys):
    assert main(["trace", "info", str(tmp_path)]) == 1
    assert "trace info:" in capsys.readouterr().err


def test_cli_generate_requires_some_output(capsys):
    assert main(["generate", "--scale", "0.002"]) == 2
    assert "--store" in capsys.readouterr().err


def test_cli_trace_import(tmp_path, capsys):
    out = tmp_path / "t.rt"
    main(["generate", "--scale", "0.002", "--seed", "7", "--days", "90", str(out)])
    capsys.readouterr()
    assert main(["trace", "import", str(out), str(tmp_path / "store")]) == 0
    assert "imported" in capsys.readouterr().out
    assert main(["analyze", str(tmp_path / "store")]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_study_cache_dir_streams_from_store(tmp_path):
    import numpy as np

    from repro.engine.store import store_dir_for

    config = WorkloadConfig(scale=0.004, seed=7)
    plain = Study(StudyConfig(workload=config))
    cached = Study(StudyConfig(workload=config, cache_dir=str(tmp_path)))
    cold = list(cached.iter_batches("raw"))  # writes the store
    assert (store_dir_for(tmp_path, config) / "manifest.json").is_file()

    warm_study = Study(StudyConfig(workload=config, cache_dir=str(tmp_path)))
    warm = list(warm_study.iter_batches("raw"))
    assert warm_study._trace is None  # warm path never generated
    assert isinstance(warm[0].time, np.memmap)

    for kind in ("raw", "good", "deduped"):
        want = list(plain.iter_batches(kind))
        got = list(Study(StudyConfig(workload=config,
                                     cache_dir=str(tmp_path))).iter_batches(kind))
        assert sum(len(b) for b in got) == sum(len(b) for b in want)
        assert np.array_equal(
            np.concatenate([b.time for b in got]),
            np.concatenate([b.time for b in want]),
        )
    assert cold and warm


def test_study_cache_dir_table3_matches_uncached(tmp_path):
    config = WorkloadConfig(scale=0.004, seed=7)
    plain = Study(StudyConfig(workload=config)).table3().render()
    cached = Study(
        StudyConfig(workload=config, cache_dir=str(tmp_path))
    ).table3().render()
    assert plain == cached


def test_study_trace_store_requires_cache_dir():
    study = Study(StudyConfig(workload=WorkloadConfig(scale=0.004, seed=7)))
    with pytest.raises(ValueError, match="cache_dir"):
        study.trace_store()


def test_cli_trace_import_clean_errors(tmp_path, capsys):
    assert main(["trace", "import", str(tmp_path / "missing.rt"),
                 str(tmp_path / "s")]) == 1
    assert "trace import:" in capsys.readouterr().err
    out = tmp_path / "t.rt"
    main(["generate", "--scale", "0.002", "--seed", "7", "--days", "90", str(out)])
    capsys.readouterr()
    assert main(["trace", "import", str(out), str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert main(["trace", "import", str(out), str(tmp_path / "s")]) == 1
    assert "already exists" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro report: determinism, RunRecord, registry listing


def _comparison_rows(text):
    """Data rows of every paper-vs-measured table in a report's stdout."""
    lines = text.splitlines()
    count = 0
    for index, line in enumerate(lines):
        if line.split()[:3] == ["statistic", "paper", "measured"]:
            rule = lines[index + 1]
            rel_err = [match.span() for match in re.finditer(r"-+", rule)][3]
            for row in lines[index + 2:]:
                if len(row) != len(rule) or not row[slice(*rel_err)].endswith("%"):
                    break
                count += 1
    return count


def test_cli_report_is_deterministic_and_recorded(tmp_path, capsys):
    import time

    from repro.registry.record import load_run_record

    args = ["report", "--scale", "0.002", "--days", "60", "--run-dir", str(tmp_path)]
    bodies, records, tails = [], [], []
    for extra in ([], ["--profile"]):
        started = time.perf_counter()
        assert main(args + extra) == 0
        elapsed = time.perf_counter() - started
        body, marker, tail = capsys.readouterr().out.partition("recorded run: ")
        assert marker, "report --run-dir printed no run path"
        record = load_run_record(tail.splitlines()[0])
        assert record.kind == "report"
        # The recorded wall time spans the whole command in both modes.
        assert 0 < record.wall_seconds <= elapsed
        bodies.append(body)
        records.append(record)
        tails.append(tail)
    assert bodies[0] == bodies[1]
    # --profile prints the wall-time table, with the generator's stages
    # indented under "generate".
    assert "profile (wall time):" not in tails[0]
    assert "profile (wall time):" in tails[1]
    for stage in ("namespace", "chains", "placement", "sessions"):
        assert stage in tails[1]

    plain, profiled = records
    assert plain.metrics == {}
    stages = profiled.metrics
    assert sorted(stages) == ["analyze_seconds", "generate_seconds", "replay_seconds"]
    assert all(seconds > 0 for seconds in stages.values())
    assert profiled.wall_seconds >= sum(stages.values())

    n_rows = _comparison_rows(bodies[0])
    assert n_rows > 20
    for record in records:
        assert len(record.rows) == n_rows
        assert all({"paper", "measured"} <= set(row["values"]) for row in record.rows)

    assert main(["runs", "list", str(tmp_path)]) == 0
    listed = [line.split() for line in capsys.readouterr().out.splitlines()]
    reports = [cols for cols in listed if cols[1:2] == ["report"]]
    assert len(reports) == 2
    # columns: run, kind, status, tasks, rows, failed, retries
    assert all(cols[2] == "complete" and cols[4] == str(n_rows) for cols in reports)
