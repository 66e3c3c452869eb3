"""The one durable writer and the one content hash (repro.util.durable)."""

import os
import stat

import numpy as np
import pytest

from repro.core.study import StudyConfig
from repro.engine.batch import EventBatch
from repro.engine.resilience import sweep_config_hash
from repro.engine.store import config_hash
from repro.engine.sweep import SweepConfig
from repro.registry.record import RunRecord, write_run_record
from repro.scenarios.library import build_scenario
from repro.serve.journal import SessionJournal
from repro.util.durable import write_atomic, write_json
from repro.workload.config import WorkloadConfig


def _batch(n=4):
    return EventBatch.from_columns(
        file_id=np.arange(n), size=np.full(n, 100),
        time=np.arange(n, dtype=float), is_write=np.zeros(n, dtype=bool),
        device=np.zeros(n, dtype=np.int8), error=np.zeros(n, dtype=np.int8),
    )


@pytest.fixture
def durability_log(monkeypatch):
    """Record every ``os.fsync`` (as file or dir, by inode) and
    ``os.replace`` (as target name), in call order."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
        calls.append(("fsync", kind, info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst), None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def test_write_json_form(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": np.int64(3), "a": [np.float64(0.5)]})
    assert path.read_text() == '{\n "a": [\n  0.5\n ],\n "b": 3\n}\n'


@pytest.mark.parametrize("publish", ["run-record", "snapshot"])
def test_publish_fsyncs_temp_before_rename_and_dir_after(
    tmp_path, durability_log, publish
):
    if publish == "run-record":
        write_run_record(tmp_path, RunRecord(kind="bench", created_at=0.0))
        name = "run_record.json"
    else:
        SessionJournal(tmp_path).write_snapshot(3, {"state": 1})
        name = "snapshot-0000000003.pkl"
    file_inode = os.stat(tmp_path / name).st_ino
    assert durability_log == [
        ("fsync", "file", file_inode),
        ("replace", name, None),
        ("fsync", "dir", os.stat(tmp_path).st_ino),
    ]


def test_first_journal_append_fsyncs_session_dir(tmp_path, durability_log):
    journal = SessionJournal(tmp_path / "session")
    journal.append(_batch())
    dir_inode = os.stat(tmp_path / "session").st_ino
    journal_inode = os.stat(tmp_path / "session" / "journal.bin").st_ino
    assert durability_log == [
        ("fsync", "dir", dir_inode), ("fsync", "file", journal_inode),
    ]
    durability_log.clear()
    journal.append(_batch())
    journal.close()
    assert durability_log == [("fsync", "file", journal_inode)]


def test_failed_serialization_keeps_old_record_and_no_temp(tmp_path):
    write_run_record(tmp_path, RunRecord(kind="bench", created_at=0.0))
    before = (tmp_path / "run_record.json").read_bytes()
    unserializable = RunRecord(
        kind="bench", created_at=1.0, metrics={"bad": object()}
    )
    with pytest.raises(TypeError):
        write_run_record(tmp_path, unserializable)
    assert (tmp_path / "run_record.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["run_record.json"]


def test_failed_write_unlinks_temp(tmp_path, monkeypatch):
    path = tmp_path / "blob.bin"
    write_atomic(path, b"old")

    def broken_fsync(fd):
        raise OSError("device gone")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="device gone"):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["blob.bin"]


def test_published_file_mode_follows_umask(tmp_path):
    previous = os.umask(0o027)
    try:
        write_json(tmp_path / "doc.json", {})
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(os.stat(tmp_path / "doc.json").st_mode)
    assert mode == 0o640


def test_content_addresses_do_not_move():
    """Cache slots, CI cache keys and sweep run dirs keep their names.

    A generator, store-format or record version bump moves these values
    on purpose; update them in the same change.
    """
    dense = StudyConfig.dense(scale=0.02, seed=42, days=14.62).workload
    assert config_hash(dense) == "e10494cc7aeea6f223e2056829742218"
    small = WorkloadConfig(scale=0.005, seed=0, fill_latencies=False)
    assert config_hash(small, "hsm") == "124f58a8c3e227a8288dec65295b2c51"
    spec = build_scenario("flash-crowd", scale=0.002, seed=0, days=30.0)
    assert spec.scenario_hash() == "fc47a29fc69ed0fdfe3ae647b79c8412"
    sweep = SweepConfig(
        policies=("stp", "lru"), capacity_fractions=(0.01, 0.04),
        scale=0.002, duration_days=90.0,
    )
    assert sweep_config_hash(sweep) == "06cf560dfe0b1c95"
    record = RunRecord(
        kind="bench", config={"scale": 0.005, "seed": 3}, created_at=0.0
    )
    assert record.config_hash == "acf1c52f6f642762"
    assert record.run_hash() == "47f4502b1066eb87"

