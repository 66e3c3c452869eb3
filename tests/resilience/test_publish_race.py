"""Two processes publishing one file while a third reads it.

Every published file goes through one writer, so a reader sees the old
file or the new one, never a mix, and two writers of one path never
share a temp file.  The writers are real processes, so the test covers
what a threaded test cannot: separate file tables racing on one
directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro

#: Publishes one ~1 MB JSON payload, tagged by writer, ``ROUNDS`` times.
WRITER = """
import sys
from repro.registry.record import RunRecord, write_run_record
run_dir, tag, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
record = RunRecord(kind="bench", created_at=0.0,
                   metrics={"writer": tag, "blob": tag * 1_000_000})
for _ in range(rounds):
    write_run_record(run_dir, record)
"""

ROUNDS = 60


def test_concurrent_publishers_never_tear_a_read(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).parents[1])
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    path = tmp_path / "run_record.json"
    path.write_text(json.dumps({"metrics": {"writer": "initial"}}))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(tmp_path), tag, str(ROUNDS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for tag in ("a", "b")
    ]
    reads = 0
    deadline = time.monotonic() + 120.0
    try:
        while any(w.poll() is None for w in writers):
            assert time.monotonic() < deadline, "writers did not finish"
            metrics = json.loads(path.read_text())["metrics"]  # torn: fails
            if metrics["writer"] != "initial":
                assert metrics["blob"] == metrics["writer"] * 1_000_000
            reads += 1
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
    for writer in writers:
        _, err = writer.communicate(timeout=60)
        assert writer.returncode == 0, err.decode()
        assert not err, err.decode()
    final = json.loads(path.read_text())["metrics"]
    assert final["writer"] in ("a", "b")
    assert final["blob"] == final["writer"] * 1_000_000
    assert reads > 0
    assert os.listdir(tmp_path) == ["run_record.json"]
