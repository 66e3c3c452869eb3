"""Byte-for-byte golden copies of the paper-facing outputs.

Each case reruns one CLI command in a fresh interpreter and compares its
output with the committed copy next to this module:

* ``report_scale0.005_seed3.txt``: the stdout of
  ``repro report --scale 0.005 --seed 3``;
* ``chaos_run_episodes7_seed7.json``: the report file of
  ``repro chaos run --episodes 7 --seed 7 --report FILE``;
* ``verify_diff_cases20_seed0.json``: the JSON of
  ``REPRO_CHECK_INVARIANTS=1 repro verify diff --cases 20 --seed 0
  --output FILE``;
* ``analyze_scale0.002_seed3_days90.txt``: the stdout of
  ``repro analyze FILE`` on the trace file that
  ``repro generate --scale 0.002 --seed 3 --days 90 FILE`` writes.

The outputs follow numpy's ``Generator`` streams, which NEP 19 lets
change between numpy feature releases, so ``numpy_version.txt`` records
the numpy the copies were made with.  A case compares only when the
running numpy has the same major.minor version, and skips otherwise.

A change that moves a number regenerates the copies in the same diff,
from the repository root (``PYTHONPATH=src`` without an install)::

    G=tests/golden
    python -m repro report --scale 0.005 --seed 3 > $G/report_scale0.005_seed3.txt
    python -m repro chaos run --episodes 7 --seed 7 \\
        --report $G/chaos_run_episodes7_seed7.json
    REPRO_CHECK_INVARIANTS=1 python -m repro verify diff --cases 20 \\
        --seed 0 --output $G/verify_diff_cases20_seed0.json
    python -m repro generate --scale 0.002 --seed 3 --days 90 /tmp/golden.trace
    python -m repro analyze /tmp/golden.trace > $G/analyze_scale0.002_seed3_days90.txt
    python -c "import numpy; print(numpy.__version__)" > $G/numpy_version.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

GOLDEN = Path(__file__).parent


def _minor(version: str) -> tuple:
    return tuple(version.strip().split(".")[:2])


def _repro(*argv: str, env_extra=None) -> bytes:
    """Run ``python -m repro ARGV`` and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).parents[1])
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env,
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def _report(tmp_path: Path) -> bytes:
    return _repro("report", "--scale", "0.005", "--seed", "3")


def _chaos(tmp_path: Path) -> bytes:
    out = tmp_path / "chaos_report.json"
    _repro("chaos", "run", "--episodes", "7", "--seed", "7",
           "--report", str(out))
    return out.read_bytes()


def _diff(tmp_path: Path) -> bytes:
    out = tmp_path / "diff.json"
    _repro("verify", "diff", "--cases", "20", "--seed", "0",
           "--output", str(out), env_extra={"REPRO_CHECK_INVARIANTS": "1"})
    return out.read_bytes()


def _analyze(tmp_path: Path) -> bytes:
    trace = tmp_path / "golden.trace"
    _repro("generate", "--scale", "0.002", "--seed", "3", "--days", "90",
           str(trace))
    return _repro("analyze", str(trace))


CASES = {
    "report_scale0.005_seed3.txt": _report,
    "chaos_run_episodes7_seed7.json": _chaos,
    "verify_diff_cases20_seed0.json": _diff,
    "analyze_scale0.002_seed3_days90.txt": _analyze,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_copy(name, tmp_path):
    made_with = (GOLDEN / "numpy_version.txt").read_text().strip()
    if _minor(made_with) != _minor(np.__version__):
        pytest.skip(
            f"golden copies were made with numpy {made_with}; running "
            f"numpy {np.__version__} may draw different Generator streams"
        )
    expected = (GOLDEN / name).read_bytes()
    assert CASES[name](tmp_path) == expected
