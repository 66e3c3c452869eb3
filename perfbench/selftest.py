#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

For each workload it checks that

* an untraced run emits exactly the end-to-end metrics of
  ``BENCHMARK.json`` (each a finite number above 0) and a traced run
  exactly the per-layer metrics;
* every correctness check fails the run -- non-zero exit, no result
  line -- when handed a deliberately wrong reference;
* the runs leave the git working tree as they found it;

and that ``run.py`` refuses to run, without a result line, in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Each workload's correctness checks, by their ``--corrupt`` names.
CHECKS = {
    "sweep": ("sweep-cells",),
    "report": ("report-s6", "report-identity"),
    "serve": ("serve-final", "serve-recovery"),
}

TIMEOUT = 180


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )


def result_line(stdout: str):
    """The JSON result on the last line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def git_status():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sections = {
        "0": [metric["name"] for metric in bench["end_to_end"]],
        "1": [metric["name"] for metric in bench["per_layer"]],
    }
    failures = []
    before = git_status()
    for workload, checks in CHECKS.items():
        base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--size", "tiny"]
        for trace, names in sections.items():
            started = time.monotonic()
            proc = run(base + ["--trace", trace])
            result = result_line(proc.stdout)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            emitted = list(result["metrics"])
            if emitted != names:
                failures.append(f"{label}: metrics {emitted} != {names}")
            if trace == "0":
                bad = [name for name, metric in result["metrics"].items()
                       if not (math.isfinite(metric["value"]) and metric["value"] > 0)]
                if bad:
                    failures.append(f"{label}: zero or non-finite {bad}")
            print(f"ok  {label}: {len(emitted)} metrics "
                  f"({time.monotonic() - started:.1f} s)")
        for check in checks:
            proc = run(base + ["--trace", "0", "--corrupt", check])
            if proc.returncode == 0 or result_line(proc.stdout) is not None:
                failures.append(f"{workload}: check {check} did not trip")
            else:
                print(f"ok  {workload}: check {check} trips on a wrong reference")

    empty = HERE / ".work" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, empty / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    try:
        proc = run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=empty)
        if proc.returncode == 0 or result_line(proc.stdout) is not None:
            failures.append("run.py printed a result without the program")
        else:
            print("ok  a directory without the program: exit "
                  f"{proc.returncode}, no result")
    finally:
        shutil.rmtree(empty, ignore_errors=True)
        try:
            empty.parent.rmdir()
        except OSError:
            pass

    after = git_status()
    if before != after:
        failures.append(f"working tree changed:\n{before}\n->\n{after}")
    elif before is not None:
        print("ok  the git working tree is unchanged")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
