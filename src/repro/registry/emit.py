"""RunRecord emitters for every run-producing surface.

Each helper translates one surface's native result shape -- bench
timing payloads, report comparisons, chaos soak reports, differential
check reports -- into the common :class:`~repro.registry.record.RunRecord`
form and writes it into a content-addressed directory under the runs
root, where every ``repro runs`` verb reads it.  (Sweeps emit their own
record inline from :func:`repro.engine.sweep.run_sweep`, which already
owns a run directory.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.registry.record import (
    RunRecord,
    bench_metrics,
    default_code_versions,
    new_run_dir,
    utcnow,
)


def record_run(
    runs_root: Union[str, Path],
    kind: str,
    config: Dict[str, Any],
    rows: List[Dict[str, Any]],
    metrics: Optional[Dict[str, Any]] = None,
    status: str = "complete",
    wall_seconds: Optional[float] = None,
    created_at: Optional[float] = None,
) -> Path:
    """Write one run record under the root; returns its directory."""
    record = RunRecord(
        kind=kind,
        config=config,
        rows=rows,
        metrics=metrics or {},
        status=status,
        created_at=created_at if created_at is not None else utcnow(),
        wall_seconds=wall_seconds,
        code_versions=default_code_versions(),
    )
    return new_run_dir(runs_root, record)


def record_bench_run(
    runs_root: Union[str, Path],
    benchmark: str,
    payload: Any,
    config: Optional[Dict[str, Any]] = None,
    created_at: Optional[float] = None,
) -> Path:
    """One benchmark's timing payload as a bench-kind run.

    ``payload`` is the nested timings dict the bench measured, or a bare
    number; its scalar leaves become comparable cells (dotted names for
    nested breakdowns, the benchmark's own name for a bare number) while
    the full form is preserved under ``metrics`` for the BENCH view.
    """
    return record_run(
        runs_root,
        kind="bench",
        config={"benchmark": benchmark, **(config or {})},
        rows=[
            {"cell": benchmark, "values": bench_metrics(benchmark, payload)}
        ],
        metrics={benchmark: payload},
        created_at=created_at,
    )


def record_report_run(
    runs_root: Union[str, Path],
    results,
    config: Dict[str, Any],
    wall_seconds: Optional[float] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """A ``repro report`` pass: every paper-vs-measured row as a cell."""
    rows: List[Dict[str, Any]] = []
    for result in results:
        for table in result.comparisons:
            rows.extend(
                {
                    "cell": f"{result.experiment_id}/{row.label}",
                    "values": {
                        "paper": row.paper_value,
                        "measured": row.measured_value,
                    },
                    "meta": {"unit": row.unit} if row.unit else {},
                }
                for row in table.rows
            )
    return record_run(
        runs_root,
        kind="report",
        config=config,
        rows=rows,
        metrics=metrics,
        wall_seconds=wall_seconds,
    )


def record_chaos_run(
    runs_root: Union[str, Path], report: Dict[str, Any]
) -> Path:
    """A chaos soak report as a chaos-kind run (full report preserved)."""
    rows = [
        {
            "cell": f"episode-{record['episode']:03d}/{record['kind']}",
            "values": {
                "ok": bool(record.get("ok")),
                **{
                    f"check.{name}": bool(passed)
                    for name, passed in sorted(
                        (record.get("checks") or {}).items()
                    )
                },
            },
        }
        for record in report.get("results", [])
    ]
    return record_run(
        runs_root,
        kind="chaos",
        config={
            "master_seed": report.get("master_seed"),
            "episodes": report.get("episodes"),
            "kinds": report.get("kinds"),
        },
        rows=rows,
        metrics={"report": report},
        status="complete" if report.get("ok") else "failed",
    )


def record_verify_run(
    runs_root: Union[str, Path], report: Dict[str, Any]
) -> Path:
    """A differential-check report as a verify-kind run."""
    rows = [
        {
            "cell": f"case-{result['case']:03d}",
            "policy": (result.get("config") or {}).get("policy"),
            "values": {
                "ok": bool(result.get("ok")),
                "events": result.get("events", 0),
            },
        }
        for result in report.get("results", [])
    ]
    return record_run(
        runs_root,
        kind="verify",
        config={
            "seed": report.get("seed"),
            "cases": report.get("cases"),
            "engines": report.get("engines"),
        },
        rows=rows,
        metrics={"report": report},
        status="complete" if report.get("ok") else "failed",
    )
