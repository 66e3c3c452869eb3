"""Derived read-views over the run records: trajectories and bench files.

``repro runs trajectory`` renders a named benchmark's metric history
across every bench run under a runs root, and ``BENCH_sweep.json`` --
written into the runs root (``.runs/`` by default) -- is regenerated
here as a pure view over the same records, so the file can never
disagree with them: the benchmark writes a RunRecord, and the file is
re-derived from whatever records the root then holds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.registry.record import RegistryError, bench_metrics, scan_runs_root
from repro.util.durable import write_json

#: ``format`` marker of the regenerated BENCH view file.
BENCH_VIEW_FORMAT = "repro-bench-view-v1"

#: The benchmark whose view is ``BENCH_sweep.json`` in the runs root
#: (the ROADMAP's sweep perf trajectory).
BENCH_SWEEP_BENCHMARK = "stackdist_sweep"


def _format_when(created_at: Optional[float]) -> str:
    if created_at is None:
        return "--"
    import datetime

    stamp = datetime.datetime.fromtimestamp(
        created_at, tz=datetime.timezone.utc
    )
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _bench_points(entries: List[Dict[str, Any]]):
    """``(entry, benchmark, flat metrics)`` for each bench run's payload.

    The benchmark is the record's ``config["benchmark"]``, else the
    metrics key; payloads that flatten to nothing are skipped.
    """
    for entry in entries:
        record = entry["record"]
        if record is None or record.kind != "bench":
            continue
        for name, payload in record.metrics.items():
            metrics = bench_metrics(name, payload)
            if metrics:
                yield entry, record.config.get("benchmark") or name, metrics


def bench_history(
    entries: List[Dict[str, Any]], benchmark: str
) -> List[Dict[str, Any]]:
    """Every recorded run of one benchmark, in scan order (oldest first).

    Each point carries the run identity plus the benchmark's *top-level*
    metrics (dotted breakdown keys stay in the full record, also carried
    as ``record``).
    """
    return [
        {
            "run_hash": entry["run_hash"],
            "created_at": entry["record"].created_at,
            "metrics": {
                name: metrics[name] for name in sorted(metrics)
                if "." not in name
            },
            "record": entry["record"],
        }
        for entry, name, metrics in _bench_points(entries)
        if name == benchmark
    ]


def render_trajectory(
    entries: List[Dict[str, Any]],
    benchmark: str,
    metric: Optional[str] = None,
) -> str:
    """The perf history of one benchmark as a table + scaled bars.

    ``metric`` picks the bar column; the default prefers ``speedup``
    (the gate metric every throughput bench reports) and falls back to
    the benchmark's first top-level metric.
    """
    from repro.analysis.render import TextTable

    history = bench_history(entries, benchmark)
    if not history:
        known = sorted({name for _, name, _ in _bench_points(entries)})
        hint = f"; recorded benchmarks: {', '.join(known)}" if known else \
            "; no bench runs recorded yet"
        raise RegistryError(f"no bench runs for {benchmark!r}{hint}")
    metric_names: List[str] = []
    for point in history:
        for name in point["metrics"]:
            if name not in metric_names:
                metric_names.append(name)
    if metric is None:
        metric = "speedup" if "speedup" in metric_names else metric_names[0]
    elif metric not in metric_names:
        raise RegistryError(
            f"benchmark {benchmark!r} has no metric {metric!r}; "
            f"choose from {', '.join(metric_names)}"
        )
    values = [
        point["metrics"].get(metric) for point in history
    ]
    numeric = [
        value for value in values
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    peak = max((abs(value) for value in numeric), default=0.0)
    table = TextTable(
        ["run", "recorded (UTC)", *metric_names, f"{metric} trend"],
        title=f"Perf trajectory: {benchmark} ({len(history)} runs)",
    )
    for point, value in zip(history, values):
        bar = ""
        if peak > 0 and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            bar = "#" * max(1, round(24 * abs(value) / peak))
        table.add_row(
            point["run_hash"][:12],
            _format_when(point["created_at"]),
            *(
                f"{point['metrics'][name]:g}"
                if isinstance(point["metrics"].get(name), (int, float))
                and not isinstance(point["metrics"].get(name), bool)
                else str(point["metrics"].get(name, "--"))
                for name in metric_names
            ),
            bar,
        )
    return table.render()


def bench_view_payload(
    entries: List[Dict[str, Any]], benchmark: str
) -> Dict[str, Any]:
    """The BENCH view document: newest run's full payload + history.

    ``latest`` is the newest run's nested metric payload exactly as the
    benchmark recorded it (per-policy breakdowns included); ``history``
    is the top-level metric trajectory, oldest first.
    """
    history = bench_history(entries, benchmark)
    if not history:
        raise RegistryError(f"no bench runs for {benchmark!r}")
    newest = history[-1]
    return {
        "format": BENCH_VIEW_FORMAT,
        "benchmark": benchmark,
        # The view-v1 name for the number of recorded runs.
        "runs_indexed": len(history),
        "latest_run": newest["run_hash"],
        "latest": newest["record"].metrics.get(benchmark, {}),
        "history": [
            {
                "run": point["run_hash"],
                "created_at": point["created_at"],
                **point["metrics"],
            }
            for point in history
        ],
    }


def refresh_bench_view(
    runs_root: Union[str, Path],
    benchmark: str,
    out_path: Union[str, Path],
) -> Dict[str, Any]:
    """Rewrite one benchmark's view file from the records under a root.

    The whole pipeline behind ``BENCH_sweep.json``: scan the root,
    derive the view, write it atomically.  Returns the written payload.
    """
    payload = bench_view_payload(scan_runs_root(runs_root), benchmark)
    write_json(out_path, payload)
    return payload
