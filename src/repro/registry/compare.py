"""Cell-by-cell run comparison and named baselines: the regression gate.

``repro runs compare A B`` (or ``A`` against a promoted baseline) diffs
two run records' :meth:`~repro.registry.record.RunRecord.cells`: every
cell the runs share is compared metric by metric under a configurable
relative/absolute tolerance, and cells present on only one side are
regressions in themselves (a vanished grid cell is not a pass).  The
verdict maps to the exit code -- 0 when everything is within tolerance,
1 otherwise -- so "did PR N regress policy X on workload Y" is one
command in CI.

Numbers come straight from the records' JSON, which round-trips
binary64 floats and integers exactly, so a zero-tolerance compare of a
run against itself is exact, not approximately so.

Baselines live in ``<runs root>/baselines.json`` as
``{name: {run_hash, promoted_at}}``.  A baseline names a run by content
hash, so once its run dir is rewritten or deleted the baseline no longer
resolves, and the gate says so instead of comparing against nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.registry.record import RegistryError, RunRecord, utcnow
from repro.util.durable import write_json

#: The named-baselines file inside a runs root.
BASELINES_FILENAME = "baselines.json"


@dataclass(frozen=True)
class Tolerance:
    """Allowed per-metric slack: |l - r| <= max(abs, rel * |larger|)."""

    rel: float = 0.0
    abs: float = 0.0

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be >= 0")

    def within(self, left: Any, right: Any) -> bool:
        numeric = (
            isinstance(left, (int, float)) and not isinstance(left, bool)
            and isinstance(right, (int, float)) and not isinstance(right, bool)
        )
        if not numeric:
            return left == right
        bound = max(self.abs, self.rel * max(abs(left), abs(right)))
        return abs(left - right) <= bound


@dataclass
class CellDiff:
    """One differing (cell, metric) pair."""

    cell: str
    metric: str
    left: Any
    right: Any


@dataclass
class CompareResult:
    """Everything one comparison found."""

    left: str
    right: str
    n_cells: int = 0
    n_metrics: int = 0
    diffs: List[CellDiff] = field(default_factory=list)
    #: Cells present in only one run.
    only_left: List[str] = field(default_factory=list)
    only_right: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs and not self.only_left and not self.only_right

    def render(self, max_rows: int = 40) -> str:
        """A readable per-cell report of what moved."""
        from repro.analysis.render import TextTable

        verdict = (
            "identical within tolerance" if self.ok
            else f"{len(self.diffs)} metric(s) out of tolerance"
        )
        lines = [
            f"compare {self.left} vs {self.right}: "
            f"{self.n_cells} shared cells x {self.n_metrics} metrics, "
            f"{verdict}"
        ]
        for side, cells in (
            (self.left, self.only_left), (self.right, self.only_right)
        ):
            if cells:
                shown = ", ".join(cells[:6])
                more = f" (+{len(cells) - 6} more)" if len(cells) > 6 else ""
                lines.append(f"  only in {side}: {shown}{more}")
        if self.diffs:
            table = TextTable(
                ["cell", "metric", self.left, self.right, "delta"],
                title="Out-of-tolerance cells",
            )
            for diff in self.diffs[:max_rows]:
                delta = "--"
                if (isinstance(diff.left, (int, float))
                        and isinstance(diff.right, (int, float))
                        and not isinstance(diff.left, bool)
                        and not isinstance(diff.right, bool)):
                    delta = f"{diff.right - diff.left:+g}"
                table.add_row(
                    diff.cell, diff.metric, str(diff.left), str(diff.right),
                    delta,
                )
            lines.append(table.render())
            if len(self.diffs) > max_rows:
                lines.append(
                    f"  ... {len(self.diffs) - max_rows} more differing "
                    f"metric(s) suppressed"
                )
        return "\n".join(lines)


def compare_cells(
    left_cells: Dict[str, Dict[str, Any]],
    right_cells: Dict[str, Dict[str, Any]],
    tolerance: Tolerance = Tolerance(),
    left_label: str = "left",
    right_label: str = "right",
) -> CompareResult:
    """Diff two ``{cell: {metric: value}}`` maps."""
    result = CompareResult(left=left_label, right=right_label)
    shared = sorted(set(left_cells) & set(right_cells))
    result.only_left = sorted(set(left_cells) - set(right_cells))
    result.only_right = sorted(set(right_cells) - set(left_cells))
    result.n_cells = len(shared)
    metrics_seen = set()
    for cell in shared:
        left, right = left_cells[cell], right_cells[cell]
        for metric in sorted(set(left) | set(right)):
            metrics_seen.add(metric)
            missing = object()
            lvalue = left.get(metric, missing)
            rvalue = right.get(metric, missing)
            if lvalue is missing or rvalue is missing:
                result.diffs.append(CellDiff(
                    cell, metric,
                    "<absent>" if lvalue is missing else lvalue,
                    "<absent>" if rvalue is missing else rvalue,
                ))
                continue
            if not tolerance.within(lvalue, rvalue):
                result.diffs.append(CellDiff(cell, metric, lvalue, rvalue))
    result.n_metrics = len(metrics_seen)
    return result


def compare_runs(
    left: RunRecord,
    right: RunRecord,
    tolerance: Tolerance = Tolerance(),
) -> CompareResult:
    """Diff two run records cell by cell."""
    return compare_cells(
        left.cells(),
        right.cells(),
        tolerance,
        left_label=left.run_hash()[:12],
        right_label=right.run_hash()[:12],
    )


def load_baselines(runs_root: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """``{name: {run_hash, promoted_at}}``; empty when none is promoted."""
    path = Path(runs_root) / BASELINES_FILENAME
    try:
        baselines = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        raise RegistryError(f"unreadable {path}: {exc}")
    if not isinstance(baselines, dict):
        raise RegistryError(f"unreadable {path}: not a JSON object")
    return baselines


def promote(
    runs_root: Union[str, Path], name: str, record: RunRecord
) -> Dict[str, Any]:
    """Pin ``record`` as the named baseline; returns the new entry."""
    baselines = load_baselines(runs_root)
    baselines[name] = {"run_hash": record.run_hash(), "promoted_at": utcnow()}
    write_json(Path(runs_root) / BASELINES_FILENAME, baselines)
    return baselines[name]


def baseline_record(
    runs_root: Union[str, Path],
    entries: List[Dict[str, Any]],
    name: str,
) -> RunRecord:
    """The run the named baseline pins, from a scan of ``runs_root``.

    Raises :class:`RegistryError` when no such baseline was promoted, or
    when its run is no longer under the root (rewritten or deleted).
    """
    baselines = load_baselines(runs_root)
    if name not in baselines:
        hint = f"; promoted baselines: {sorted(baselines)}" if baselines \
            else "; none promoted yet (see `repro runs promote`)"
        raise RegistryError(f"no baseline named {name!r}{hint}")
    run_hash = baselines[name].get("run_hash")
    for entry in entries:
        if entry["run_hash"] == run_hash:
            return entry["record"]
    raise RegistryError(
        f"baseline {name!r} pins run {run_hash}, which is no longer under "
        f"{runs_root} (rewritten or deleted); promote a current run"
    )
