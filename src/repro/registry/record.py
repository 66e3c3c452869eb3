"""The versioned ``RunRecord``: one schema for every run artifact.

Every run-producing surface -- ``sweep --run-dir``, ``report``,
``bench``, ``chaos run``, ``verify diff`` -- writes one file, a
``run_record.json`` (schema v2) describing *what kind* of run it was,
*which configuration* produced it, *what it measured* (per-cell rows +
free-form metric payloads), and *how it ended*.  The records are the
ledger: every ``repro runs`` verb reads them through
:func:`scan_runs_root`, so no second copy can go stale.  A sweep's
record is also its checkpoint: :mod:`repro.engine.sweep` rewrites it as
each task finishes and resumes from it, so :func:`load_run_record` is
the one loader behind resume and every ``repro runs`` verb.

Forward compatibility is pinned by tests: unknown top-level JSON keys
written by a future schema are preserved in :attr:`RunRecord.extra` and
round-trip through load and re-write untouched.

Identity is content-addressed: :meth:`RunRecord.run_hash` digests the
canonical JSON payload, so a byte-identical record has one identity no
matter where it sits on disk.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.resilience import write_json_atomic

#: ``format`` marker inside every v2 run record.
RECORD_FORMAT = "repro-run-record"

#: Current schema version (v1 was a sweep run-dir layout without a
#: ``run_record.json``); bump this when a field changes meaning.
RECORD_VERSION = 2

#: The record's filename inside a run directory.
RECORD_FILENAME = "run_record.json"

#: Fields of the serialized payload that belong to the schema; anything
#: else round-trips through :attr:`RunRecord.extra`.
_SCHEMA_FIELDS = frozenset({
    "format", "schema_version", "kind", "config", "config_hash", "rows",
    "metrics", "status", "created_at", "wall_seconds", "code_versions",
})


def canonical_json(payload: Any) -> str:
    """Key-sorted, separator-stable JSON: the hashing wire format."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def default_code_versions() -> Dict[str, Any]:
    """The code versions that determine a run's numbers."""
    from repro import __version__
    from repro.engine.store import STORE_FORMAT_VERSION
    from repro.workload.generator import GENERATOR_VERSION

    return {
        "repro": __version__,
        "generator": GENERATOR_VERSION,
        "store_format": STORE_FORMAT_VERSION,
    }


def cell_key(
    scenario: Optional[str], seed: int, policy: str, fraction: float
) -> str:
    """Canonical cell id for one sweep grid cell.

    ``repr`` keeps the capacity fraction exact (shortest round-trip
    float), so two runs of the same grid always name cells identically.
    """
    return f"{scenario or 'classic'}:s{seed}:{policy}:{fraction!r}"


def flatten_metrics(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """Nested metric payload -> flat ``{dotted.name: scalar}`` mapping.

    Non-scalar leaves that are not dicts (lists, None) are dropped: the
    flat form holds comparable scalars only.  The full nested payload
    stays available in the record itself.
    """
    flat: Dict[str, Any] = {}
    if isinstance(payload, dict):
        for name in sorted(payload):
            flat.update(flatten_metrics(payload[name], f"{prefix}{name}."))
    elif prefix and isinstance(payload, (bool, int, float, str)):
        flat[prefix[:-1]] = payload
    return flat


def bench_metrics(benchmark: str, payload: Any) -> Dict[str, Any]:
    """One benchmark's timing payload as flat ``{metric: scalar}``.

    A dict payload flattens to its dotted leaves; a bare scalar (e.g.
    ``generate_cold_seconds: 1.25``) is one metric named after its
    benchmark.  Bench rows and ``repro runs trajectory`` share this
    naming.
    """
    if isinstance(payload, dict):
        return flatten_metrics(payload)
    return flatten_metrics({benchmark: payload})


@dataclass
class RunRecord:
    """One run of any kind, in the registry's common shape."""

    #: ``sweep`` | ``bench`` | ``report`` | ``chaos`` | ``verify`` (open set).
    kind: str
    #: The result-determining configuration (JSON-stable dict).
    config: Dict[str, Any] = field(default_factory=dict)
    #: Per-cell results.  Each row is a dict with a ``cell`` key naming
    #: the cell, a ``values`` dict of comparable scalars, and optional
    #: identity columns (``scenario``/``seed``/``policy``/
    #: ``capacity_fraction``) plus a non-compared ``meta`` dict.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Free-form JSON metric payloads (e.g. the full nested bench
    #: timings, keyed by benchmark name).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: ``complete`` | ``degraded`` | ``interrupted`` | ``failed`` | ...
    status: str = "complete"
    #: Wall-clock the run started/was recorded (epoch seconds).
    created_at: Optional[float] = None
    wall_seconds: Optional[float] = None
    schema_version: int = RECORD_VERSION
    #: Content hash of ``config`` (precomputed by emitters that already
    #: have one, e.g. the sweep's ``sweep_config_hash``).
    config_hash: Optional[str] = None
    code_versions: Dict[str, Any] = field(default_factory=dict)
    #: Unknown top-level payload keys, preserved verbatim (forward
    #: compatibility: a v3 writer's extra fields survive a v2 rewrite).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Directory the record was loaded from (not serialized, not hashed).
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("a RunRecord needs a kind")
        if self.config_hash is None:
            canon = canonical_json(self.config)
            self.config_hash = hashlib.sha256(
                canon.encode("utf-8")
            ).hexdigest()[:16]

    def to_payload(self) -> Dict[str, Any]:
        """The serialized JSON form (schema fields + preserved extras)."""
        payload = {
            "format": RECORD_FORMAT,
            "schema_version": self.schema_version,
            "kind": self.kind,
            "config": self.config,
            "config_hash": self.config_hash,
            "rows": self.rows,
            "metrics": self.metrics,
            "status": self.status,
            "created_at": self.created_at,
            "wall_seconds": self.wall_seconds,
            "code_versions": self.code_versions,
        }
        for name, value in self.extra.items():
            payload.setdefault(name, value)
        return payload

    def run_hash(self) -> str:
        """Content address of this run: a digest of the full payload."""
        canon = canonical_json(self.to_payload())
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], path: Optional[str] = None
    ) -> "RunRecord":
        """Rebuild a record; unknown top-level keys land in ``extra``."""
        extra = {
            name: value
            for name, value in payload.items()
            if name not in _SCHEMA_FIELDS
        }
        return cls(
            kind=payload["kind"],
            config=payload.get("config", {}) or {},
            rows=payload.get("rows", []) or [],
            metrics=payload.get("metrics", {}) or {},
            status=payload.get("status", "complete"),
            created_at=payload.get("created_at"),
            wall_seconds=payload.get("wall_seconds"),
            schema_version=int(payload.get("schema_version", RECORD_VERSION)),
            config_hash=payload.get("config_hash"),
            code_versions=payload.get("code_versions", {}) or {},
            extra=extra,
            path=path,
        )

    def cells(self) -> Dict[str, Dict[str, Any]]:
        """``{cell: {metric: value}}`` -- the comparable view of the run."""
        out: Dict[str, Dict[str, Any]] = {}
        for row in self.rows:
            cell = str(row.get("cell", ""))
            values = row.get("values", {}) or {}
            out.setdefault(cell, {}).update(values)
        return out


def sweep_rows_to_record_rows(
    row_dicts: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """SweepRow dicts -> registry rows, value-preserving.

    The ``values`` dict carries every metrics counter plus the cell's
    ``capacity_bytes`` exactly as the sweep computed them (JSON floats
    round-trip, ints stay ints), so a resume and ``runs compare`` can
    later hand the identical numbers back.  ``attempts``/``status`` are
    execution metadata, not results: they go under ``meta`` where
    ``compare`` never looks (a retried cell is not a regression).
    """
    rows = []
    for data in row_dicts:
        values = dict(data.get("metrics", {}))
        values["capacity_bytes"] = data["capacity_bytes"]
        rows.append({
            "cell": cell_key(
                data.get("scenario"), data["seed"], data["policy"],
                data["capacity_fraction"],
            ),
            "scenario": data.get("scenario"),
            "seed": data["seed"],
            "policy": data["policy"],
            "capacity_fraction": data["capacity_fraction"],
            "values": values,
            "meta": {
                "attempts": data.get("attempts", 1),
                "status": data.get("status", "ok"),
            },
        })
    rows.sort(key=lambda row: row["cell"])
    return rows


def write_run_record(
    run_dir: Union[str, Path], record: RunRecord
) -> Path:
    """Persist one record atomically; returns the record path."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / RECORD_FILENAME
    write_json_atomic(path, record.to_payload())
    record.path = str(run_dir)
    return path


def new_run_dir(
    runs_root: Union[str, Path], record: RunRecord
) -> Path:
    """Write ``record`` into its content-addressed dir under the root.

    The directory is ``<root>/<kind>-<run_hash>``: a byte-identical
    re-run lands in the same place (and is therefore one run), while any
    change of config, result, or timestamp makes a new one.
    """
    run_dir = Path(runs_root) / f"{record.kind}-{record.run_hash()}"
    write_run_record(run_dir, record)
    return run_dir


def load_run_record(run_dir: Union[str, Path]) -> Optional[RunRecord]:
    """The run record of one directory, or None.

    None means the directory holds no readable ``run_record.json``
    (missing, truncated, or not a JSON object) -- callers skip-and-warn,
    and a sweep re-runs every task.
    """
    run_dir = Path(run_dir)
    try:
        with open(run_dir / RECORD_FILENAME, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            return None
        return RunRecord.from_payload(payload, path=str(run_dir))
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        return None


class RegistryError(RuntimeError):
    """A ``repro runs`` request that cannot proceed (bad ref, no baseline)."""


# ---------------------------------------------------------------------------
# Runs-root scanning (shared by sweep resume and every `repro runs` verb)


def scan_runs_root(runs_root: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every run directory under the root, deterministically ordered.

    A run directory is one holding a ``run_record.json``.  Each entry
    carries the loaded ``record`` (None when the file is damaged) and
    its ``run_hash``; a damaged dir never raises, it gets status
    ``corrupt`` and a ``corrupt`` list naming the file, so the CLI can
    warn and keep going.  Ordering is created-at then run hash (name as
    the final tie-break), so ``repro runs list`` is stable no matter
    what order the filesystem returns.
    """
    runs_root = Path(runs_root)
    if not runs_root.is_dir():
        return []
    entries: List[Dict[str, Any]] = []
    for path in sorted(runs_root.iterdir()):
        if not (path / RECORD_FILENAME).is_file():
            continue  # not a run dir at all
        record = load_run_record(path)
        entries.append({
            "name": path.name,
            "path": str(path),
            "record": record,
            "run_hash": record.run_hash() if record is not None else None,
            "status": record.status if record is not None else "corrupt",
            "corrupt": [] if record is not None else [RECORD_FILENAME],
        })
    entries.sort(key=lambda e: (
        getattr(e["record"], "created_at", None) or 0.0,
        e["run_hash"] or "",
        e["name"],
    ))
    return entries


def resolve_run(entries: List[Dict[str, Any]], ref: str) -> Dict[str, Any]:
    """The one scan entry ``ref`` names: a directory name, a run-hash
    prefix, or a config-hash prefix.

    A damaged dir matches by name only.  Raises :class:`RegistryError`
    when nothing matches, or when the matches hold two different runs
    (several bench runs of one config share its config hash).
    """
    matches = [
        entry for entry in entries
        if entry["name"] == ref
        or (entry["record"] is not None and (
            entry["run_hash"].startswith(ref)
            or entry["record"].config_hash.startswith(ref)
        ))
    ]
    if not matches:
        raise RegistryError(f"no run matches {ref!r}")
    runs = sorted({entry["run_hash"] or entry["name"] for entry in matches})
    if len(runs) > 1:
        raise RegistryError(
            f"{ref!r} is ambiguous: matches runs {', '.join(runs)}"
        )
    return matches[0]


def utcnow() -> float:
    """Epoch seconds; one seam for tests that pin record timestamps."""
    return time.time()
