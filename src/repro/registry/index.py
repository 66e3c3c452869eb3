"""The cross-run SQLite index: ``registry.sqlite``.

One database per runs root folds every run directory's
``run_record.json`` -- sweeps, bench timings, report comparisons, chaos
soaks, differential checks, as :func:`~repro.registry.record.scan_runs_root`
loads them -- into four tables:

* ``runs``: one row per run hash, carrying the full canonical record
  JSON (so nothing is lost in projection: unknown keys and nested
  metric payloads survive round trips).
* ``cells``: one row per (run, cell, metric) scalar -- the comparable
  surface ``repro runs compare`` diffs.  Values keep SQLite's dynamic
  typing: JSON ints stay INTEGER, floats stay REAL (both are exact
  binary64 round trips), so the index reproduces the run-dir numbers
  bit for bit.
* ``bench``: the per-benchmark projection of bench-kind runs, the
  substrate of ``repro runs trajectory`` and the ``BENCH_sweep.json``
  view.
* ``baselines``: named promoted runs (content-addressed by run hash).

Indexing is idempotent: the run hash is a content address, so re-running
``repro runs index`` over an unchanged root touches nothing, while a
rewritten run directory (a sweep checkpointed further, interrupted or
resumed; a re-run bench) replaces the stale rows recorded at the same
path.  WAL mode keeps readers (CI
queries, trajectory renders) from blocking a concurrent index pass.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.registry.record import (
    RunRecord,
    canonical_json,
    flatten_metrics,
    scan_runs_root,
)

#: Default database filename inside a runs root.
DB_FILENAME = "registry.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_hash       TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    config_hash    TEXT,
    schema_version INTEGER NOT NULL,
    status         TEXT NOT NULL,
    created_at     REAL,
    wall_seconds   REAL,
    path           TEXT,
    record         TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    run_hash          TEXT NOT NULL,
    cell              TEXT NOT NULL,
    scenario          TEXT,
    seed              INTEGER,
    policy            TEXT,
    capacity_fraction REAL,
    metric            TEXT NOT NULL,
    value,
    PRIMARY KEY (run_hash, cell, metric)
);
CREATE TABLE IF NOT EXISTS bench (
    run_hash  TEXT NOT NULL,
    benchmark TEXT NOT NULL,
    metric    TEXT NOT NULL,
    value,
    PRIMARY KEY (run_hash, benchmark, metric)
);
CREATE TABLE IF NOT EXISTS baselines (
    name        TEXT PRIMARY KEY,
    run_hash    TEXT NOT NULL,
    promoted_at REAL
);
CREATE INDEX IF NOT EXISTS cells_by_policy
    ON cells (policy, metric);
CREATE INDEX IF NOT EXISTS bench_by_benchmark
    ON bench (benchmark, metric);
"""


class RegistryError(RuntimeError):
    """An index operation that cannot proceed (bad ref, missing DB)."""


class RegistryIndex:
    """An open ``registry.sqlite`` handle."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.executescript(_SCHEMA)
        self._db.commit()

    @classmethod
    def open(cls, path: Union[str, Path]) -> "RegistryIndex":
        return cls(path)

    @classmethod
    def open_existing(cls, path: Union[str, Path]) -> "RegistryIndex":
        """Open a database that must already exist (query-side verbs)."""
        if not Path(path).is_file():
            raise RegistryError(
                f"no registry database at {path}; run `repro runs index` first"
            )
        return cls(path)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "RegistryIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- indexing ----------------------------------------------------------

    def index_record(self, record: RunRecord) -> str:
        """Fold one record in; returns ``indexed|unchanged|replaced``.

        Keyed by the content-addressed run hash: an already-present hash
        is a no-op (idempotent re-index), and any *older* run recorded
        at the same directory path is dropped first -- a resumed sweep
        or re-run bench rewrites its dir in place, so the path can only
        honestly describe one run at a time.
        """
        run_hash = record.run_hash()
        replaced = False
        if record.path is not None:
            stale = self._db.execute(
                "SELECT run_hash FROM runs WHERE path = ? AND run_hash != ?",
                (str(record.path), run_hash),
            ).fetchall()
            for row in stale:
                self._delete_run(row["run_hash"])
                replaced = True
        exists = self._db.execute(
            "SELECT 1 FROM runs WHERE run_hash = ?", (run_hash,)
        ).fetchone()
        if exists:
            self._db.commit()
            return "replaced" if replaced else "unchanged"
        self._db.execute(
            "INSERT INTO runs (run_hash, kind, config_hash, schema_version,"
            " status, created_at, wall_seconds, path, record)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_hash, record.kind, record.config_hash,
                record.schema_version, record.status, record.created_at,
                record.wall_seconds,
                str(record.path) if record.path is not None else None,
                canonical_json(record.to_payload()),
            ),
        )
        self._insert_cells(run_hash, record)
        if record.kind == "bench":
            self._insert_bench(run_hash, record)
        self._db.commit()
        return "replaced" if replaced else "indexed"

    def _delete_run(self, run_hash: str) -> None:
        self._db.execute("DELETE FROM cells WHERE run_hash = ?", (run_hash,))
        self._db.execute("DELETE FROM bench WHERE run_hash = ?", (run_hash,))
        self._db.execute("DELETE FROM runs WHERE run_hash = ?", (run_hash,))

    def _insert_cells(self, run_hash: str, record: RunRecord) -> None:
        for row in record.rows:
            cell = str(row.get("cell", ""))
            for metric, value in (row.get("values", {}) or {}).items():
                if not isinstance(value, (bool, int, float, str)):
                    continue
                self._db.execute(
                    "INSERT OR REPLACE INTO cells (run_hash, cell, scenario,"
                    " seed, policy, capacity_fraction, metric, value)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_hash, cell, row.get("scenario"), row.get("seed"),
                        row.get("policy"), row.get("capacity_fraction"),
                        metric, value,
                    ),
                )

    def _insert_bench(self, run_hash: str, record: RunRecord) -> None:
        benchmark = record.config.get("benchmark")
        for name, payload in record.metrics.items():
            bench_name = benchmark or name
            for metric, value in flatten_metrics({name: payload}).items():
                # Strip the redundant leading benchmark key.
                metric = metric.split(".", 1)[1] if "." in metric else metric
                self._db.execute(
                    "INSERT OR REPLACE INTO bench"
                    " (run_hash, benchmark, metric, value)"
                    " VALUES (?, ?, ?, ?)",
                    (run_hash, bench_name, metric, value),
                )

    def index_root(self, runs_root: Union[str, Path]) -> Dict[str, Any]:
        """Fold every run directory under the root into the database."""
        counts = {"indexed": 0, "unchanged": 0, "replaced": 0}
        kinds: Dict[str, int] = {}
        skipped: List[str] = []
        for entry in scan_runs_root(runs_root):
            record = entry["record"]
            if record is None:
                skipped.append(entry["name"])
                continue
            outcome = self.index_record(record)
            counts[outcome] += 1
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        return {**counts, "kinds": kinds, "skipped": skipped}

    # -- queries -----------------------------------------------------------

    def runs(
        self,
        kind: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Run summaries, ordered by (created_at, run_hash)."""
        query = (
            "SELECT run_hash, kind, config_hash, schema_version, status,"
            " created_at, wall_seconds, path,"
            " (SELECT COUNT(DISTINCT cell) FROM cells"
            "   WHERE cells.run_hash = runs.run_hash) AS n_cells"
            " FROM runs"
        )
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY COALESCE(created_at, 0), run_hash"
        return [dict(row) for row in self._db.execute(query, params)]

    def get_record(self, run_hash: str) -> Dict[str, Any]:
        """The full stored record payload of one run."""
        row = self._db.execute(
            "SELECT record FROM runs WHERE run_hash = ?", (run_hash,)
        ).fetchone()
        if row is None:
            raise RegistryError(f"no indexed run {run_hash!r}")
        return json.loads(row["record"])

    def resolve(self, ref: str) -> Dict[str, Any]:
        """One run by hash prefix, directory name, or config-hash prefix.

        Raises :class:`RegistryError` when the reference is unknown or
        ambiguous (two runs sharing a prefix).
        """
        rows = [dict(row) for row in self._db.execute(
            "SELECT run_hash, kind, config_hash, status, created_at, path"
            " FROM runs"
        )]
        matches = [
            row for row in rows
            if row["run_hash"].startswith(ref)
            or (row["config_hash"] or "").startswith(ref)
            or (row["path"] or "").rstrip("/").rsplit("/", 1)[-1] == ref
        ]
        if not matches:
            raise RegistryError(f"no indexed run matches {ref!r}")
        if len(matches) > 1:
            # A v2 sweep dir matches by both run and config hash; distinct
            # hashes are only ambiguous when they are truly different runs.
            unique = {row["run_hash"] for row in matches}
            if len(unique) > 1:
                names = ", ".join(sorted(unique))
                raise RegistryError(
                    f"{ref!r} is ambiguous: matches runs {names}"
                )
        return matches[0]

    def cells(self, run_hash: str) -> Dict[str, Dict[str, Any]]:
        """``{cell: {metric: value}}`` straight from the cells table."""
        out: Dict[str, Dict[str, Any]] = {}
        for row in self._db.execute(
            "SELECT cell, metric, value FROM cells WHERE run_hash = ?"
            " ORDER BY cell, metric",
            (run_hash,),
        ):
            out.setdefault(row["cell"], {})[row["metric"]] = row["value"]
        return out

    # -- baselines ---------------------------------------------------------

    def promote(self, name: str, run_hash: str) -> Dict[str, Any]:
        """Pin one indexed run as the named baseline."""
        if self._db.execute(
            "SELECT 1 FROM runs WHERE run_hash = ?", (run_hash,)
        ).fetchone() is None:
            raise RegistryError(
                f"cannot promote {run_hash!r}: not an indexed run"
            )
        promoted_at = time.time()
        self._db.execute(
            "INSERT OR REPLACE INTO baselines (name, run_hash, promoted_at)"
            " VALUES (?, ?, ?)",
            (name, run_hash, promoted_at),
        )
        self._db.commit()
        return {"name": name, "run_hash": run_hash, "promoted_at": promoted_at}

    def baseline(self, name: str) -> Dict[str, Any]:
        """The named baseline, or a :class:`RegistryError`."""
        row = self._db.execute(
            "SELECT name, run_hash, promoted_at FROM baselines WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            known = [r["name"] for r in self._db.execute(
                "SELECT name FROM baselines ORDER BY name"
            )]
            hint = f"; promoted baselines: {known}" if known else \
                "; none promoted yet (see `repro runs promote`)"
            raise RegistryError(f"no baseline named {name!r}{hint}")
        return dict(row)

    def baselines(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self._db.execute(
            "SELECT name, run_hash, promoted_at FROM baselines ORDER BY name"
        )]

    # -- bench trajectory --------------------------------------------------

    def bench_history(self, benchmark: str) -> List[Dict[str, Any]]:
        """Every indexed run of one benchmark, oldest first.

        Each entry carries the run identity plus the benchmark's
        *top-level* metrics (dotted breakdown keys stay in the full
        record); ordering is (created_at, run_hash) so the trajectory is
        deterministic even for runs with equal timestamps.
        """
        history: List[Dict[str, Any]] = []
        runs = self._db.execute(
            "SELECT DISTINCT bench.run_hash, runs.created_at"
            " FROM bench JOIN runs ON runs.run_hash = bench.run_hash"
            " WHERE bench.benchmark = ?"
            " ORDER BY COALESCE(runs.created_at, 0), bench.run_hash",
            (benchmark,),
        ).fetchall()
        for run in runs:
            metrics = {
                row["metric"]: row["value"]
                for row in self._db.execute(
                    "SELECT metric, value FROM bench"
                    " WHERE run_hash = ? AND benchmark = ? AND"
                    " metric NOT LIKE '%.%' ORDER BY metric",
                    (run["run_hash"], benchmark),
                )
            }
            history.append({
                "run_hash": run["run_hash"],
                "created_at": run["created_at"],
                "metrics": metrics,
            })
        return history

    def benchmarks(self) -> List[str]:
        """Every benchmark name with at least one indexed run."""
        return [row["benchmark"] for row in self._db.execute(
            "SELECT DISTINCT benchmark FROM bench ORDER BY benchmark"
        )]


def db_path_for(
    runs_root: Union[str, Path], db: Optional[str] = None
) -> Path:
    """The database path a CLI invocation addresses."""
    return Path(db) if db is not None else Path(runs_root) / DB_FILENAME
