"""Experiment registry: a unified run ledger + cross-run SQLite index.

The registry closes the loop the ROADMAP left half-open after PR 7:

* :mod:`repro.registry.record` -- the versioned ``RunRecord`` schema
  every run-producing surface emits (``sweep --run-dir``, ``report``,
  the throughput benchmarks, ``chaos run``, ``verify diff``), with v1
  (PR-7 sweep run-dir) synthesis for backward compatibility.
* :mod:`repro.registry.index` -- ``registry.sqlite`` (WAL), folding run
  dirs into ``runs`` / ``cells`` / ``bench`` / ``baselines`` tables,
  idempotently keyed by content-addressed run hash.
* :mod:`repro.registry.compare` -- tolerance-gated cell-by-cell run
  diffs (the ``repro runs compare`` regression gate).
* :mod:`repro.registry.views` -- bench trajectories and the
  ``BENCH_sweep.json`` view over indexed bench runs (written into the
  runs root).
* :mod:`repro.registry.emit` -- per-surface RunRecord writers.
"""

from repro.registry.compare import (  # noqa: F401
    CellDiff,
    CompareResult,
    Tolerance,
    compare_cells,
    compare_runs,
)
from repro.registry.emit import (  # noqa: F401
    record_bench_run,
    record_chaos_run,
    record_report_run,
    record_run,
    record_verify_run,
)
from repro.registry.index import (  # noqa: F401
    DB_FILENAME,
    RegistryError,
    RegistryIndex,
    db_path_for,
)
from repro.registry.record import (  # noqa: F401
    RECORD_FILENAME,
    RECORD_FORMAT,
    RECORD_VERSION,
    RunRecord,
    cell_key,
    flatten_metrics,
    load_run_record,
    new_run_dir,
    scan_runs_root,
    sweep_rows_to_record_rows,
    synthesize_v1_sweep_record,
    write_run_record,
)
from repro.registry.views import (  # noqa: F401
    BENCH_SWEEP_BENCHMARK,
    BENCH_VIEW_FORMAT,
    bench_view_payload,
    refresh_bench_view,
    render_trajectory,
)

__all__ = [
    "BENCH_SWEEP_BENCHMARK",
    "BENCH_VIEW_FORMAT",
    "CellDiff",
    "CompareResult",
    "DB_FILENAME",
    "RECORD_FILENAME",
    "RECORD_FORMAT",
    "RECORD_VERSION",
    "RegistryError",
    "RegistryIndex",
    "RunRecord",
    "Tolerance",
    "bench_view_payload",
    "cell_key",
    "compare_cells",
    "compare_runs",
    "db_path_for",
    "flatten_metrics",
    "load_run_record",
    "new_run_dir",
    "record_bench_run",
    "record_chaos_run",
    "record_report_run",
    "record_run",
    "record_verify_run",
    "refresh_bench_view",
    "render_trajectory",
    "scan_runs_root",
    "sweep_rows_to_record_rows",
    "synthesize_v1_sweep_record",
    "write_run_record",
]
