"""Experiment registry: one run ledger of ``run_record.json`` files.

One file per run, and every reader scans the files themselves:

* :mod:`repro.registry.record` -- the versioned ``RunRecord`` schema
  every run-producing surface emits (``sweep --run-dir``, ``report``,
  the throughput benchmarks, ``chaos run``, ``verify diff``), the
  runs-root scan and the run resolver; a sweep's record doubles as its
  resume checkpoint.
* :mod:`repro.registry.compare` -- tolerance-gated cell-by-cell run
  diffs (the ``repro runs compare`` regression gate) and the named
  baselines in ``baselines.json``.
* :mod:`repro.registry.views` -- bench trajectories and the
  ``BENCH_sweep.json`` view over the bench records (written into the
  runs root).
* :mod:`repro.registry.emit` -- per-surface RunRecord writers.
"""

from repro.registry.compare import (  # noqa: F401
    BASELINES_FILENAME,
    CellDiff,
    CompareResult,
    Tolerance,
    baseline_record,
    compare_cells,
    compare_runs,
    load_baselines,
    promote,
)
from repro.registry.emit import (  # noqa: F401
    record_bench_run,
    record_chaos_run,
    record_report_run,
    record_run,
    record_verify_run,
)
from repro.registry.record import (  # noqa: F401
    RECORD_FILENAME,
    RECORD_FORMAT,
    RECORD_VERSION,
    RegistryError,
    RunRecord,
    cell_key,
    flatten_metrics,
    load_run_record,
    new_run_dir,
    resolve_run,
    scan_runs_root,
    sweep_rows_to_record_rows,
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
    "BASELINES_FILENAME",
    "BENCH_SWEEP_BENCHMARK",
    "BENCH_VIEW_FORMAT",
    "CellDiff",
    "CompareResult",
    "RECORD_FILENAME",
    "RECORD_FORMAT",
    "RECORD_VERSION",
    "RegistryError",
    "RunRecord",
    "Tolerance",
    "baseline_record",
    "bench_view_payload",
    "cell_key",
    "compare_cells",
    "compare_runs",
    "flatten_metrics",
    "load_baselines",
    "load_run_record",
    "new_run_dir",
    "promote",
    "record_bench_run",
    "record_chaos_run",
    "record_report_run",
    "record_run",
    "record_verify_run",
    "refresh_bench_view",
    "render_trajectory",
    "resolve_run",
    "scan_runs_root",
    "sweep_rows_to_record_rows",
    "write_run_record",
]
