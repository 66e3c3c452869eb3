"""Analysis micro-benchmark: columnar reductions vs the record walk.

Times the full figure/table analysis pass over one trace along both
paths -- the legacy route (materialize ``TraceRecord`` objects through
the adapter, then run every record walk in ``tests.oracles.analysis``)
and the columnar
route (stream ``EventBatch`` chunks through the ``*_from_batches``
reductions) -- checks they produce the same numbers, and gates the
columnar path at >= 5x.
"""

import os
import time

import pytest

from repro.analysis.intervals import (
    file_interreference_from_batches,
    system_interarrivals_from_batches,
)
from repro.analysis.overall import overall_statistics_from_batches
from repro.analysis.periodicity import rate_series_from_batches
from repro.analysis.rates import (
    hourly_profile_from_batches,
    secular_series_from_batches,
    weekly_profile_from_batches,
)
from repro.analysis.refcounts import reference_counts_from_batches
from repro.analysis.sizes import dynamic_distribution_from_batches
from repro.engine.records import records_from_batches
from repro.engine.stream import dedupe_blocks, strip_errors
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace
from tests.oracles.analysis import (
    dynamic_distribution,
    file_interreference,
    hourly_profile,
    overall_statistics,
    rate_series,
    reference_counts,
    secular_series,
    system_interarrivals,
    weekly_profile,
)
from tests.oracles.records import dedupe_for_file_analysis

#: CI runners have noisy wall-clocks; REPRO_BENCH_RELAXED=1 keeps the
#: benchmark running (and the number-identity check enforced) but skips
#: the hard timing gate.
RELAXED = os.environ.get("REPRO_BENCH_RELAXED") == "1"

SCALE = 0.02


@pytest.fixture(scope="module")
def analysis_trace():
    return generate_trace(WorkloadConfig(scale=SCALE, seed=11))


def _summary(overall, hourly, weekly, secular, interarrivals, counts,
             file_gaps, sizes, read_series):
    """The figure/table headline numbers both paths must agree on."""
    total = overall.stats.grand_total()
    return {
        "references": total.references,
        "bytes": total.bytes_transferred,
        "error_fraction": overall.stats.error_fraction,
        "hourly_reads": hourly.read_gb_per_hour.sum(),
        "weekly_writes": weekly.write_gb_per_hour.sum(),
        "secular_total": secular.total_gb_per_hour.sum(),
        "mean_interarrival": interarrivals.mean,
        "n_files": counts.n_files,
        "never_read": counts.fraction_never_read(),
        "mean_file_gap": file_gaps.mean,
        "small_requests": sizes.fraction_requests_under(1_000_000),
        "series_mass": read_series.sum(),
    }


def _record_pass(trace):
    """The pre-columnar full-analysis pass: records first, then reduce."""
    records = list(
        records_from_batches(trace.iter_batches(), trace.namespace)
    )
    good = [r for r in records if not r.is_error]
    deduped = list(dedupe_for_file_analysis(iter(good)))
    return _summary(
        overall_statistics(iter(records)),
        hourly_profile(iter(good)),
        weekly_profile(iter(good)),
        secular_series(iter(good)),
        system_interarrivals(iter(records)),
        reference_counts(iter(deduped)),
        file_interreference(iter(deduped)),
        dynamic_distribution(iter(good)),
        rate_series(iter(good), direction=False),
    )


def _columnar_pass(trace):
    """The same analyses over streamed EventBatch reductions."""

    def raw():
        return trace.iter_batches()

    def good():
        return strip_errors(trace.iter_batches())

    def deduped():
        return dedupe_blocks(strip_errors(trace.iter_batches()))

    return _summary(
        overall_statistics_from_batches(raw()),
        hourly_profile_from_batches(good()),
        weekly_profile_from_batches(good()),
        secular_series_from_batches(good()),
        system_interarrivals_from_batches(raw()),
        reference_counts_from_batches(deduped()),
        file_interreference_from_batches(deduped()),
        dynamic_distribution_from_batches(good()),
        rate_series_from_batches(good(), direction=False),
    )


def _best_of(fn, rounds=2):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def test_columnar_analysis_is_5x_faster_than_record_pass(analysis_trace):
    trace = analysis_trace

    record_seconds, record_numbers = _best_of(lambda: _record_pass(trace))
    columnar_seconds, columnar_numbers = _best_of(lambda: _columnar_pass(trace))

    n_events = trace.n_events
    speedup = record_seconds / columnar_seconds
    print(
        f"\nrecord pass:   {n_events / record_seconds:10,.0f} events/s "
        f"({record_seconds:.2f}s)"
        f"\ncolumnar pass: {n_events / columnar_seconds:10,.0f} events/s "
        f"({columnar_seconds:.2f}s)"
        f"\nspeedup:       {speedup:.1f}x over {n_events} raw events"
    )

    # Same trace, same filters: the figure/table numbers must agree ...
    assert set(columnar_numbers) == set(record_numbers)
    for name, expected in record_numbers.items():
        assert columnar_numbers[name] == pytest.approx(expected, rel=1e-12), name
    # ... at one-fifth the cost or better.
    if not RELAXED:
        assert speedup >= 5.0, f"columnar analysis only {speedup:.1f}x faster"
