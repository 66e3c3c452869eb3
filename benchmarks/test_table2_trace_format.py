"""T2 -- Table 2: trace format round-trip and compaction ratio."""

import io
from itertools import islice

from conftest import report

from repro.core.experiments import run_experiment
from repro.trace.reader import load_trace_string
from repro.trace.writer import dump_trace_string


def test_table2_format(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("T2", bench_study), rounds=3, iterations=1
    )
    report(result)
    row = result.comparison.row("log-to-trace compression ratio")
    # The compact format must beat the verbose log by at least 3x
    # (the paper achieved ~4.8x).
    assert row.measured_value > 3.0


def test_codec_throughput(benchmark, bench_study):
    """Encode+decode throughput of the trace codec itself."""
    records = list(islice(bench_study.trace.iter_records(), 20_000))

    def roundtrip():
        text = dump_trace_string(records)
        return len(load_trace_string(text))

    count = benchmark(roundtrip)
    assert count == len(records)
