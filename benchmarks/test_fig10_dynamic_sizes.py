"""F10 -- Figure 10: size distribution of transferred files."""

from conftest import report

from repro.analysis import dynamic_distribution_from_batches
from repro.core.experiments import run_experiment
from repro.util.units import MB


def test_fig10_dynamic_sizes(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("F10", bench_study), rounds=1, iterations=1
    )
    report(result, tolerance=0.2)


def test_fig10_curve_anchors(bench_study):
    dist = dynamic_distribution_from_batches(bench_study.iter_batches("good"))
    files_read = dist.files_read_cdf()
    data_read = dist.data_read_cdf()
    # 40 % of requests at or below 1 MB, but that is ~no data.
    assert dist.fraction_requests_under(1 * MB) > 0.3
    assert data_read.fraction_at_or_below(1 * MB) < 0.05
    # The 8 MB standard-history bump is a write-side feature.
    assert dist.write_bump_strength() > 1.5
    # Nothing exceeds the 200 MB cartridge limit.
    assert files_read.values.max() <= 200 * MB
