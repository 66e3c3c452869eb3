"""F4 -- Figure 4: average data rate over the course of a day."""

from conftest import report

from repro.analysis import hourly_profile_from_batches
from repro.core.experiments import run_experiment


def test_fig4_daily(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("F4", bench_study), rounds=1, iterations=1
    )
    report(result, tolerance=0.5)


def test_fig4_shape_details(bench_study):
    profile = hourly_profile_from_batches(bench_study.iter_batches("good"))
    reads = profile.read_gb_per_hour
    writes = profile.write_gb_per_hour
    # "The amount of data read jumps greatly at 8 AM."
    assert reads[8] > 1.8 * reads[6]
    # Peak lies in working hours.
    assert 9 <= int(reads.argmax()) <= 17
    # "The fall is slower than the rise": 7 PM still busier than 5 AM.
    assert reads[19] > reads[5]
    # Writes vary far less than reads across the day.
    read_swing = reads.max() / reads.min()
    write_swing = writes.max() / writes.min()
    assert read_swing > 3 * write_swing
