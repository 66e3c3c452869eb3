"""F5 -- Figure 5: average data rate over the course of a week."""

from conftest import report

from repro.analysis import weekly_profile_from_batches
from repro.core.experiments import run_experiment
from repro.util.timeutil import MONDAY, SATURDAY, SUNDAY


def test_fig5_weekly(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("F5", bench_study), rounds=1, iterations=1
    )
    report(result, tolerance=0.5)


def test_fig5_shape_details(bench_study):
    profile = weekly_profile_from_batches(bench_study.iter_batches("good"))
    reads = profile.read_gb_per_hour
    writes = profile.write_gb_per_hour
    weekdays = reads[1:6]
    # Weekend reads clearly below every weekday.
    assert reads[SATURDAY] < weekdays.min()
    assert reads[SUNDAY] < weekdays.min()
    # "Write requests ... experience little variation over the week."
    assert writes.max() / writes.min() < 1.5
    # "less data is transferred early Monday morning than on any other
    # day": Monday's total is the lowest weekday total.
    totals = profile.total_gb_per_hour
    assert totals[MONDAY] == min(totals[1:6])
