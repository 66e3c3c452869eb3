"""ABSTRACT -- one-day and one-week request periodicity, reads-driven."""

from conftest import report

from repro.analysis import analyze_direction_from_batches
from repro.core.experiments import run_experiment


def test_abstract_periodicity(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("ABSTRACT", bench_study), rounds=1, iterations=1
    )
    report(result, tolerance=0.01)


def test_period_strengths(bench_study):
    reads = analyze_direction_from_batches(
        bench_study.iter_batches("good"), direction=False
    )
    writes = analyze_direction_from_batches(
        bench_study.iter_batches("good"), direction=True
    )
    print(f"\nreads:  acf(24h)={reads.daily_autocorrelation:.3f} "
          f"acf(168h)={reads.weekly_autocorrelation:.3f} "
          f"top periods {[round(p) for p, _ in reads.top_periods_hours[:3]]}")
    print(f"writes: acf(24h)={writes.daily_autocorrelation:.3f} "
          f"acf(168h)={writes.weekly_autocorrelation:.3f}")
    # Both periods visible in the read spectrum.
    assert reads.has_period(24.0)
    assert reads.has_period(168.0)
    # "Read requests ... account for the majority of the periodicity."
    assert reads.periodicity_strength > 2 * max(writes.periodicity_strength, 0.01)
