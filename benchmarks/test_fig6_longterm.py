"""F6 -- Figure 6: weekly averages over the two trace years."""

from conftest import report

from repro.analysis import holiday_read_dip, secular_series_from_batches
from repro.core.experiments import run_experiment
from repro.util.timeutil import TraceCalendar


def test_fig6_longterm(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("F6", bench_study), rounds=1, iterations=1
    )
    report(result, tolerance=0.45)


def test_fig6_shape_details(bench_study):
    profile = secular_series_from_batches(bench_study.iter_batches("good"))
    calendar = TraceCalendar()
    reads = profile.read_gb_per_hour
    writes = profile.write_gb_per_hour
    # Reads grow strongly over the period; writes stay within noise.
    assert reads[-26:].mean() > 1.8 * reads[:26].mean()
    assert abs(writes[-26:].mean() / writes[:26].mean() - 1.0) < 0.35
    # Thanksgiving/Christmas weeks dip versus their neighbours.
    dip = holiday_read_dip(profile, calendar.holiday_weeks(min_days=3))
    assert dip < 0.85
    # Write rate does NOT dip on those weeks ("the Cray doesn't take a
    # Christmas vacation").
    write_profile_dip = holiday_read_dip(
        type(profile)(profile.bin_labels, writes, writes),
        calendar.holiday_weeks(min_days=3),
    )
    assert write_profile_dip > dip
