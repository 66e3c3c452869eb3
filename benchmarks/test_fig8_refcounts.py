"""F8 -- Figure 8: distribution of per-file reference counts."""

from conftest import report

from repro.analysis import reference_counts_from_batches
from repro.core.experiments import run_experiment


def test_fig8_refcounts(benchmark, bench_study):
    result = benchmark.pedantic(
        run_experiment, args=("F8", bench_study), rounds=1, iterations=1
    )
    report(result)
    comp = result.comparison
    assert comp.within(
        0.08,
        labels=[
            "never read",
            "never written",
            "written exactly once",
            "write-once never-read",
            "exactly one access",
            "exactly two accesses",
            "median references",
        ],
    )
    assert comp.within(0.4, labels=["more than 10 references"])


def test_fig8_cdf_anchors(bench_study):
    counts = reference_counts_from_batches(bench_study.iter_batches("deduped"))
    total_cdf = counts.cdf("total")
    # Figure 8's curve: ~57 % at one reference, ~95 % by ten.
    assert total_cdf.fraction_at_or_below(1) > 0.5
    assert total_cdf.fraction_at_or_below(10) > 0.9
    assert counts.totals.max() <= 300
