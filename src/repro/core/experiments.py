"""Experiment registry: every table and figure, one runner each.

Each runner regenerates one published artifact from a :class:`Study` and
returns an :class:`ExperimentResult` carrying the rendered text and (when
applicable) the paper-vs-measured comparison.  The benchmarks call these;
``python -m repro report`` runs them all.

Every stream-consuming runner reduces the study's columnar batch
streams (``study.iter_batches(...)``) with the vectorized
``*_from_batches`` analyses; no runner materializes a record list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    Comparison,
    decomposition_comparison,
    directory_distribution,
    dynamic_distribution_from_batches,
    file_interreference_from_batches,
    filestore_statistics,
    from_metrics,
    hourly_profile_from_batches,
    media_comparison_table,
    overall_statistics_from_batches,
    periodicity_comparison_from_batches,
    pyramid_is_consistent,
    pyramid_table,
    read_growth_factor,
    reference_counts_from_batches,
    referenced_share,
    secular_series_from_batches,
    static_distribution,
    storage_pyramid,
    system_interarrivals_from_batches,
    trace_format_table,
    verbose_log_sample,
    weekend_read_dip,
    weekly_profile_from_batches,
    working_hours_lift,
    write_flatness,
)
from repro.core import paper
from repro.core.study import Study
from repro.mss.network import ncar_topology
from repro.util.timeutil import TraceCalendar
from repro.util.units import DAY


@dataclass
class ExperimentResult:
    """Output of one experiment runner."""

    experiment_id: str
    description: str
    text: str
    comparison: Optional[Comparison] = None
    #: Further paper-vs-measured tables, rendered after ``text``.
    more: Tuple[Comparison, ...] = ()

    @property
    def comparisons(self) -> List[Comparison]:
        """Every paper-vs-measured table, in render order."""
        head = [] if self.comparison is None else [self.comparison]
        return head + list(self.more)

    def render(self) -> str:
        """Text block for reports."""
        parts = [f"== {self.experiment_id}: {self.description} =="]
        if self.comparison is not None:
            parts.append(self.comparison.render())
        if self.text:
            parts.append(self.text)
        for comparison in self.more:
            parts += ["", comparison.render()]
        return "\n".join(parts)


Runner = Callable[[Study], ExperimentResult]
_REGISTRY: Dict[str, tuple] = {}


def experiment(exp_id: str, description: str, needs_dense: bool = False):
    """Decorator registering an experiment runner."""

    def wrap(fn: Runner):
        _REGISTRY[exp_id] = (description, fn, needs_dense)
        return fn

    return wrap


def experiment_ids() -> List[str]:
    """All registered experiment ids."""
    return list(_REGISTRY)

def needs_dense_study(exp_id: str) -> bool:
    """Whether the experiment requires the dense (full-density) study."""
    return _REGISTRY[exp_id][2]


def run_experiment(exp_id: str, study: Study) -> ExperimentResult:
    """Run one experiment against a study."""
    try:
        description, runner, _ = _REGISTRY[exp_id]
    except KeyError as exc:
        raise ValueError(
            f"unknown experiment {exp_id!r}; choose from {experiment_ids()}"
        ) from exc
    return runner(study)


# ---------------------------------------------------------------------------
# Tables


@experiment("T1", "Table 1: media comparison")
def _table1(study: Study) -> ExperimentResult:
    from repro.analysis import crossover_size, time_to_last_byte
    from repro.util.units import MB

    table = media_comparison_table()
    cross = crossover_size()
    lines = [table.render(), ""]
    size = 80 * MB
    for spec in paper.TABLE1:
        lines.append(
            f"time to last byte of an 80 MB file on {spec.name}: "
            f"{time_to_last_byte(spec, size):.1f} s"
        )
    lines.append(f"optical-vs-helical crossover at {cross / MB:.1f} MB")
    return ExperimentResult("T1", "media comparison", "\n".join(lines))


@experiment("T2", "Table 2: trace record format and compaction")
def _table2(study: Study) -> ExperimentResult:
    from itertools import islice

    from repro.engine.records import records_from_batches
    from repro.trace.writer import dump_trace_string

    # Table 2 is *about* the per-record format, so this is the one
    # experiment that renders record views -- a bounded head of the lazy
    # adapter, never the materialized trace.
    raw = records_from_batches(study.iter_batches("raw"), study.trace.namespace)
    records = list(islice(raw, 20000))
    compact = dump_trace_string(records)
    ratio = len(verbose_log_sample(records)) / max(len(compact), 1)
    comp = Comparison("Table 2 (format compaction)")
    comp.add(
        "log-to-trace compression ratio",
        50.0 / 10.5,
        ratio,
        note="paper: 50 MB/month of logs -> 10-11 MB/month of trace",
    )
    return ExperimentResult(
        "T2", "trace record format", trace_format_table().render(), comp
    )


@experiment("T3", "Table 3: overall trace statistics")
def _table3(study: Study) -> ExperimentResult:
    analysis = overall_statistics_from_batches(study.iter_batches("raw"))
    return ExperimentResult(
        "T3", "overall trace statistics", analysis.render(), analysis.comparison()
    )


@experiment("T4", "Table 4: the referenced file store")
def _table4(study: Study) -> ExperimentResult:
    analysis = filestore_statistics(
        study.trace.namespace, scale=study.config.workload.scale
    )
    n_referenced, byte_share = referenced_share(
        study.iter_batches("good"), study.trace.namespace
    )
    text = analysis.render() + (
        f"\ntrace touched {n_referenced} of {study.trace.namespace.file_count} "
        f"files ({byte_share:.1%} of stored bytes)"
    )
    return ExperimentResult(
        "T4", "file store statistics", text, analysis.comparison()
    )


# ---------------------------------------------------------------------------
# Figures


@experiment("F1", "Figure 1: the storage pyramid")
def _fig1(study: Study) -> ExperimentResult:
    levels = storage_pyramid()
    comp = Comparison("Figure 1 (pyramid monotonicity)")
    comp.add("monotone cost/latency/capacity", 1.0, 1.0 if pyramid_is_consistent(levels) else 0.0)
    return ExperimentResult("F1", "storage pyramid", pyramid_table().render(), comp)


@experiment("F2", "Figure 2: NCAR network topology")
def _fig2(study: Study) -> ExperimentResult:
    topo = ncar_topology()
    lines = ["Figure 2: network connections"]
    for link in topo.links:
        lines.append(
            f"  {link.a:14s} -- {link.b:14s} [{link.network}, "
            f"{link.bandwidth / 1e6:.1f} MB/s]"
        )
    comp = Comparison("Figure 2 (topology structure)")
    comp.add("MASnet links", 4, len(topo.links_by_network("MASnet")))
    comp.add(
        "Cray has direct LDN path to every MSS device",
        3,
        sum(1 for link in topo.links_by_network("LDN") if link.touches("cray-ymp")),
    )
    return ExperimentResult("F2", "network topology", "\n".join(lines), comp)


@experiment("F3", "Figure 3: latency to first byte", needs_dense=True)
def _fig3(study: Study) -> ExperimentResult:
    dists = from_metrics(study.mss_metrics)
    comp = dists.comparison()
    decomposition = decomposition_comparison(study.mss_metrics)
    return ExperimentResult(
        "F3", "latency to first byte", dists.render(), comp, (decomposition,)
    )


@experiment("F4", "Figure 4: transfer rate by hour of day")
def _fig4(study: Study) -> ExperimentResult:
    profile = hourly_profile_from_batches(study.iter_batches("good"))
    comp = Comparison("Figure 4 (daily rhythm)")
    comp.add(
        "reads: working-hours lift over small hours",
        5.5,
        working_hours_lift(profile),
        note="Figure 4 shape: ~1 GB/h overnight vs ~5.5 GB/h peak",
    )
    comp.add("writes: coefficient of variation", 0.15, write_flatness(profile),
             note="paper: writes almost constant")
    return ExperimentResult(
        "F4", "hourly rate profile", profile.render("Figure 4 (measured)"), comp
    )


@experiment("F5", "Figure 5: transfer rate by day of week")
def _fig5(study: Study) -> ExperimentResult:
    profile = weekly_profile_from_batches(study.iter_batches("good"))
    comp = Comparison("Figure 5 (weekly rhythm)")
    comp.add("weekend read dip (weekend/weekday)", 0.5, weekend_read_dip(profile))
    comp.add("writes: coefficient of variation", 0.07, write_flatness(profile),
             note="paper: little variation over the week")
    return ExperimentResult(
        "F5", "weekly rate profile", profile.render("Figure 5 (measured)"), comp
    )


@experiment("F6", "Figure 6: weekly averages over the two years")
def _fig6(study: Study) -> ExperimentResult:
    from repro.analysis import holiday_read_dip

    profile = secular_series_from_batches(study.iter_batches("good"))
    calendar = TraceCalendar()
    comp = Comparison("Figure 6 (secular trend)")
    comp.add("read growth (last/first quarter)", 2.5, read_growth_factor(profile))
    comp.add("write growth (last/first quarter)", 1.0,
             float(profile.write_gb_per_hour[-26:].mean()
                   / max(profile.write_gb_per_hour[:26].mean(), 1e-12)))
    comp.add(
        "holiday read dip (vs neighbours)",
        0.6,
        holiday_read_dip(profile, calendar.holiday_weeks(min_days=3)),
        note="reads drop around Thanksgiving/Christmas",
    )
    return ExperimentResult(
        "F6", "secular series", profile.render("Figure 6 (measured)"), comp
    )


@experiment("F7", "Figure 7: system interarrival intervals", needs_dense=True)
def _fig7(study: Study) -> ExperimentResult:
    analysis = system_interarrivals_from_batches(study.iter_batches("raw"))
    comp = Comparison("Figure 7 (interarrivals)")
    comp.add(
        "fraction under 10 s",
        paper.SYSTEM_INTERARRIVAL_FRACTION_UNDER_10S,
        analysis.fraction_below(paper.SYSTEM_INTERARRIVAL_P90_BOUND_SECONDS),
    )
    comp.add(
        "mean interarrival",
        paper.MEAN_SYSTEM_INTERARRIVAL_SECONDS,
        analysis.mean,
        unit="s",
        note="dense study keeps full-scale density",
    )
    return ExperimentResult(
        "F7",
        "system interarrivals",
        analysis.render("Figure 7 (measured)", unit_seconds=1.0, unit="s"),
        comp,
    )


@experiment("F8", "Figure 8: per-file reference counts")
def _fig8(study: Study) -> ExperimentResult:
    counts = reference_counts_from_batches(study.iter_batches("deduped"))
    return ExperimentResult(
        "F8", "reference counts", counts.render(), counts.comparison()
    )


@experiment("F9", "Figure 9: per-file interreference intervals")
def _fig9(study: Study) -> ExperimentResult:
    analysis = file_interreference_from_batches(study.iter_batches("deduped"))
    comp = Comparison("Figure 9 (file interreference)")
    comp.add(
        "gaps under 1 day",
        paper.FRACTION_FILE_GAPS_UNDER_1_DAY,
        analysis.fraction_below(DAY),
        note="known deviation: dedupe-consistent generator caps this",
    )
    comp.add("gaps beyond 100 days exist", 1.0,
             1.0 if analysis.fraction_below(100 * DAY) < 1.0 else 0.0)
    return ExperimentResult(
        "F9",
        "file interreference intervals",
        analysis.render("Figure 9 (measured)", unit_seconds=DAY, unit="days"),
        comp,
    )


@experiment("F10", "Figure 10: dynamic size distribution")
def _fig10(study: Study) -> ExperimentResult:
    dist = dynamic_distribution_from_batches(study.iter_batches("good"))
    comp = Comparison("Figure 10 (dynamic sizes)")
    comp.add(
        "requests <= 1 MB",
        paper.FRACTION_REQUESTS_UNDER_1MB,
        dist.fraction_requests_under(1_000_000),
    )
    comp.add(
        "write bump at 8 MB present",
        1.0,
        1.0 if dist.write_bump_strength() > 1.2 else 0.0,
        note=f"write/read mass ratio at 8 MB = {dist.write_bump_strength():.1f}",
    )
    return ExperimentResult("F10", "dynamic sizes", dist.render(), comp)


@experiment("F11", "Figure 11: static size distribution")
def _fig11(study: Study) -> ExperimentResult:
    dist = static_distribution(study.trace.namespace)
    return ExperimentResult("F11", "static sizes", dist.render(), dist.comparison())


@experiment("F12", "Figure 12: directory sizes")
def _fig12(study: Study) -> ExperimentResult:
    dist = directory_distribution(study.trace.namespace)
    return ExperimentResult("F12", "directory sizes", dist.render(), dist.comparison())


@experiment("ABSTRACT", "Periodicity: one-day and one-week periods")
def _abstract(study: Study) -> ExperimentResult:
    comp = periodicity_comparison_from_batches(
        lambda: study.iter_batches("good")
    )
    return ExperimentResult("ABSTRACT", "request periodicity", "", comp)


@experiment("S6", "Section 6: migration policy comparison")
def _section6(study: Study) -> ExperimentResult:
    from repro.analysis.render import TextTable
    from repro.engine import replay_policy

    batches = study.event_batches()
    total = study.trace.namespace.total_bytes
    capacity = int(total * paper.STP_DISK_FRACTION_FOR_TARGET)
    table = TextTable(
        ["policy", "miss ratio", "capacity-miss ratio", "person-min/day"],
        title=f"Section 6: policies at {paper.STP_DISK_FRACTION_FOR_TARGET:.1%} of store",
    )
    misses = {}
    for name in ("opt", "stp", "lru", "saac", "fifo", "random", "largest-first"):
        metrics = replay_policy(batches, name, capacity, namespace=study.trace.namespace)
        misses[name] = metrics.read_miss_ratio
        table.add_row(
            name,
            f"{metrics.read_miss_ratio:.4f}",
            f"{metrics.capacity_miss_ratio:.4f}",
            f"{metrics.person_minutes_per_day():.2f}",
        )
    comp = Comparison("Section 6 (policy ordering)")
    comp.add("STP beats LRU", 1.0, 1.0 if misses["stp"] <= misses["lru"] else 0.0,
             note="Lawrie: STP best 'though only by a slim margin'")
    comp.add("STP beats pure size", 1.0,
             1.0 if misses["stp"] < misses["largest-first"] else 0.0)
    comp.add("OPT is the lower bound", 1.0,
             1.0 if misses["opt"] <= min(misses[n] for n in misses if n != "opt") else 0.0)
    return ExperimentResult("S6", "policy comparison", table.render(), comp)
