"""Shared pieces of the benchmark: results, checks, statistics, layers."""

from __future__ import annotations

import contextlib
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from tracing import Tracer

HERE = Path(__file__).resolve().parent


def no_span(name: str, **attrs: Any) -> contextlib.nullcontext:
    """Stand-in for :meth:`Tracer.span` in untraced repetitions."""
    return contextlib.nullcontext({"attrs": attrs})


class CheckFailed(RuntimeError):
    """A correctness check found output that differs from its reference."""


def require(condition: bool, message: str) -> None:
    """Fail the run (not just an ``assert``, which ``-O`` would drop)."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class RepResult:
    """One repetition of a workload's measured unit of work."""

    #: Latency samples of the user-facing operation, in milliseconds.
    ops_ms: List[float]
    #: Work items completed (cells, experiments, events).
    items: int
    #: Wall time of the repetition's measured phase.
    wall_s: float
    attempted: int
    failed: int
    #: Whatever the correctness checks need from this repetition.
    output: Any = None
    #: Extra samples (e.g. metrics polls) keyed by name.
    extra_ms: Dict[str, List[float]] = field(default_factory=dict)


class Workload:
    """One benchmark workload: set-up, one repetition, checks, layers."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, *, seed: int, size: dict, work: Path, src: Path,
                 corrupt: Optional[str]) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.src = src
        self.corrupt = corrupt
        #: Span factory: a no-op unless a traced repetition is running.
        self.span = no_span

    def setup(self, index: int) -> Any:
        raise NotImplementedError

    def discard(self, state: Any) -> None:
        """Release a set-up that will not be measured."""

    def rep(self, state: Any, index: int) -> RepResult:
        raise NotImplementedError

    def trace_rep(self, state: Any, index: int) -> RepResult:
        """The repetition a traced run times (default: :meth:`rep`)."""
        return self.rep(state, index)

    def check(self, state: Any, reps: Sequence[RepResult]) -> None:
        raise NotImplementedError

    def peak_rss_mb(self, state: Any) -> float:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def patches(self) -> list:
        """Tracer targets: ``(owner, attribute, span name[, hook])``."""
        return []

    def layer_extras(self, state: Any, base: RepResult, traced: RepResult,
                     tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics that do not come from span times."""
        return {}

    def close(self, state: Any) -> None:
        """Release the measured set-up."""

    def wrong(self, check: str) -> bool:
        """True when the self-test asked this check to use a wrong reference."""
        return self.corrupt == check


# ---------------------------------------------------------------------------
# Statistics


def tail_latency(samples: Sequence[float]) -> tuple:
    """(label, value): the highest of p99.9/p99/p90 with at least ten
    samples beyond it.

    With fewer than 100 samples no such percentile exists, and the mean
    is returned: a run of a few long operations has no measurable tail,
    and on a host whose speed shifts in phases a per-run median flips
    between phases where the mean moves smoothly.
    """
    n = len(samples)
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", float(np.percentile(samples, q))
    return "mean", float(np.mean(samples))


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(
        entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file()
    )


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stage_seconds(record: dict, args: tuple, kwargs: dict, trace) -> None:
    """Tracer hook: copy ``generate_trace``'s own stage timings onto its span."""
    for stage, seconds in trace.stage_seconds.items():
        record["attrs"][f"stage_{stage}"] = seconds


def batch_events(record: dict, args: tuple, kwargs: dict, result) -> None:
    """Tracer hook: count the events of the batch list passed first."""
    record["attrs"]["events"] = sum(len(batch) for batch in args[0])


def load_provenance() -> dict:
    with open(HERE / "provenance.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run

#: Replay layers (span-name prefix -> metric) reported as events/s:
#: events passed in, over the layer's inclusive time.
RATE_LAYERS = {
    "engine.stackdist": "engine.stackdist.events_per_s",
    "hsm.des": "hsm.des.events_per_s",
    "mss.replay": "mss.events_per_s",
}


#: Per-layer metrics only the serve workload measures (0 elsewhere).
SERVE_EXTRAS = (
    "serve.service.http_s",
    "serve.service.refused",
    "serve.service.poll_p50_ms",
    "serve.journal.bytes_per_event",
    "serve.journal.recover_s",
)


def layer_metrics(tracer: Tracer, extras: Dict[str, float],
                  names: Sequence[str]) -> Dict[str, float]:
    """Every per-layer metric in ``names``, from spans plus ``extras``.

    A ``<span name>_s`` metric is that span's total self time, so a layer
    the workload never calls reads 0.  Derived metrics (rates, ratios,
    the sweep's own overhead) are computed here from the same spans.
    """
    table = tracer.by_name()

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(prefix: str) -> float:
        return sum(
            row["total_s"] for span, row in table.items()
            if span == prefix or span.startswith(prefix + ".")
        )

    def events(prefix: str) -> float:
        return sum(
            record["attrs"].get("events", 0) for record in tracer.spans
            if record["name"] == prefix or record["name"].startswith(prefix + ".")
        )

    derived: Dict[str, float] = {name: 0.0 for name in SERVE_EXTRAS}
    derived.update(extras)
    for prefix, metric in RATE_LAYERS.items():
        busy = total_s(prefix)
        derived[metric] = events(prefix) / busy if busy else 0.0
    prep_in = tracer.attr_sum("engine.stream.prep", "events_in")
    prep_out = tracer.attr_sum("engine.stream.prep", "events_out")
    derived["engine.stream.keep_ratio"] = prep_out / prep_in if prep_in else 0.0
    stored_events = tracer.attr_sum("engine.store.write", "events")
    derived["engine.store.bytes_per_event"] = (
        tracer.attr_sum("engine.store.write", "bytes") / stored_events
        if stored_events else 0.0
    )
    for stage in ("chains", "namespace"):
        derived[f"workload.stage.{stage}_s"] = tracer.attr_sum(
            "workload.generate", f"stage_{stage}"
        )
    derived["engine.sweep.overhead_s"] = max(
        total_s("engine.sweep")
        - total_s("engine.stackdist") - total_s("hsm.des")
        - total_s("engine.store.open"),
        0.0,
    ) if "engine.sweep" in table else 0.0
    analysis = [span for span in table if span.startswith("analysis.")]
    derived["analysis.other_s"] = sum(
        self_s(span) for span in analysis
        if span not in ("analysis.ABSTRACT", "analysis.T2")
    )
    derived["trace.leaf_coverage"] = tracer.leaf_coverage()

    metrics: Dict[str, float] = {}
    for name in names:
        if name in derived:
            metrics[name] = float(derived[name])
        elif name.endswith("_s"):
            metrics[name] = self_s(name[: -len("_s")])
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return metrics


def share_table(tracer: Tracer, moves: Dict[str, str]) -> str:
    """Each span name's self time and share of the traced wall time."""
    table = tracer.by_name()
    wall = sum(tracer.duration_s(root) for root in tracer.roots())
    lines = [
        f"{'layer (span)':34s} {'calls':>6s} {'self s':>9s} {'share':>7s}  moves",
        "-" * 78,
    ]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        lines.append(
            f"{name:34s} {row['calls']:6d} {row['self_s']:9.4f} "
            f"{share:7.1%}  {moves.get(name + '_s', '-')}"
        )
    lines.append(f"{'traced wall':34s} {'':6s} {wall:9.4f}")
    return "\n".join(lines)
