"""The end-to-end study pipeline.

A :class:`Study` owns one synthetic trace (and, lazily, a DES replay of
it) and hands the analyses what they need.  It is the object the CLI,
examples and benchmarks all drive.

The study's one stream artifact is the columnar batch stream:
:meth:`Study.iter_batches` yields :class:`~repro.engine.batch.EventBatch`
chunks -- raw, error-stripped, or deduped -- and every figure/table
experiment reduces those streams directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.analysis import (
    Comparison,
    filestore_statistics,
    overall_statistics_from_batches,
)
from repro.mss.metrics import MetricsCollector
from repro.mss.system import MSSConfig, MSSSystem
from repro.util.units import DAY
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticTrace, generate_trace

if TYPE_CHECKING:
    from repro.analysis.tenants import TenantBreakdown
    from repro.engine.batch import EventBatch
    from repro.scenarios.spec import ScenarioSpec

#: Stream views :meth:`Study.iter_batches` can produce.
BATCH_KINDS = ("raw", "good", "deduped")


@dataclass
class StudyConfig:
    """What to generate and how to simulate it."""

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    mss: MSSConfig = field(default_factory=MSSConfig)
    #: Replace analytic latencies with DES-simulated ones.
    simulate_latencies: bool = False
    #: Content-addressed trace-store cache directory.  When set, the raw
    #: batch stream comes from (and on a miss is written to) an on-disk
    #: columnar :class:`~repro.engine.store.TraceStore` keyed by the
    #: workload config, so repeated batch-stream analyses skip
    #: generation.  The store holds events, not the namespace: anything
    #: touching :attr:`Study.trace` (Table 4, prepared HSM streams) still
    #: generates on first use.
    cache_dir: Optional[str] = None
    #: Composed multi-tenant workload.  When set, the study's stream is
    #: the scenario compositor's k-way merge of every component (each
    #: generated -- or served from the ``cache_dir`` store -- under its
    #: spec-derived seed) and ``workload`` is ignored; per-tenant
    #: breakdowns come from :meth:`Study.tenant_breakdown`.
    scenario: Optional["ScenarioSpec"] = None

    @staticmethod
    def dense(scale: float = 0.02, seed: int = 42, days: float = 16.0) -> "StudyConfig":
        """Short-duration config with full-scale arrival density.

        Fine-timescale statistics (Figure 7 clustering, Figure 3 queueing)
        depend on arrival *density*, which a scaled two-year trace cannot
        keep.  The dense config trades calendar span for density.
        """
        workload = WorkloadConfig(
            scale=scale, seed=seed, duration_seconds=days * DAY,
            fill_latencies=False,
        )
        return StudyConfig(workload=workload, simulate_latencies=True)


class Study:
    """One reproducible run: trace + optional DES replay + analyses."""

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        if self.config.scenario is not None and self.config.simulate_latencies:
            raise ValueError(
                "scenario studies carry analytic latencies from their "
                "components; simulate_latencies is not supported with a "
                "scenario"
            )
        self._trace: Optional[SyntheticTrace] = None
        self._replayed: Optional[Tuple[List["EventBatch"], MetricsCollector]] = None
        self._batches: dict = {}
        self._store = None
        self._scenario_batches: Optional[List["EventBatch"]] = None
        self._scenario_store = None

    # ------------------------------------------------------------------
    # Lazily produced artifacts

    @property
    def trace(self) -> SyntheticTrace:
        """The synthetic trace (generated on first use)."""
        if self.config.scenario is not None:
            raise ValueError(
                "a scenario study composes several component traces and "
                "has no single SyntheticTrace/namespace; use iter_batches, "
                "event_batches or tenant_breakdown instead"
            )
        if self._trace is None:
            self._trace = generate_trace(self.config.workload)
        return self._trace

    def trace_store(self):
        """The cached on-disk store of the raw stream (needs a cache dir).

        On a hit the trace itself is never generated -- batches are
        memory-mapped straight off the shards.  On a miss the study's own
        trace is written through, so a cold ``report`` still generates
        only once.
        """
        from repro.engine.store import cache_trace, open_cached

        if self.config.cache_dir is None:
            raise ValueError("study has no cache_dir configured")
        if self._store is None:
            self._store = open_cached(
                self.config.workload, self.config.cache_dir, variant="trace"
            )
            if self._store is None:
                self._store = cache_trace(self.trace, self.config.cache_dir)
        return self._store

    def _replayed_batches(self) -> List["EventBatch"]:
        """DES-replayed batch stream (simulated latencies), cached."""
        if self._replayed is None:
            system = MSSSystem(self.config.mss)
            self._replayed = system.replay_columns(
                self.trace.iter_batches(), self.trace.namespace
            )
        return self._replayed[0]

    def iter_batches(self, kind: str = "raw") -> Iterator["EventBatch"]:
        """The trace as a columnar batch stream -- the analysis path.

        ``kind`` selects the stream view the paper's filters produce:
        ``"raw"`` (errors included), ``"good"`` (Section 5.1 error
        strip), or ``"deduped"`` (error strip plus the Section 5.3
        eight-hour dedupe), all applied per batch with the engine's
        vectorized transforms.  When the study simulates latencies, the
        raw stream carries DES-simulated latency/transfer columns
        (replayed once, cached).
        """
        from repro.engine.stream import dedupe_blocks, strip_errors

        if kind not in BATCH_KINDS:
            raise ValueError(f"unknown batch kind {kind!r}; choose from {BATCH_KINDS}")
        if self.config.scenario is not None:
            base: Iterator["EventBatch"] = self._scenario_base()
        elif self.config.simulate_latencies:
            base = iter(self._replayed_batches())
        elif self.config.cache_dir is not None:
            base = self.trace_store().iter_batches()
        else:
            base = self.trace.iter_batches()
        if kind == "raw":
            return base
        good = strip_errors(base)
        if kind == "good":
            return good
        return dedupe_blocks(good)

    def _scenario_base(self) -> Iterator["EventBatch"]:
        """The composed scenario stream, composed at most once.

        With a ``cache_dir`` the composed store is written once
        (scenario-hash addressed) and every pass streams its memmapped
        shards; without one the merged batches are kept in memory after
        the first composition -- the scenario analogue of the plain
        study holding its generated trace arrays.
        """
        if self.config.cache_dir is not None:
            if self._scenario_store is None:
                from repro.scenarios.cache import compose_cached

                self._scenario_store = compose_cached(
                    self.config.scenario, self.config.cache_dir
                )
            return self._scenario_store.iter_batches()
        if self._scenario_batches is None:
            from repro.scenarios.compositor import compose

            self._scenario_batches = [
                batch for batch in compose(self.config.scenario) if len(batch)
            ]
        return iter(self._scenario_batches)

    @property
    def mss_metrics(self) -> MetricsCollector:
        """DES metrics; triggers the columnar replay if it has not run."""
        if self._replayed is None:
            if not self.config.simulate_latencies:
                raise ValueError(
                    "study was configured without DES latencies; use "
                    "StudyConfig(simulate_latencies=True)"
                )
            self._replayed_batches()
        assert self._replayed is not None
        return self._replayed[1]

    def event_batches(self, deduped: bool = True) -> List["EventBatch"]:
        """The trace's HSM reference stream as prepared engine batches.

        Cached per dedupe flag: Section 6 experiments replay the same
        stream against many policies and capacities.  ``deduped`` is a
        strict flag -- passing a stream-kind string here (a common mixup
        with :meth:`iter_batches`) raises instead of silently preparing
        the truthy default.
        """
        from repro.engine.replay import prepare_stream
        from repro.engine.stream import collect, hsm_batches_from_stream

        if not isinstance(deduped, bool):
            raise ValueError(
                f"event_batches takes deduped=True/False, got {deduped!r}; "
                f"for stream views use iter_batches(kind) with kind in "
                f"{BATCH_KINDS}"
            )
        if deduped not in self._batches:
            if self.config.scenario is not None:
                self._batches[deduped] = collect(
                    hsm_batches_from_stream(
                        self.iter_batches("raw"), deduped=deduped
                    )
                )
            else:
                self._batches[deduped] = prepare_stream(self.trace, deduped=deduped)
        return self._batches[deduped]

    def tenant_breakdown(self) -> "TenantBreakdown":
        """Per-tenant Table-3-style statistics of the raw stream.

        For scenario studies the split follows the compositor's
        id-remapping contract; a plain study is reported as the single
        tenant ``"all"``.
        """
        from repro.analysis.tenants import tenant_breakdown_from_batches

        labels = (
            self.config.scenario.tenants
            if self.config.scenario is not None
            else ["all"]
        )
        return tenant_breakdown_from_batches(self.iter_batches("raw"), labels)

    # ------------------------------------------------------------------
    # Canned analyses

    def table3(self) -> Comparison:
        """Table 3 paper-vs-measured (columnar one-pass accumulation)."""
        analysis = overall_statistics_from_batches(self.iter_batches("raw"))
        return analysis.comparison(include_latency=self.config.simulate_latencies
                                   or self.config.workload.fill_latencies)

    def table4(self) -> Comparison:
        """Table 4 paper-vs-measured."""
        return filestore_statistics(
            self.trace.namespace, scale=self.config.workload.scale
        ).comparison()
