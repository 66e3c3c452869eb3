"""``report``: the full table-and-figure reproduction (``repro report``).

Makes the calls ``repro report`` makes, in-process: a base study (the
full 731-day trace) and the dense study, the dense study's MSS latency
replay (``Study.mss_metrics``), then all 18 experiments, each rendered.
Set-up generates both traces; every repetition builds fresh studies over
those traces, so the MSS replay and Section 6's prepared stream are
recomputed each time.
"""

from __future__ import annotations

import time

from common import RepResult, Workload, batch_events, require, stage_seconds

import repro.core.study as study_mod
import repro.engine as engine_pkg
import repro.engine.stream as stream_mod
from repro.core.experiments import experiment_ids, needs_dense_study, run_experiment
from repro.core.study import Study, StudyConfig
from repro.mss.system import MSSSystem
from repro.workload.config import WorkloadConfig

SIZES = {
    "full": {"scale": 0.003},
    "tiny": {"scale": 0.001},
}

#: Section 6's policy-ordering rows; each must read 1.0 (holds).
S6_ORDERING = ("STP beats LRU", "STP beats pure size", "OPT is the lower bound")


def _mss_events(record, args, kwargs, result):
    record["attrs"]["events"] = sum(len(batch) for batch in result[0])


class ReportWorkload(Workload):
    name = "report"
    setup_repeats = 9

    def _configs(self):
        scale = self.size["scale"]
        base = StudyConfig(workload=WorkloadConfig(scale=scale, seed=self.seed))
        # As ``repro report``: the dense study runs at twice the scale.
        dense = StudyConfig.dense(scale=min(scale * 2, 0.05), seed=self.seed)
        return base, dense

    def setup(self, index):
        base_config, dense_config = self._configs()
        base, dense = Study(base_config), Study(dense_config)
        return {"traces": (base.trace, dense.trace),
                "configs": (base_config, dense_config)}

    def _studies(self, state):
        """Fresh studies over the set-up's traces (no cached replays)."""
        studies = []
        for config, trace in zip(state["configs"], state["traces"]):
            study = Study(config)
            # Study generates its trace lazily and has no public way to
            # adopt one; seeding the cache keeps generation in set-up.
            study._trace = trace
            studies.append(study)
        return studies

    def rep(self, state, index):
        base, dense = self._studies(state)
        rendered, failed, s6 = [], 0, None
        ids = experiment_ids()
        start = time.perf_counter()
        with self.span("study.mss_metrics"):
            _ = dense.mss_metrics
        for exp_id in ids:
            study = dense if needs_dense_study(exp_id) else base
            try:
                with self.span(f"analysis.{exp_id}"):
                    result = run_experiment(exp_id, study)
                    rendered.append(result.render())
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failed += 1
                rendered.append(f"== {exp_id} FAILED: {exc!r}")
                continue
            if exp_id == "S6":
                s6 = result.comparison
        wall = time.perf_counter() - start
        return RepResult(
            ops_ms=[wall * 1e3],
            items=len(ids) - failed,
            wall_s=wall,
            attempted=len(ids),
            failed=failed,
            output={"text": "\n\n".join(rendered), "s6": s6},
        )

    def check(self, state, reps):
        first = reps[0].output
        s6 = first["s6"]
        require(s6 is not None, "S6 did not run")
        for label in S6_ORDERING:
            measured = s6.row(label).measured_value
            want = 0.0 if self.wrong("report-s6") else 1.0
            require(measured == want,
                    f"S6 ordering row {label!r} reads {measured}, want {want}")
        reference = first["text"] + ("x" if self.wrong("report-identity") else "")
        for rep in reps[1:]:
            require(rep.output["text"] == reference,
                    "two report passes over one seed rendered different output")
        print(f"check report: S6 ordering holds ({len(S6_ORDERING)} rows), "
              f"{len(reps)} passes rendered identical output "
              f"({len(reference)} chars)")

    def patches(self):
        return [
            (study_mod, "generate_trace", "workload.generate", stage_seconds),
            (MSSSystem, "replay_columns", "mss.replay", _mss_events),
            (engine_pkg, "replay_policy",
             lambda args, kwargs: f"hsm.des.{args[1]}", batch_events),
            (stream_mod, "hsm_batches_from_stream",
             "engine.stream.prep", "generator"),
        ]


WORKLOAD = ReportWorkload
