"""``sweep``: the Section 6 miss-ratio-vs-capacity grid (``repro sweep``).

Five inclusion-preserving policies x 16 log-spaced capacity fractions on
the classic NCAR-baseline stream, engine ``auto`` (so the stack engine
replays every cell), one worker, checkpoints and a RunRecord on.  Set-up
writes the prepared-stream store cold; each timed ``run_sweep`` call then
reads it warm.
"""

from __future__ import annotations

import dataclasses
import shutil
import time

from common import (
    RepResult,
    Workload,
    batch_events,
    dir_bytes,
    require,
    stage_seconds,
)

import repro.engine.store as store_mod
import repro.engine.stream as stream_mod
import repro.engine.sweep as sweep_mod
import repro.registry.record as record_mod
import repro.workload.generator as generator_mod
from repro.engine import STACK_POLICIES, SweepConfig, TraceStore, replay_policy
from repro.engine.sweep import log_spaced_fractions
from repro.workload.config import WorkloadConfig

SIZES = {
    "full": {"scale": 0.005, "capacities": 16},
    "tiny": {"scale": 0.002, "capacities": 4},
}

#: Cells re-derived through the per-cell DES after the timed phase.
SPOT_CHECKS = (("lru", 0), ("lru", -1), ("fifo", None))


def _stored(record, args, kwargs, store):
    record["attrs"]["events"] = store.n_events
    record["attrs"]["bytes"] = dir_bytes(store.path)


class SweepWorkload(Workload):
    name = "sweep"
    setup_repeats = 9

    def _config(self, cache_dir, run_dir) -> SweepConfig:
        return SweepConfig(
            policies=STACK_POLICIES,
            capacity_fractions=log_spaced_fractions(self.size["capacities"]),
            seeds=(self.seed,),
            scale=self.size["scale"],
            workers=1,
            cache_dir=str(cache_dir),
            engine="auto",
            run_dir=str(run_dir),
        )

    def setup(self, index):
        cache_dir = self.work / f"cache-{index}"
        # The same WorkloadConfig the sweep derives, so the timed call hits.
        config = WorkloadConfig(
            scale=self.size["scale"], seed=self.seed, fill_latencies=False
        )
        store = store_mod.open_or_generate(config, cache_dir, variant="hsm")
        return {"cache_dir": cache_dir, "store": store}

    def discard(self, state):
        shutil.rmtree(state["cache_dir"], ignore_errors=True)

    def rep(self, state, index):
        run_dir = self.work / f"runs-{index}"
        config = self._config(state["cache_dir"], run_dir)
        start = time.perf_counter()
        # Through the module attribute, so a traced run's wrapper is used.
        result = sweep_mod.run_sweep(config)
        wall = time.perf_counter() - start
        shutil.rmtree(run_dir, ignore_errors=True)
        return RepResult(
            ops_ms=[wall * 1e3],
            items=len(result.rows),
            wall_s=wall,
            attempted=config.n_cells,
            failed=len(result.failed_cells),
            output=result,
        )

    def check(self, state, reps):
        first = reps[0].output
        require(not first.failed_cells and len(first.rows) == first.config.n_cells,
                "sweep returned an incomplete grid")
        for rep in reps[1:]:
            require(rep.output.rows == first.rows,
                    "two sweeps of one stream disagree")
        batches = TraceStore.open(state["store"].path).batches()
        total = state["store"].total_bytes
        fractions = first.config.capacity_fractions
        rows = {(row.policy, row.capacity_fraction): row for row in first.rows}
        for policy, position in SPOT_CHECKS:
            fraction = fractions[len(fractions) // 2 if position is None else position]
            row = rows[(policy, fraction)]
            expected = replay_policy(
                batches, policy, max(int(total * fraction), 1),
                writeback_delay=first.config.writeback_delay,
            )
            if self.wrong("sweep-cells"):
                expected = dataclasses.replace(
                    expected, read_misses=expected.read_misses + 1
                )
            require(
                row.metrics == expected,
                f"stack-engine cell {policy}@{fraction:.4%} differs from "
                f"the per-cell DES: {row.metrics} != {expected}",
            )
        print(f"check sweep: {len(first.rows)} cells complete, "
              f"{len(reps)} runs identical, {len(SPOT_CHECKS)} cells match the DES")

    def close(self, state):
        self.discard(state)

    def patches(self):
        return [
            (generator_mod, "generate_trace", "workload.generate", stage_seconds),
            (TraceStore, "write", "engine.store.write", _stored),
            (stream_mod, "hsm_batches_from_stream",
             "engine.stream.prep", "generator"),
            (sweep_mod, "open_or_generate", "engine.store.open"),
            (TraceStore, "batches", "engine.store.open"),
            (sweep_mod, "multi_capacity_replay",
             lambda args, kwargs: f"engine.stackdist.{args[1]}", batch_events),
            (sweep_mod, "replay_policy",
             lambda args, kwargs: f"hsm.des.{args[1]}", batch_events),
            (sweep_mod, "checkpoint_task", "engine.resilience.checkpoint"),
            (sweep_mod, "write_run_summary", "engine.resilience.checkpoint"),
            (record_mod, "write_run_record", "registry.write"),
            (sweep_mod, "run_sweep", "engine.sweep"),
        ]


WORKLOAD = SweepWorkload
