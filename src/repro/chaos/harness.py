"""Seeded chaos episodes: randomized fault schedules with exact verdicts.

One *episode* = derive a deterministic sub-seed from the master seed
(blake2s over ``"chaos:<seed>:<index>"``), generate a workload and a
fault schedule from it, inject the faults through the production fault
points, and assert that recovery is **bit-identical** to the fault-free
reference -- all with runtime invariant checking enabled.  Episode kinds
cover the layers the robustness stack protects:

* ``sweep-worker-kill`` -- SIGKILL a forked sweep worker mid-task; the
  retried sweep must match the fault-free cells exactly.
* ``sweep-interrupt-resume`` -- KeyboardInterrupt the sweep parent after
  N checkpoints; the resumed run must complete bit-identically.
* ``serve-crash-reopen`` -- abandon a journaled session mid-stream (no
  snapshot, as a crash would); recovery replays the journal tail and the
  finished stream matches the reference.
* ``serve-torn-tail`` -- tear trailing bytes off the journal (a crashed
  append); repair drops exactly the torn frame and the client's re-send
  completes the stream.
* ``shard-damage`` -- truncate or delete a cached store shard between
  sweeps; the self-healing cache quarantines, regenerates, and the rows
  stay identical.
* ``slow-consumer`` -- delay every chunk apply; slowness must never
  change results.
* ``hsm-corrupt`` -- the canary: deliberately skew one cache counter
  behind the ``hsm-batch`` fault point and require the invariant checker
  to catch it *and* the quarantine bundle to replay the violation.

Verdicts are recorded as scheduling-independent booleans, and the report
carries no wall-clock timestamps, so the same master seed always
produces byte-identical ``chaos_report.json`` content -- every failing
episode is one ``repro chaos replay --seed S --episode I`` away.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.chaos.plan import FaultPlan, delete_shard, truncate_shard
from repro.util.durable import write_json
from repro.verify.invariants import (
    ENABLE_ENV,
    QUARANTINE_ENV,
    InvariantViolation,
)

EPISODE_KINDS = (
    "sweep-worker-kill",
    "sweep-interrupt-resume",
    "serve-crash-reopen",
    "serve-torn-tail",
    "shard-damage",
    "slow-consumer",
    "hsm-corrupt",
)

REPORT_FORMAT = "repro-chaos-report-v1"
REPORT_NAME = "chaos_report.json"

#: Tiny fixed sweep workload: stores are cached across episodes, and the
#: grid stays small enough that a full episode is a few seconds.
_SWEEP_BASE = dict(
    policies=("stp", "lru"),
    capacity_fractions=(0.01, 0.04),
    seeds=(0,),
    scale=0.002,
    duration_days=90.0,
    retry_backoff=0.0,
)


def episode_seed(master_seed: int, index: int) -> int:
    """The deterministic sub-seed for one episode (blake2s-derived)."""
    digest = hashlib.blake2s(f"chaos:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def episode_kinds(
    master_seed: int, episodes: int, kinds: Optional[Sequence[str]] = None
) -> List[str]:
    """The kind of each episode: a seeded shuffle cycled over the run.

    Cycling a shuffled order (rather than sampling independently) makes
    a short run -- the CI smoke runs five episodes -- cover distinct
    layers instead of collapsing onto repeats, while staying a pure
    function of the master seed.
    """
    pool = list(kinds if kinds is not None else EPISODE_KINDS)
    for kind in pool:
        if kind not in EPISODE_KINDS:
            raise ValueError(
                f"unknown episode kind {kind!r}; "
                f"choose from {list(EPISODE_KINDS)}"
            )
    order = list(pool)
    rng = np.random.default_rng(episode_seed(master_seed, -1) % 2**32)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(episodes)]


@contextlib.contextmanager
def _scoped_env(**pairs: Optional[str]) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in pairs}
    for key, value in pairs.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _synth_chunks(rng: np.random.Generator, n_chunks: int, events: int,
                  n_files: int = 80) -> List[Any]:
    """A deterministic, globally time-ordered chunked event stream."""
    from repro.engine.batch import EventBatch

    t0 = 0.0
    chunks = []
    for _ in range(n_chunks):
        times = np.sort(t0 + rng.random(events) * 3600.0)
        t0 = float(times[-1])
        chunks.append(EventBatch.from_columns(
            file_id=rng.integers(0, n_files, events),
            size=rng.integers(1, 1 << 20, events),
            time=times,
            is_write=rng.random(events) < 0.3,
            device=rng.integers(0, 3, events),
            error=(rng.random(events) < 0.05).astype(np.int8),
            user=rng.integers(0, 40, events),
            latency=rng.random(events) * 5.0,
            transfer=rng.random(events) * 2.0,
        ))
    return chunks


def _session_spec(rng: np.random.Generator, name: str):
    from repro.serve.session import SessionSpec

    return SessionSpec(
        name=name,
        policy="lru",
        capacity_bytes=int(rng.integers(2, 8)) * 1024 * 1024,
        labels=("alpha", "beta"),
    )


def _reference_finalize(spec, chunks) -> dict:
    """What an uninterrupted session reports after the same stream."""
    from repro.serve.session import ReplaySession

    session = ReplaySession(spec)
    for chunk in chunks:
        session.feed(chunk)
    return session.finalize()


def _sweep_cells(result) -> list:
    """Fault-independent view of sweep rows: identity + metrics only."""
    return sorted(
        (row.seed, row.scenario, row.policy, row.capacity_fraction,
         row.capacity_bytes, row.metrics)
        for row in result.rows
    )


# ---------------------------------------------------------------------------
# Episode implementations (each returns a dict of boolean/int verdicts)


def _episode_sweep_worker_kill(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.engine import SweepConfig, run_sweep

    baseline = run_sweep(SweepConfig(**_SWEEP_BASE, cache_dir=str(cache_dir)))
    plan = FaultPlan(workdir / "plan")
    plan.kill_worker(once=True)
    with plan.activate():
        result = run_sweep(SweepConfig(
            **_SWEEP_BASE, cache_dir=str(cache_dir), workers=2,
        ))
    return {
        "complete": not result.failed_cells,
        "retried": result.retries >= 1,
        "bit_identical": _sweep_cells(result) == _sweep_cells(baseline),
    }


def _episode_sweep_interrupt_resume(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.engine import SweepConfig, run_sweep

    base = dict(_SWEEP_BASE, engine="des")  # every cell its own task
    baseline = run_sweep(SweepConfig(**base, cache_dir=str(cache_dir)))
    runs = workdir / "runs"
    interrupt_at = int(rng.integers(1, 4))  # of 4 checkpointable tasks
    plan = FaultPlan(workdir / "plan")
    plan.interrupt_after_checkpoints(interrupt_at)
    interrupted = False
    with plan.activate():
        try:
            run_sweep(SweepConfig(
                **base, cache_dir=str(cache_dir), run_dir=str(runs),
            ))
        except KeyboardInterrupt:
            interrupted = True
    resumed = run_sweep(SweepConfig(
        **base, cache_dir=str(cache_dir), run_dir=str(runs), resume=True,
    ))
    return {
        "interrupted": interrupted,
        "complete": not resumed.failed_cells,
        "work_conserved": (
            resumed.tasks_resumed + resumed.tasks_executed == 4
            and resumed.tasks_resumed >= interrupt_at
        ),
        "bit_identical": _sweep_cells(resumed) == _sweep_cells(baseline),
    }


def _episode_serve_crash_reopen(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.serve.session import JournaledSession

    n_chunks = int(rng.integers(4, 8))
    crash_at = int(rng.integers(1, n_chunks))
    chunks = _synth_chunks(rng, n_chunks, int(rng.integers(150, 350)))
    spec = _session_spec(rng, "chaos-crash")
    reference = _reference_finalize(spec, chunks)

    live = JournaledSession.create(workdir / "session", spec, snapshot_every=2)
    for seq in range(crash_at):
        live.feed(chunks[seq], seq)
    # A crash writes no snapshot and closes nothing: just drop the
    # object.  Recovery must rebuild purely from journal + snapshots.
    del live

    recovered = JournaledSession.open(workdir / "session")
    resumed_at = recovered.next_seq
    for seq in range(resumed_at, n_chunks):
        recovered.feed(chunks[seq], seq)
    final = recovered.session.finalize()
    return {
        "resumed_at_crash_point": resumed_at == crash_at,
        "bit_identical": final == reference,
    }


def _episode_serve_torn_tail(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.serve.session import JournaledSession

    # Odd chunk count: with snapshot_every=2 the final frame is never
    # snapshot-covered, matching what a crashed append can actually lose
    # (a frame that was neither applied nor snapshotted).
    n_chunks = int(rng.integers(1, 3)) * 2 + 1
    chunks = _synth_chunks(rng, n_chunks, int(rng.integers(150, 350)))
    spec = _session_spec(rng, "chaos-torn")
    reference = _reference_finalize(spec, chunks)

    live = JournaledSession.create(workdir / "session", spec, snapshot_every=2)
    for seq, chunk in enumerate(chunks):
        live.feed(chunk, seq)
    live.journal.close()
    journal_path = live.journal.journal_path
    torn = int(rng.integers(1, 64))
    with open(journal_path, "r+b") as handle:
        handle.truncate(max(journal_path.stat().st_size - torn, 1))

    recovered = JournaledSession.open(workdir / "session")
    lost_last = recovered.next_seq == n_chunks - 1
    if lost_last:  # the torn frame was never acked; the client re-sends
        recovered.feed(chunks[-1], n_chunks - 1)
    final = recovered.session.finalize()
    return {
        "tail_repaired": recovered.next_seq == n_chunks,
        "lost_exactly_torn_frame": lost_last,
        "bit_identical": final == reference,
    }


def _episode_shard_damage(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.engine import SweepConfig, run_sweep
    from repro.engine.store import store_dir_for
    from repro.util.units import DAY
    from repro.workload.config import WorkloadConfig

    config = SweepConfig(**_SWEEP_BASE, cache_dir=str(cache_dir))
    baseline = run_sweep(config)
    workload = WorkloadConfig(
        scale=_SWEEP_BASE["scale"], seed=0,
        duration_seconds=_SWEEP_BASE["duration_days"] * DAY,
        fill_latencies=False,
    )
    slot = store_dir_for(cache_dir, workload, "hsm")
    damage = truncate_shard if rng.random() < 0.5 else delete_shard
    damage(slot, index=int(rng.integers(0, 2)) - 1)

    healed = run_sweep(config)
    quarantines = sorted(cache_dir.glob(f"{slot.name}.quarantine-*"))
    for stale in quarantines:  # keep the shared cache dir tidy
        import shutil

        shutil.rmtree(stale, ignore_errors=True)
    return {
        "complete": not healed.failed_cells,
        "quarantined": len(quarantines) >= 1,
        "bit_identical": _sweep_cells(healed) == _sweep_cells(baseline),
    }


def _episode_slow_consumer(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.serve.session import JournaledSession

    n_chunks = int(rng.integers(3, 6))
    chunks = _synth_chunks(rng, n_chunks, int(rng.integers(100, 250)))
    spec = _session_spec(rng, "chaos-slow")
    reference = _reference_finalize(spec, chunks)

    plan = FaultPlan(workdir / "plan")
    plan.slow_consumer(0.02, match=f"{spec.name}:")
    with plan.activate():
        live = JournaledSession.create(workdir / "session", spec)
        for seq, chunk in enumerate(chunks):
            live.feed(chunk, seq)
        final = live.session.finalize()
    return {"bit_identical": final == reference}


def _episode_hsm_corrupt(rng, workdir: Path, cache_dir: Path) -> dict:
    from repro.engine.replay import replay_policy
    from repro.engine.stream import prepare_batch
    from repro.verify.diff import replay_bundle

    n_batches = int(rng.integers(4, 10))
    corrupt_at = int(rng.integers(0, n_batches))
    batches = _synth_chunks(rng, n_batches, int(rng.integers(150, 300)))
    clean = [prepare_batch(batch) for batch in batches]
    capacity = int(rng.integers(2, 8)) * 1024 * 1024

    plan = FaultPlan(workdir / "plan")
    plan.corrupt_hsm_batch(match=f"batch:{corrupt_at}")
    verdict = {"violation_caught": False, "bundle_written": False,
               "bundle_replays": False}
    with plan.activate():
        try:
            replay_policy(clean, "lru", capacity)
        except InvariantViolation as exc:
            verdict["violation_caught"] = exc.law == "hit-miss-partition"
            if exc.bundle is not None:
                verdict["bundle_written"] = True
                replayed = replay_bundle(exc.bundle)
                verdict["bundle_replays"] = bool(replayed["reproduced"])
    return verdict


_EPISODES = {
    "sweep-worker-kill": _episode_sweep_worker_kill,
    "sweep-interrupt-resume": _episode_sweep_interrupt_resume,
    "serve-crash-reopen": _episode_serve_crash_reopen,
    "serve-torn-tail": _episode_serve_torn_tail,
    "shard-damage": _episode_shard_damage,
    "slow-consumer": _episode_slow_consumer,
    "hsm-corrupt": _episode_hsm_corrupt,
}


def run_episode(kind: str, seed: int, workdir: Path,
                cache_dir: Path) -> Dict[str, Any]:
    """Run one episode under invariant checking; returns its record.

    The fault plan, quarantine dir, and scratch state are all scoped to
    ``workdir`` and the episode's own ``activate()`` block, so episodes
    are independent no matter how they end.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    record: Dict[str, Any] = {"kind": kind, "seed": seed}
    rng = np.random.default_rng(seed % 2**63)
    with _scoped_env(**{
        ENABLE_ENV: "1",
        QUARANTINE_ENV: str(workdir / "quarantine"),
    }):
        try:
            checks = _EPISODES[kind](rng, workdir, Path(cache_dir))
        except InvariantViolation as exc:
            record["ok"] = False
            record["error"] = f"invariant {exc.law} violated at {exc.site}"
            record["bundle"] = str(exc.bundle) if exc.bundle else None
            return record
        except Exception as exc:  # noqa: BLE001 - episode verdict, not crash
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
    record["checks"] = checks
    record["ok"] = all(checks.values())
    if not record["ok"]:
        record["error"] = "checks failed: " + ", ".join(
            sorted(name for name, passed in checks.items() if not passed)
        )
    return record


def run_chaos(
    master_seed: int,
    episodes: int,
    workdir: Path,
    kinds: Optional[Sequence[str]] = None,
    only_episode: Optional[int] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run a seeded chaos soak; returns the (timestamp-free) report.

    ``only_episode`` replays a single episode of the same run -- the
    seed derivation and kind assignment are identical, so episode ``i``
    of ``repro chaos replay`` is exactly episode ``i`` of the original
    soak.
    """
    workdir = Path(workdir)
    schedule = episode_kinds(master_seed, episodes, kinds)
    cache_dir = workdir / "store-cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for index, kind in enumerate(schedule):
        if only_episode is not None and index != only_episode:
            continue
        if progress is not None:
            progress(index, kind)
        record = run_episode(
            kind, episode_seed(master_seed, index),
            workdir / f"episode-{index:03d}", cache_dir,
        )
        record["episode"] = index
        results.append(record)
    # Scrub machine-local scratch paths so the report is byte-identical
    # across runs of the same seed (the bit-reproducibility contract).
    prefix = str(workdir)
    for record in results:
        for key in ("error", "bundle"):
            value = record.get(key)
            if isinstance(value, str) and prefix in value:
                record[key] = value.replace(prefix, "<workdir>")
    failures = [record["episode"] for record in results if not record["ok"]]
    return {
        "format": REPORT_FORMAT,
        "master_seed": master_seed,
        "episodes": episodes,
        "kinds": schedule,
        "results": results,
        "failures": failures,
        "ok": not failures,
    }


def write_report(report: Dict[str, Any], path: Path) -> Path:
    """Write the chaos report deterministically (sorted keys, no clock)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, report)
    return path


def render_report(report: Dict[str, Any]) -> str:
    """A terminal summary table of one chaos report."""
    verdict = "OK" if report["ok"] else f"{len(report['failures'])} FAILED"
    lines = [
        f"chaos soak: seed {report['master_seed']}, "
        f"{report['episodes']} episode(s), {verdict}",
    ]
    for record in report["results"]:
        status = "ok" if record["ok"] else "FAIL"
        detail = record.get("error") or ", ".join(
            name for name, passed in record.get("checks", {}).items() if passed
        )
        lines.append(
            f"  episode {record['episode']:3d}  {record['kind']:<22} "
            f"{status:<4}  {detail}"
        )
    if not report["ok"]:
        lines.append(
            "replay a failure: repro chaos replay "
            f"--seed {report['master_seed']} --episode "
            f"{report['failures'][0]}"
        )
    return "\n".join(lines)
