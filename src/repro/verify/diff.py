"""Cross-engine differential checker + quarantine-bundle replay.

Three independent implementations compute the paper's migration
metrics: the per-cell DES (:func:`repro.engine.replay.replay_policy`),
the one-pass stack engine
(:func:`repro.engine.stackdist.multi_capacity_replay`), and the
incremental serve-session feed (:class:`repro.serve.session.ReplaySession`).
They are *supposed* to agree counter for counter; this module pins that
claim by pushing seeded random small configurations through all three
and diffing every :class:`~repro.hsm.metrics.HSMMetrics` field.

The streams are generated pre-cleaned (no error events, sizes >= 1,
stable per-file sizes, globally nondecreasing times) because that is the
contract all three engines share -- the session additionally clamps and
filters on ingest, which must then be a no-op.

:func:`replay_bundle` is the other half of the invariant checker's
story: it re-runs a quarantine bundle's batch window through the engine
recorded in the bundle's context, with the bundled fault plan re-armed,
and reports whether the violation reproduces.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.util.durable import write_json
from repro.verify.invariants import (
    ENABLE_ENV,
    QUARANTINE_ENV,
    InvariantViolation,
    load_quarantine_bundle,
)

#: Policies every engine implements (the stack-capable subset; all are
#: deterministic, so no seed plumbing is needed for equivalence).
DIFF_POLICIES = ("fifo", "largest-first", "lru", "mru", "smallest-first")


def random_case(rng: np.random.Generator) -> Dict[str, Any]:
    """One randomized small configuration (engine-agnostic)."""
    n_files = int(rng.integers(20, 120))
    n_events = int(rng.integers(400, 1600))
    max_size = int(rng.integers(64 * 1024, 4 * 1024 * 1024))
    total = n_files * (max_size // 2)
    return {
        "policy": str(rng.choice(DIFF_POLICIES)),
        "n_files": n_files,
        "n_events": n_events,
        "max_size": max_size,
        "chunk": int(rng.integers(64, 400)),
        "capacity_bytes": max(int(total * rng.uniform(0.02, 0.4)), 1),
        "writeback_delay": float(rng.choice([0.0, 3600.0, 4 * 3600.0])),
        "write_fraction": float(rng.uniform(0.0, 0.5)),
        "stream_seed": int(rng.integers(0, 2**31)),
    }


def case_stream(case: Dict[str, Any]) -> List[Any]:
    """The case's deterministic pre-cleaned chunked event stream."""
    from repro.engine.batch import EventBatch

    rng = np.random.default_rng(case["stream_seed"])
    n = case["n_events"]
    file_sizes = rng.integers(1, case["max_size"], case["n_files"]).astype(np.int64)
    file_id = rng.integers(0, case["n_files"], n).astype(np.int64)
    times = np.sort(rng.uniform(0.0, 30 * 86400.0, n))
    is_write = rng.random(n) < case["write_fraction"]
    zeros = np.zeros(n, dtype=np.int8)
    chunk = case["chunk"]
    return [
        EventBatch(
            file_id=file_id[i:i + chunk],
            size=file_sizes[file_id[i:i + chunk]],
            time=times[i:i + chunk],
            is_write=is_write[i:i + chunk],
            device=zeros[i:i + chunk],
            error=zeros[i:i + chunk],
        )
        for i in range(0, n, chunk)
    ]


def _metrics_fields(metrics: Any) -> Dict[str, Any]:
    return dataclasses.asdict(metrics)


def _diff_metrics(a: Any, b: Any) -> Dict[str, Any]:
    """Field-level differences between two HSMMetrics (empty = equal).

    Counters compare exactly; ``span_seconds`` (the lone float) within
    tolerance.
    """
    mismatches: Dict[str, Any] = {}
    left, right = _metrics_fields(a), _metrics_fields(b)
    for name, x in left.items():
        y = right[name]
        if name == "span_seconds":
            if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6):
                mismatches[name] = [x, y]
        elif x != y:
            mismatches[name] = [x, y]
    return mismatches


def _run_des(case: Dict[str, Any], batches: List[Any]) -> Any:
    from repro.engine.replay import replay_policy

    return replay_policy(
        batches, case["policy"], case["capacity_bytes"],
        writeback_delay=case["writeback_delay"] or None,
    )


def _run_stack(case: Dict[str, Any], batches: List[Any]) -> Any:
    from repro.engine.stackdist import multi_capacity_replay

    return multi_capacity_replay(
        batches, case["policy"], [case["capacity_bytes"]],
        writeback_delay=case["writeback_delay"] or None,
    )[0]


def _run_session(case: Dict[str, Any], batches: List[Any]) -> Any:
    from repro.serve.session import ReplaySession, SessionSpec

    session = ReplaySession(SessionSpec(
        name="diff",
        policy=case["policy"],
        capacity_bytes=case["capacity_bytes"],
        writeback_delay=case["writeback_delay"] or None,
        deduped=False,
    ))
    for batch in batches:
        session.feed(batch)
    session.finalize()
    return session.hsm.metrics


def run_differential(
    cases: int = 20,
    seed: int = 0,
    engines: tuple = ("des", "stack", "session"),
) -> Dict[str, Any]:
    """Diff N random configs across the engines; returns the report.

    ``report["ok"]`` is True when every case agreed on every metrics
    field; disagreements list the differing fields per engine pair with
    the full case config, so any mismatch is re-runnable by seed.
    """
    runners = {"des": _run_des, "stack": _run_stack, "session": _run_session}
    rng = np.random.default_rng(seed)
    results = []
    for index in range(cases):
        case = random_case(rng)
        batches = case_stream(case)
        metrics = {name: runners[name](case, batches) for name in engines}
        baseline = engines[0]
        mismatches = {}
        for other in engines[1:]:
            diff = _diff_metrics(metrics[baseline], metrics[other])
            if diff:
                mismatches[f"{baseline}-vs-{other}"] = diff
        results.append({
            "case": index,
            "config": case,
            "events": sum(len(batch) for batch in batches),
            "ok": not mismatches,
            "mismatches": mismatches,
        })
    failures = [row["case"] for row in results if not row["ok"]]
    return {
        "format": "repro-diff-report-v1",
        "seed": seed,
        "cases": cases,
        "engines": list(engines),
        "results": results,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Quarantine-bundle replay


def _realign_fault_plan(bundle: Path, meta: Dict[str, Any]) -> Optional[Path]:
    """Re-arm the bundled fault plan for a window-relative replay.

    The bundle's plan was written with scratch paths re-homed inside the
    bundle; any leftover scratch files from a previous replay are
    dropped so once-rules fire again.  ``hsm-batch`` rules matched on
    ``batch:<N>`` stream indices are shifted by ``window_start`` so they
    trip at the same position inside the (shorter) replayed window.
    """
    plan_name = meta.get("fault_plan")
    if not plan_name:
        return None
    plan_path = bundle / plan_name
    try:
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    for scratch in bundle.glob("replay-*"):
        try:
            scratch.unlink()
        except OSError:
            pass
    start = int(meta.get("window_start") or 0)
    rules = []
    for rule in plan.get("rules", ()):
        match = rule.get("match", "")
        if rule.get("site") == "hsm-batch" and match.startswith("batch:"):
            try:
                shifted = int(match.split(":", 1)[1]) - start
            except ValueError:
                shifted = -1
            if shifted < 0:
                continue  # fired before the window; unreplayable rule
            rule = dict(rule, match=f"batch:{shifted}")
        rules.append(rule)
    replay_path = bundle / "fault-plan.replay.json"
    write_json(replay_path, {"rules": rules})
    return replay_path


def replay_bundle(bundle: Path) -> Dict[str, Any]:
    """Re-run a quarantine bundle's window; report whether it reproduces.

    The engine, policy, and capacities come from the recorded
    :func:`~repro.verify.invariants.invariant_context`; invariants are
    force-enabled and the bundled fault plan (if any) is re-armed, so a
    fault-injected divergence trips the checker again.
    """
    bundle = Path(bundle)
    meta, window = load_quarantine_bundle(bundle)
    context = meta.get("context", {})
    engine = context.get("engine", "des")
    policy = context.get("policy", "lru")

    env_saved = {
        key: os.environ.get(key)
        for key in (ENABLE_ENV, QUARANTINE_ENV, "REPRO_FAULT_PLAN")
    }
    os.environ[ENABLE_ENV] = "1"
    os.environ[QUARANTINE_ENV] = str(bundle / "replay-quarantine")
    plan = _realign_fault_plan(bundle, meta)
    if plan is not None:
        os.environ["REPRO_FAULT_PLAN"] = str(plan)
    else:
        os.environ.pop("REPRO_FAULT_PLAN", None)
    outcome: Dict[str, Any] = {
        "bundle": str(bundle),
        "law": meta.get("law"),
        "engine": engine,
        "batches": len(window),
        "reproduced": False,
        "replayed_law": None,
    }
    try:
        if not window:
            outcome["error"] = "bundle has no batch window to replay"
            return outcome
        if engine == "stack":
            from repro.engine.stackdist import multi_capacity_replay

            capacities = list(context.get("capacities") or ())
            if not capacities:
                outcome["error"] = "bundle context lacks stack capacities"
                return outcome
            multi_capacity_replay(
                window, policy, capacities,
                writeback_delay=context.get("writeback_delay"),
                high_watermark=context.get("high_watermark", 0.95),
                low_watermark=context.get("low_watermark", 0.85),
            )
        else:
            from repro.engine.replay import replay_policy

            replay_policy(
                window, policy,
                int(context.get("capacity_bytes") or 1),
                writeback_delay=context.get("writeback_delay"),
            )
    except InvariantViolation as exc:
        outcome["reproduced"] = exc.law == meta.get("law")
        outcome["replayed_law"] = exc.law
    finally:
        for key, value in env_saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return outcome
