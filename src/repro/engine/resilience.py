"""Fault-tolerant execution: checkpoints, supervised workers, fault points.

The paper's MSS ran unattended for years in a machine room where device
faults and operator error were the normal case, not the exception.  Our
long-running surfaces -- multi-hour policy x scenario sweeps and the
content-addressed store cache -- used to die wholesale on a single
worker crash.  This module is the substrate that makes partial failure
survivable:

* **Checkpoint addressing.**  A sweep with a ``run_dir`` checkpoints
  into ``<runs_root>/sweep-<config-hash>/run_record.json``, keyed by the
  :func:`sweep_config_hash` of its ``SweepConfig`` (runtime-only knobs
  like worker count excluded, so a resume may use a different machine
  shape).  The record itself is written by :mod:`repro.engine.sweep`
  through the registry's :class:`~repro.registry.record.RunRecord`;
  :func:`repro.util.durable.write_json` makes every rewrite
  all-or-nothing and durable.

* **Supervised workers.**  :func:`run_supervised` replaces a bare
  ``pool.map``: a bounded submission loop over a
  ``ProcessPoolExecutor`` with per-task timeout, bounded retry with
  exponential backoff + deterministic jitter, and crash isolation -- a
  SIGKILLed fork surfaces as ``BrokenProcessPool``, the pool is
  re-spawned, and only the lost (unfinished) tasks are requeued.
  Exhausted retries degrade to a ``failed`` outcome instead of raising.

* **Fault points.**  :func:`fault_point` is an inert-by-default hook
  the test harness (``tests/resilience/faults.py``) keys via the
  ``REPRO_FAULT_PLAN`` environment variable to deterministically kill
  workers mid-task, inject slow tasks, or interrupt the parent -- so
  the whole layer is tested against injected faults, not happy paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.util.durable import content_hash

#: Environment variable naming the JSON fault plan; unset = inert hooks.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: SweepConfig fields that do not change results: excluded from the run
#: hash so a resume can change machine shape, retry budget, or cache
#: location without orphaning its checkpoints.
RUNTIME_FIELDS = frozenset(
    {"workers", "cache_dir", "run_dir", "resume", "max_retries",
     "task_timeout", "retry_backoff"}
)

#: Supervisor poll interval: how often in-flight futures are checked for
#: completion, pool breakage, and deadline overrun.
_POLL_SECONDS = 0.05


class FaultInjected(RuntimeError):
    """Raised by an injected ``raise`` fault rule (test harness only)."""


# ---------------------------------------------------------------------------
# Fault injection


def _bump_counter(path: str) -> int:
    """Increment a single-writer counter file; returns the new value."""
    try:
        count = int(Path(path).read_text() or 0)
    except (OSError, ValueError):
        count = 0
    count += 1
    Path(path).write_text(str(count))
    return count


def fault_point(site: str, label: str) -> List[str]:
    """Deterministic fault-injection hook; inert unless a plan is active.

    Production code marks named fault points (``worker-task`` before a
    sweep task executes, ``parent-checkpoint`` after a checkpoint record
    lands).  When ``REPRO_FAULT_PLAN`` names a JSON plan file, each of
    its rules fires when ``site`` matches and ``match`` (if present) is
    a substring of ``label``.  Actions: ``count`` (append the label to a
    log, for task-execution counters), ``sleep`` (simulate a hung
    worker or a slow service consumer), ``raise`` (a deterministic task
    failure), ``interrupt`` (KeyboardInterrupt, a simulated Ctrl-C),
    ``sigterm`` (SIGTERM to the calling process, a simulated
    orchestrator stop), ``kill`` (SIGKILL the calling process, a
    simulated crashed fork or server), ``corrupt`` (inert here: the
    call site applies a deliberate state corruption when it sees the
    action fire, used to prove the invariant checker catches
    divergence).  The service layer adds the sites ``serve-ingest``
    (before a chunk's journal append), ``serve-journal`` (after the
    append, before apply) and ``serve-applied`` (after apply, before
    the ack); the replay layer adds ``hsm-batch`` (after each batch is
    applied to the cache).  A rule with a ``once_path`` fires exactly
    once across all processes (O_EXCL flag file); one with
    ``after``/``counter_path`` fires on the Nth hit.

    Returns the list of action names that fired, so call sites can
    react to advisory actions like ``corrupt`` (actions that raise or
    kill never return, so the list only ever carries survivable ones).
    """
    fired: List[str] = []
    plan_path = os.environ.get(FAULT_PLAN_ENV)
    if not plan_path:
        return fired
    try:
        with open(plan_path, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return fired
    for rule in plan.get("rules", ()):
        if rule.get("site") != site:
            continue
        match = rule.get("match")
        if match and match not in label:
            continue
        once = rule.get("once_path")
        if once:
            try:
                flag = os.open(once, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # this rule already fired (in some process)
            os.close(flag)
        after = rule.get("after")
        if after is not None and _bump_counter(rule["counter_path"]) != int(after):
            continue
        action = rule.get("action")
        if action == "count":
            with open(rule["count_path"], "a", encoding="utf-8") as handle:
                handle.write(label + "\n")
        elif action == "sleep":
            time.sleep(float(rule.get("seconds", 1.0)))
        elif action == "raise":
            raise FaultInjected(f"injected fault at {site}: {label}")
        elif action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {site}: {label}")
        elif action == "sigterm":
            # An orchestrator stopping the process at this exact point.
            os.kill(os.getpid(), signal.SIGTERM)
        elif action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action:
            fired.append(action)
    return fired


# ---------------------------------------------------------------------------
# Signal discipline


@contextlib.contextmanager
def sigterm_as_interrupt():
    """Deliver SIGTERM as :class:`KeyboardInterrupt` inside the block.

    ``run_sweep`` already converts Ctrl-C into a clean ``interrupted``
    run record; orchestrators (including the ``repro serve``
    supervisor) stop children with SIGTERM instead, which by default
    kills the process before any checkpoint lands.  Inside this block
    both signals take the same KeyboardInterrupt path, so either way of
    stopping a sweep leaves the same resumable checkpoint behind.

    The previous handler is restored on exit.  Off the main thread (or
    wherever the interpreter refuses handler installation) the block is
    a no-op -- signal handlers are main-thread-only in CPython.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic embedding
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ---------------------------------------------------------------------------
# Retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout budget for supervised task execution."""

    #: Re-runs after the first attempt; 0 disables retries.
    max_retries: int = 2
    #: Seconds an in-flight task may run before its pool is recycled and
    #: the task retried; None disables the deadline (crashed workers are
    #: still detected immediately via the broken pool).
    task_timeout: Optional[float] = None
    #: Exponential-backoff base delay in seconds; 0 retries immediately.
    backoff: float = 0.5
    #: Backoff ceiling.
    backoff_cap: float = 30.0


def retry_delay(policy: RetryPolicy, label: str, attempt: int) -> float:
    """Backoff before retry ``attempt`` of a task: exponential + jitter.

    The jitter is derived from a hash of (label, attempt), so delays are
    deterministic across runs (no wall-clock or RNG state involved)
    while still de-synchronizing tasks that fail together.
    """
    if policy.backoff <= 0:
        return 0.0
    base = min(policy.backoff * (2.0 ** attempt), policy.backoff_cap)
    digest = hashlib.blake2s(f"{label}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "little") / 2**32
    return base * (0.5 + 0.5 * jitter)


# ---------------------------------------------------------------------------
# Supervised execution


@dataclass
class TaskOutcome:
    """What happened to one supervised task."""

    index: int
    #: Executions consumed (1 = first try succeeded).
    attempts: int
    #: ``ok`` | ``retried`` (succeeded after >= 1 retry) | ``failed``.
    status: str
    result: Any = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0


@dataclass
class _Pending:
    """One not-yet-finished task in the supervisor's queue."""

    index: int
    attempt: int = 0
    not_before: float = 0.0
    started: float = 0.0


def _run_serial(
    worker_fn: Callable[[Any], Any],
    task: Any,
    index: int,
    label: str,
    retry: RetryPolicy,
) -> TaskOutcome:
    """In-process execution with the same retry semantics as the pool."""
    attempt = 0
    start = time.monotonic()
    while True:
        try:
            result = worker_fn(task)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if attempt >= retry.max_retries:
                return TaskOutcome(
                    index, attempt + 1, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                    elapsed_seconds=time.monotonic() - start,
                )
            time.sleep(retry_delay(retry, label, attempt))
            attempt += 1
            continue
        return TaskOutcome(
            index, attempt + 1, "ok" if attempt == 0 else "retried",
            result=result, elapsed_seconds=time.monotonic() - start,
        )


def run_supervised(
    worker_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    mp_context: str = "fork",
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    on_complete: Optional[Callable[[TaskOutcome], None]] = None,
) -> List[TaskOutcome]:
    """Run every task under supervision; never raises for task faults.

    ``workers <= 1`` runs in-process (retries still apply).  Otherwise a
    ``ProcessPoolExecutor`` (fork start-method where available) executes
    tasks with at most ``workers`` in flight:

    * A task raising an exception is retried up to ``retry.max_retries``
      times with exponential backoff + jitter, then marked ``failed``.
    * A worker dying (SIGKILL, segfault) breaks the pool: the pool is
      killed and re-spawned, and every unfinished in-flight task is
      requeued with a bumped attempt count (the dead worker's task
      cannot be attributed, so all suspects pay one attempt).
    * A task exceeding ``retry.task_timeout`` recycles the pool: the
      hung task is requeued with a bumped attempt, innocent in-flight
      tasks are requeued without one.

    ``on_complete`` fires in the parent as each task reaches a terminal
    state (checkpointing hook); outcomes are returned in task order.
    """
    retry = retry or RetryPolicy()
    if labels is None:
        labels = [str(index) for index in range(len(tasks))]
    outcomes: Dict[int, TaskOutcome] = {}

    def finish(outcome: TaskOutcome) -> None:
        outcomes[outcome.index] = outcome
        if on_complete is not None:
            on_complete(outcome)

    if not tasks:
        return []
    if workers <= 1:
        for index, task in enumerate(tasks):
            finish(_run_serial(worker_fn, task, index, labels[index], retry))
        return [outcomes[index] for index in range(len(tasks))]

    try:
        ctx = multiprocessing.get_context(mp_context)
    except ValueError:  # pragma: no cover - non-POSIX hosts
        ctx = multiprocessing.get_context("spawn")
    max_workers = min(workers, len(tasks))

    waiting: List[_Pending] = [_Pending(index) for index in range(len(tasks))]
    inflight: Dict[Future, _Pending] = {}
    executor: Optional[ProcessPoolExecutor] = None

    def spawn() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers, mp_context=ctx,
            initializer=initializer, initargs=initargs,
        )

    def kill(pool: ProcessPoolExecutor) -> None:
        # Terminate, never join: SIGKILL the workers (a hung fork would
        # block a join forever) and drop the queues without waiting.
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def requeue(entry: _Pending, error: str, *, bump: bool) -> None:
        attempt = entry.attempt + 1 if bump else entry.attempt
        if attempt > retry.max_retries:
            finish(TaskOutcome(
                entry.index, entry.attempt + 1, "failed", error=error,
                elapsed_seconds=time.monotonic() - entry.started,
            ))
            return
        delay = retry_delay(retry, labels[entry.index], attempt) if bump else 0.0
        waiting.append(_Pending(entry.index, attempt, time.monotonic() + delay))

    try:
        while waiting or inflight:
            now = time.monotonic()
            if executor is None:
                executor = spawn()
            waiting.sort(key=lambda entry: (entry.not_before, entry.index))
            while (waiting and len(inflight) < max_workers
                   and waiting[0].not_before <= now):
                entry = waiting.pop(0)
                entry.started = time.monotonic()
                try:
                    future = executor.submit(worker_fn, tasks[entry.index])
                except BrokenProcessPool:
                    # Broke while idle (worker died between tasks):
                    # nobody's fault, recycle and resubmit unbumped.
                    waiting.append(entry)
                    kill(executor)
                    executor = None
                    break
                inflight[future] = entry
            if executor is None:
                continue
            if not inflight:
                # Everything left is backing off; sleep to the earliest.
                pause = max(waiting[0].not_before - now, 0.0)
                time.sleep(min(pause, _POLL_SECONDS) or 0.01)
                continue
            done, _ = wait(
                list(inflight), timeout=_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                entry = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    requeue(entry, "worker process died (pool broken)",
                            bump=True)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    requeue(entry, f"{type(exc).__name__}: {exc}", bump=True)
                else:
                    finish(TaskOutcome(
                        entry.index, entry.attempt + 1,
                        "ok" if entry.attempt == 0 else "retried",
                        result=result,
                        elapsed_seconds=time.monotonic() - entry.started,
                    ))
            if broken:
                # The dead fork's task cannot be attributed, so every
                # unfinished in-flight task is a suspect: requeue all of
                # them with a bumped attempt and re-spawn the pool.
                for entry in inflight.values():
                    requeue(entry, "worker process died (pool broken)",
                            bump=True)
                inflight.clear()
                kill(executor)
                executor = None
                continue
            if retry.task_timeout is not None and inflight:
                now = time.monotonic()
                hung = [
                    entry for entry in inflight.values()
                    if now - entry.started > retry.task_timeout
                ]
                if hung:
                    # A hung worker cannot be killed individually through
                    # the executor: recycle the whole pool, bill only the
                    # overdue tasks for an attempt.
                    overdue = {entry.index for entry in hung}
                    for entry in inflight.values():
                        if entry.index in overdue:
                            requeue(
                                entry,
                                f"task timed out after "
                                f"{retry.task_timeout:.1f}s",
                                bump=True,
                            )
                        else:
                            requeue(entry,
                                    "requeued: pool recycled around a "
                                    "hung task", bump=False)
                    inflight.clear()
                    kill(executor)
                    executor = None
    finally:
        if executor is not None:
            kill(executor)

    return [outcomes[index] for index in sorted(outcomes)]


# ---------------------------------------------------------------------------
# Checkpoint addressing


def sweep_config_hash(config: Any) -> str:
    """Content address of one sweep's result-determining configuration:
    every ``SweepConfig`` field except :data:`RUNTIME_FIELDS`."""
    import dataclasses

    return content_hash({
        name: value
        for name, value in dataclasses.asdict(config).items()
        if name not in RUNTIME_FIELDS
    })[:16]
