"""Deterministic fault-plan construction (shared by tests and chaos).

A :class:`FaultPlan` builds the JSON plan that
:func:`repro.engine.resilience.fault_point` reads via the
``REPRO_FAULT_PLAN`` environment variable: which production fault point
to trip (by site + label substring), what to do there (SIGKILL the
worker or the parent, sleep, raise, interrupt the parent, count
executions, corrupt a counter), and how often (every hit, exactly once
across all processes, or on the Nth hit).  Everything is file-based, so
rules coordinate across forked workers without shared memory:
exactly-once uses an ``O_EXCL`` flag file, task counters append to a
log the caller reads back.

Because the coordination state lives in files, *hygiene matters*: a
consumed ``once_path`` flag silently disarms the same plan on its next
use, and a stale ``REPRO_FAULT_PLAN`` leaks one test's faults into the
next.  :meth:`FaultPlan.reset` re-arms a plan (drops the scratch files,
keeps the rules), :meth:`FaultPlan.cleanup` removes everything it wrote,
and :meth:`FaultPlan.activate` scopes the environment variable so
back-to-back chaos episodes start from a clean slate.

Shard-damage helpers (:func:`truncate_shard`, :func:`flip_shard_byte`,
:func:`delete_shard`) corrupt cached :class:`TraceStore` slots the way a
failing disk would, for self-healing-cache scenarios.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, List, Optional

from repro.engine.resilience import FAULT_PLAN_ENV
from repro.util.durable import write_json

PLAN_NAME = "fault-plan.json"


class FaultPlan:
    """Builder for one scenario's fault plan, rooted in a scratch dir."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.rules: List[dict] = []
        self._n = 0
        self._count_path: Optional[Path] = None
        self._scratch_paths: List[Path] = []

    @property
    def plan_path(self) -> Path:
        return self.root / PLAN_NAME

    def _scratch(self, kind: str) -> Path:
        self._n += 1
        path = self.root / f"fault-{kind}-{self._n}"
        self._scratch_paths.append(path)
        return path

    def _rule(self, site: str, action: str, *, match: Optional[str] = None,
              once: bool = False, **extra) -> dict:
        rule = {"site": site, "action": action, **extra}
        if match is not None:
            rule["match"] = match
        if once:
            rule["once_path"] = str(self._scratch("once"))
        self.rules.append(rule)
        return rule

    # -- worker-side faults -------------------------------------------------

    def kill_worker(self, match: Optional[str] = None, *, once: bool = True) -> None:
        """SIGKILL the worker process mid-task (a crashed fork)."""
        self._rule("worker-task", "kill", match=match, once=once)

    def sleep_worker(self, seconds: float, match: Optional[str] = None,
                     *, once: bool = True) -> None:
        """Hang the worker mid-task (exercises the task timeout)."""
        self._rule("worker-task", "sleep", match=match, once=once,
                   seconds=seconds)

    def raise_worker(self, match: Optional[str] = None, *, once: bool = True) -> None:
        """Raise FaultInjected inside the task (a deterministic failure)."""
        self._rule("worker-task", "raise", match=match, once=once)

    def count_worker_tasks(self) -> Path:
        """Log every task execution; returns the log path to read back."""
        self._count_path = self._scratch("count")
        self._rule("worker-task", "count", count_path=str(self._count_path))
        return self._count_path

    # -- parent-side faults -------------------------------------------------

    def interrupt_after_checkpoints(self, n: int) -> None:
        """KeyboardInterrupt the parent right after the Nth checkpoint
        lands (a simulated Ctrl-C mid-sweep)."""
        self._rule("parent-checkpoint", "interrupt", after=n,
                   counter_path=str(self._scratch("counter")))

    def sigterm_after_checkpoints(self, n: int) -> None:
        """SIGTERM the parent right after the Nth checkpoint lands (a
        simulated orchestrator stop mid-sweep)."""
        self._rule("parent-checkpoint", "sigterm", after=n,
                   counter_path=str(self._scratch("counter")))

    def kill_after_checkpoints(self, n: int) -> None:
        """SIGKILL the parent right after the Nth checkpoint lands (a
        crashed sweep process: nothing runs after the checkpoint)."""
        self._rule("parent-checkpoint", "kill", after=n,
                   counter_path=str(self._scratch("counter")))

    # -- service-side faults ------------------------------------------------

    def kill_server_mid_chunk(self, match: Optional[str] = None,
                              *, once: bool = True) -> None:
        """SIGKILL the server after a chunk's journal append but before
        it is applied (the crash window recovery must close)."""
        self._rule("serve-journal", "kill", match=match, once=once)

    def kill_server_before_journal(self, match: Optional[str] = None,
                                   *, once: bool = True) -> None:
        """SIGKILL the server before a chunk's journal append (the chunk
        is lost; the client's re-send must land cleanly)."""
        self._rule("serve-ingest", "kill", match=match, once=once)

    def slow_consumer(self, seconds: float, match: Optional[str] = None) -> None:
        """Delay every chunk apply (a slow session worker): the ingest
        queue backs up, exercising 429 backpressure and metrics shedding."""
        self._rule("serve-applied", "sleep", match=match, seconds=seconds)

    # -- replay-side faults -------------------------------------------------

    def corrupt_hsm_batch(self, match: Optional[str] = None,
                          *, once: bool = True) -> None:
        """Deliberately skew a cache counter after one replayed batch.

        The ``hsm-batch`` call site bumps ``read_hits`` when it sees the
        ``corrupt`` action fire -- a one-count divergence no end-to-end
        comparison would notice, but the invariant checker's
        hit-miss-partition law must catch on the very next check.
        """
        self._rule("hsm-batch", "corrupt", match=match, once=once)

    # -- installation & hygiene --------------------------------------------

    def write(self) -> Path:
        """Write the plan JSON; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        write_json(self.plan_path, {"rules": self.rules})
        return self.plan_path

    def executed_labels(self) -> List[str]:
        """Task labels logged by :meth:`count_worker_tasks`, in hit order."""
        if self._count_path is None or not self._count_path.is_file():
            return []
        return self._count_path.read_text().splitlines()

    def reset(self) -> None:
        """Re-arm the plan: drop consumed flag/counter/log files.

        A ``once_path`` that already exists means the rule is spent; a
        stale hit counter shifts every ``after=N`` rule.  Dropping the
        scratch files restores the plan to exactly its just-written
        state, so a second episode sees the same fault schedule as the
        first.
        """
        for path in self._scratch_paths:
            with contextlib.suppress(OSError):
                path.unlink()

    def cleanup(self) -> None:
        """Remove everything the plan wrote (scratch files and the JSON)."""
        self.reset()
        with contextlib.suppress(OSError):
            self.plan_path.unlink()

    @contextlib.contextmanager
    def activate(self) -> Iterator[Path]:
        """Write the plan, export ``REPRO_FAULT_PLAN``, and guarantee the
        environment and scratch state are restored afterwards -- the
        hygiene contract that keeps back-to-back episodes independent."""
        path = self.write()
        previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = str(path)
        try:
            yield path
        finally:
            if previous is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous
            self.cleanup()


# ---------------------------------------------------------------------------
# Shard damage


def _shard_files(store_path: Path) -> List[Path]:
    files = sorted(Path(store_path).glob("shard-*.npy"))
    if not files:
        raise FileNotFoundError(f"no shard files under {store_path}")
    return files


def truncate_shard(store_path: Path, index: int = -1) -> Path:
    """Chop the tail off one shard file (a torn write); returns it."""
    target = _shard_files(store_path)[index]
    data = target.read_bytes()
    target.write_bytes(data[: max(len(data) // 2, 1)])
    return target


def flip_shard_byte(store_path: Path, index: int = -1) -> Path:
    """Flip the last byte of one shard file (bit rot); returns it."""
    target = _shard_files(store_path)[index]
    data = bytearray(target.read_bytes())
    data[-1] ^= 0xFF
    target.write_bytes(bytes(data))
    return target


def delete_shard(store_path: Path, index: int = -1) -> Path:
    """Remove one shard file outright; returns its (now dead) path."""
    target = _shard_files(store_path)[index]
    target.unlink()
    return target
