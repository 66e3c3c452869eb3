"""Conservation-law invariant checkers for the replay engines.

The paper's Table 3 / Section 6 numbers now come out of four engines
(per-record DES, columnar batch DES, single-pass stack engine,
incremental serve sessions) plus recovery machinery (journaled
sessions, checkpointed sweeps).  This module states the conservation
laws they must all obey and checks them *at runtime*, per batch and at
finalize, so a silent divergence becomes a loud, replayable failure:

* **HSM replay** (:class:`HSMInvariantChecker`): per-batch deltas must
  conserve the event stream -- ``reads`` grows by exactly the number of
  read events, ``bytes_written`` by exactly the written bytes,
  ``read_hits + read_misses == reads`` -- counters are monotone,
  resident bytes never exceed capacity, and at finalize every write has
  become exactly one tape write or one absorbed rewrite.

* **Stack engine** (:class:`StackInvariantChecker`): per-capacity usage
  equals the byte-sum of resident files, residency masks agree with the
  stint maps and size-eligibility boundaries, dirty bits are a subset
  of residency -- and in the one regime where inclusion provably holds
  (LRU with ``high == low``, i.e. pure demand eviction, and no
  oversized bypasses) each file's residency mask must be a contiguous
  suffix of the capacity vector.  Watermark eviction waves break
  inclusion for every policy (measured, not assumed), so the inclusion
  law is scoped, never assumed globally.

* **Recovery** (:func:`check_journal_recovery`): a recovered session
  must have applied a gap-free journal prefix -- snapshot + replayed
  tail exactly covers the intact frames.

* **Table-3 accumulators** (:func:`check_merge_order_independence`):
  merging partial accumulators must commute (exact for counts/bytes,
  within float tolerance for streamed moments).

Checks are disabled unless ``REPRO_CHECK_INVARIANTS=1`` (or a CLI
``--check-invariants``), so the hot loops pay nothing by default.  A
violation raises :class:`InvariantViolation` after dumping a minimized
repro bundle -- the offending batch window plus the active
:func:`invariant_context` metadata (config hash, seed, engine) and the
live fault plan, if any -- to the quarantine directory, so any failure
is one ``repro verify replay <bundle>`` away from a reproduction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.durable import write_atomic, write_json

#: Enables runtime invariant checking ("1"/"true"/"yes"/"on").
ENABLE_ENV = "REPRO_CHECK_INVARIANTS"

#: Overrides where violation bundles land (default ``.repro-quarantine``).
QUARANTINE_ENV = "REPRO_QUARANTINE_DIR"

DEFAULT_QUARANTINE_DIR = ".repro-quarantine"

#: Batches kept in the rolling repro window dumped on violation.
WINDOW_BATCHES = 4

_TRUE = {"1", "true", "yes", "on"}

#: HSMMetrics integer counters checked for monotonicity (span_seconds,
#: the lone float, is excluded).
_COUNTER_FIELDS = (
    "reads", "read_hits", "read_misses", "compulsory_misses",
    "bytes_staged", "writes", "bytes_written", "tape_writes",
    "bytes_flushed", "rewrites_absorbed", "evictions", "bytes_evicted",
    "forced_flushes", "prefetches_issued", "prefetch_hits",
    "bypassed_reads", "bypassed_writes",
)


def invariants_enabled() -> bool:
    """Whether runtime conservation-law checking is switched on."""
    return os.environ.get(ENABLE_ENV, "").strip().lower() in _TRUE


def enable_invariants(enabled: bool = True) -> None:
    """Flip the check gate process-wide (forked workers inherit it)."""
    if enabled:
        os.environ[ENABLE_ENV] = "1"
    else:
        os.environ.pop(ENABLE_ENV, None)


class InvariantViolation(AssertionError):
    """A conservation law failed; carries the law, site, and repro bundle."""

    def __init__(
        self,
        law: str,
        site: str,
        details: Dict[str, Any],
        bundle: Optional[Path] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.law = law
        self.site = site
        self.details = details
        self.bundle = bundle
        self.context = dict(context or {})
        parts = [f"invariant {law!r} violated at {site}"]
        if details:
            parts.append(json.dumps(details, sort_keys=True, default=str))
        if bundle is not None:
            parts.append(f"repro bundle: {bundle}")
        super().__init__(": ".join(parts))


# ---------------------------------------------------------------------------
# Context metadata (what a quarantine bundle records about the run)


_LOCAL = threading.local()


def _context_stack() -> List[Dict[str, Any]]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


@contextmanager
def invariant_context(**meta: Any):
    """Attach run metadata (seed, config hash, engine) to violations.

    Nested contexts merge, innermost keys winning; the merged dict is
    written into any quarantine bundle produced inside the block.
    """
    stack = _context_stack()
    stack.append(meta)
    try:
        yield
    finally:
        stack.pop()


def current_context() -> Dict[str, Any]:
    """The merged metadata of every active :func:`invariant_context`."""
    merged: Dict[str, Any] = {}
    for frame in _context_stack():
        merged.update(frame)
    return merged


# ---------------------------------------------------------------------------
# Quarantine bundles


def quarantine_root() -> Path:
    return Path(os.environ.get(QUARANTINE_ENV) or DEFAULT_QUARANTINE_DIR)


def _bundled_fault_plan(bundle_dir: Path) -> Optional[str]:
    """Copy the active fault plan into the bundle, re-homed for replay.

    ``once_path``/``counter_path`` scratch files are rewritten to live
    inside the bundle, so replaying the bundle re-fires the plan's
    faults from a clean slate instead of finding them already consumed.
    """
    plan_path = os.environ.get("REPRO_FAULT_PLAN")
    if not plan_path:
        return None
    try:
        with open(plan_path, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    for index, rule in enumerate(plan.get("rules", ())):
        for key in ("once_path", "counter_path", "count_path"):
            if key in rule:
                rule[key] = str(bundle_dir / f"replay-{key}-{index}")
    out = bundle_dir / "fault-plan.json"
    write_json(out, plan)
    return out.name


def write_quarantine_bundle(
    law: str,
    site: str,
    details: Dict[str, Any],
    window: Sequence[Any],
    window_start: Optional[int] = None,
) -> Optional[Path]:
    """Dump a minimized repro bundle; returns its path (None on IO error).

    Layout: ``violation.json`` (law, site, details, context, window
    manifest) plus one ``window-<i>.chunk`` per batch in the rolling
    window (the journal frame codec, so ``repro verify replay`` can
    decode them without the original workload).
    """
    from repro.serve.journal import encode_batch

    context = current_context()
    digest = hashlib.blake2s(
        json.dumps(
            {"law": law, "site": site, "context": context},
            sort_keys=True, default=str,
        ).encode()
    ).hexdigest()[:12]
    bundle_dir = quarantine_root() / f"violation-{digest}"
    try:
        bundle_dir.mkdir(parents=True, exist_ok=True)
        names: List[str] = []
        for index, batch in enumerate(window):
            name = f"window-{index}.chunk"
            write_atomic(bundle_dir / name, encode_batch(batch))
            names.append(name)
        plan_name = _bundled_fault_plan(bundle_dir)
        payload = {
            "format": "repro-violation",
            "law": law,
            "site": site,
            "details": details,
            "context": context,
            "window": names,
            # Index of window-0.chunk in the original batch stream, so a
            # replay can re-align index-matched fault rules.
            "window_start": window_start,
            "fault_plan": plan_name,
        }
        # default=str, not write_json: details may hold any object, and
        # reporting a violation must not fail on one.
        write_atomic(bundle_dir / "violation.json", json.dumps(
            payload, indent=1, sort_keys=True, default=str
        ).encode("utf-8"))
    except OSError:
        return None
    return bundle_dir


def load_quarantine_bundle(bundle: Path) -> Tuple[Dict[str, Any], List[Any]]:
    """Read a bundle back: (violation metadata, decoded batch window)."""
    from repro.serve.journal import decode_batch

    bundle = Path(bundle)
    with open(bundle / "violation.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    window = [
        decode_batch((bundle / name).read_bytes())
        for name in meta.get("window", ())
    ]
    return meta, window


def raise_violation(
    law: str,
    site: str,
    details: Dict[str, Any],
    window: Sequence[Any] = (),
    window_start: Optional[int] = None,
) -> None:
    """Dump a quarantine bundle, then raise :class:`InvariantViolation`."""
    bundle = write_quarantine_bundle(law, site, details, window, window_start)
    raise InvariantViolation(
        law, site, details, bundle=bundle, context=current_context()
    )


# ---------------------------------------------------------------------------
# HSM replay conservation laws


class HSMInvariantChecker:
    """Per-batch and at-finalize laws for a :class:`ManagedDiskCache` feed.

    Call :meth:`after_batch` once per applied batch and :meth:`finalize`
    after the closing ``flush_all``; both end with the cache's own
    structural audit (``check_invariants``).  ``prefetch=True`` relaxes
    the staged-bytes bound (speculative staging legitimately stages
    bytes no read event asked for).  ``first_batch`` is the stream index
    of the first batch this checker sees, so a bundle's ``window_start``
    stays aligned when checking starts mid-stream (a restored session).
    """

    def __init__(
        self,
        cache: Any,
        *,
        site: str = "hsm.replay",
        prefetch: bool = False,
        first_batch: int = 0,
    ) -> None:
        self.cache = cache
        self.site = site
        self.prefetch = prefetch
        self.window: Deque[Any] = deque(maxlen=WINDOW_BATCHES)
        self._batches = first_batch
        self._snap = self._snapshot()

    def _snapshot(self) -> Dict[str, int]:
        metrics = self.cache.metrics
        return {name: getattr(metrics, name) for name in _COUNTER_FIELDS}

    def _fail(self, law: str, **details: Any) -> None:
        raise_violation(
            law, self.site, details, tuple(self.window),
            window_start=self._batches - len(self.window),
        )

    def after_batch(self, batch: Any) -> None:
        """Check the conservation deltas one applied batch produced."""
        import numpy as np

        self.window.append(batch)
        self._batches += 1
        now = self._snapshot()
        before = self._snap
        self._snap = now
        delta = {name: now[name] - before[name] for name in _COUNTER_FIELDS}

        for name, change in delta.items():
            if change < 0:
                self._fail("counter-monotone", counter=name, delta=change)

        writes_mask = np.asarray(batch.is_write, dtype=bool)
        sizes = np.asarray(batch.size)
        n_writes = int(writes_mask.sum())
        n_reads = len(batch) - n_writes
        write_bytes = int(sizes[writes_mask].sum())
        read_bytes = int(sizes[~writes_mask].sum())

        if delta["reads"] != n_reads:
            self._fail(
                "read-conservation", expected=n_reads, got=delta["reads"]
            )
        if delta["writes"] != n_writes:
            self._fail(
                "write-conservation", expected=n_writes, got=delta["writes"]
            )
        if delta["bytes_written"] != write_bytes:
            self._fail(
                "written-bytes-conservation",
                expected=write_bytes, got=delta["bytes_written"],
            )
        if delta["read_hits"] + delta["read_misses"] != delta["reads"]:
            self._fail(
                "hit-miss-partition",
                hits=delta["read_hits"], misses=delta["read_misses"],
                reads=delta["reads"],
            )
        if not self.prefetch and delta["bytes_staged"] > read_bytes:
            self._fail(
                "staged-bytes-bound",
                staged=delta["bytes_staged"], read_bytes=read_bytes,
            )
        if delta["bypassed_reads"] > delta["read_misses"]:
            self._fail(
                "bypass-subset",
                bypassed=delta["bypassed_reads"], misses=delta["read_misses"],
            )

        metrics = self.cache.metrics
        if metrics.read_hits + metrics.read_misses != metrics.reads:
            self._fail(
                "hit-miss-partition-cumulative",
                hits=metrics.read_hits, misses=metrics.read_misses,
                reads=metrics.reads,
            )
        if metrics.compulsory_misses > metrics.read_misses:
            self._fail(
                "compulsory-subset",
                compulsory=metrics.compulsory_misses,
                misses=metrics.read_misses,
            )
        if self.cache.usage_bytes > self.cache.config.capacity_bytes:
            self._fail(
                "capacity-bound",
                usage=self.cache.usage_bytes,
                capacity=self.cache.config.capacity_bytes,
            )
        self._deep_check()

    def _deep_check(self) -> None:
        try:
            self.cache.check_invariants()
        except AssertionError as exc:
            self._fail("cache-structural", error=str(exc))

    def finalize(self) -> None:
        """At-finalize laws (call after the closing ``flush_all``)."""
        metrics = self.cache.metrics
        dirty = len(self.cache._dirty)
        if dirty:
            self._fail("finalize-dirty-empty", dirty_files=dirty)
        if metrics.writes != metrics.tape_writes + metrics.rewrites_absorbed:
            self._fail(
                "write-flush-conservation",
                writes=metrics.writes, tape_writes=metrics.tape_writes,
                rewrites_absorbed=metrics.rewrites_absorbed,
            )
        self._deep_check()


# ---------------------------------------------------------------------------
# Stack-engine structural + inclusion laws


def mask_is_suffix(mask: int, n_caps: int) -> bool:
    """Whether a residency mask is a contiguous suffix of the capacities.

    Capacities are sorted increasing with bit ``k`` = capacity index
    ``k``, so inclusion (resident at a capacity implies resident at
    every larger one) is exactly "the set bits form a suffix":
    ``mask + lowest_set_bit == 2**n_caps``.
    """
    if mask == 0:
        return True
    return mask + (mask & -mask) == (1 << n_caps)


class StackInvariantChecker:
    """Structural laws for :class:`_MultiCapacityReplay` state.

    Structural checks (usage/byte-sum agreement, stint/mask agreement,
    dirty subset of resident, size eligibility, capacity bound) hold for
    every policy and watermark pair.  The *inclusion* law -- residency
    masks are contiguous suffixes -- provably holds only for LRU with
    ``high_watermark == low_watermark`` (no eviction waves) and no
    oversized bypasses; measurement over randomized configs shows every
    other combination violates it, so it is armed only in that regime.
    """

    def __init__(self, replay: Any, *, site: str = "stack.replay") -> None:
        self.replay = replay
        self.site = site
        self.window: Deque[Any] = deque(maxlen=WINDOW_BATCHES)
        self.inclusion_armed = (
            replay.policy_name == "lru"
            and all(h == lo for h, lo in zip(replay.high, replay.low))
        )

    def _fail(self, law: str, **details: Any) -> None:
        raise_violation(law, self.site, details, tuple(self.window))

    def _bypass_seen(self) -> bool:
        replay = self.replay
        return any(replay.bypass_read_count[1:]) or any(
            replay.bypass_write_count[1:]
        )

    def after_batch(self, batch: Any) -> None:
        """Cheap per-batch checks: touched files + per-capacity bounds."""
        import numpy as np

        self.window.append(batch)
        replay = self.replay
        for k, used in enumerate(replay.usage):
            if used > replay.caps[k]:
                self._fail(
                    "capacity-bound", capacity_index=k,
                    usage=used, capacity=replay.caps[k],
                )
        check_inclusion = self.inclusion_armed and not self._bypass_seen()
        touched = np.unique(np.asarray(batch.file_id))
        for fid in touched.tolist():
            self._check_file(int(fid), check_inclusion)

    def _check_file(self, fid: int, check_inclusion: bool) -> None:
        replay = self.replay
        if fid >= len(replay._res):
            return
        mask = replay._res[fid]
        if replay._dirty[fid] & ~mask:
            self._fail(
                "dirty-subset-resident", file_id=fid,
                resident_mask=mask, dirty_mask=replay._dirty[fid],
            )
        size = replay._size[fid]
        if size > 0:
            lvl = 0
            while lvl < replay.n_caps and size > replay.caps[lvl]:
                lvl += 1
            if mask & ~replay.eligible[lvl]:
                self._fail(
                    "size-eligibility", file_id=fid, size=size,
                    resident_mask=mask, eligible_mask=replay.eligible[lvl],
                )
        for k in range(replay.n_caps):
            resident = bool(mask & (1 << k))
            stint = replay.stints[k][fid]
            if resident != (stint >= 0):
                self._fail(
                    "stint-mask-agreement", file_id=fid,
                    capacity_index=k, resident=resident, stint=stint,
                )
        if check_inclusion and not mask_is_suffix(mask, replay.n_caps):
            self._fail(
                "residency-inclusion", file_id=fid,
                resident_mask=mask, n_capacities=replay.n_caps,
            )

    def at_finish(self) -> None:
        """Full structural scan over every file (call before finish())."""
        replay = self.replay
        usage = [0] * replay.n_caps
        counts = [0] * replay.n_caps
        check_inclusion = self.inclusion_armed and not self._bypass_seen()
        for fid, mask in enumerate(replay._res):
            if mask:
                self._check_file(fid, check_inclusion)
            size = replay._size[fid]
            m = mask
            while m:
                k = (m & -m).bit_length() - 1
                m &= m - 1
                usage[k] += size
                counts[k] += 1
        for k in range(replay.n_caps):
            if usage[k] != replay.usage[k]:
                self._fail(
                    "usage-byte-sum", capacity_index=k,
                    tracked=replay.usage[k], actual=usage[k],
                )
            if counts[k] != replay.resident_counts[k]:
                self._fail(
                    "resident-count", capacity_index=k,
                    tracked=replay.resident_counts[k], actual=counts[k],
                )


# ---------------------------------------------------------------------------
# Journal recovery law


def check_journal_recovery(
    session_name: str,
    snapshot_applied: int,
    frame_count: int,
    applied_after_replay: int,
    *,
    site: str = "serve.recovery",
) -> None:
    """The gap-free law: snapshot + replayed tail covers every frame.

    A recovered session must have applied exactly the journal's intact
    frames -- the snapshot cannot claim more chunks than the journal
    holds, and replaying the tail must land precisely on the frame
    count (no gaps, no double-application).
    """
    details = {
        "session": session_name,
        "snapshot_applied": snapshot_applied,
        "frame_count": frame_count,
        "applied_after_replay": applied_after_replay,
    }
    if snapshot_applied > frame_count:
        raise_violation("journal-snapshot-ahead", site, details)
    if applied_after_replay != frame_count:
        raise_violation("journal-gap-free", site, details)


# ---------------------------------------------------------------------------
# Accumulator merge law (Table 3)


def _moments_close(a: Any, b: Any, rel: float = 1e-9) -> bool:
    if a.count != b.count:
        return False
    for name in ("total", "mean", "variance"):
        x, y = getattr(a, name), getattr(b, name)
        if not math.isclose(x, y, rel_tol=rel, abs_tol=1e-9):
            return False
    return True


def check_merge_order_independence(
    parts: Iterable[Any],
    *,
    site: str = "analysis.merge",
) -> Any:
    """Merge Table-3 accumulators forward and reversed; verify they agree.

    Counts, byte totals, and error/reference tallies must match exactly;
    streamed moments (parallel Welford merges) must agree within float
    tolerance.  Returns the forward-merged accumulator.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one accumulator to merge")
    forward = parts[0].copy()
    for part in parts[1:]:
        forward.merge(part)
    backward = parts[-1].copy()
    for part in reversed(parts[:-1]):
        backward.merge(part)
    fwd_total = forward.statistics().grand_total()
    bwd_total = backward.statistics().grand_total()
    if fwd_total.references != bwd_total.references:
        raise_violation(
            "merge-order-references", site,
            {"forward": fwd_total.references,
             "backward": bwd_total.references},
        )
    if fwd_total.bytes_transferred != bwd_total.bytes_transferred:
        raise_violation(
            "merge-order-bytes", site,
            {"forward": fwd_total.bytes_transferred,
             "backward": bwd_total.bytes_transferred},
        )
    for key, cell in forward.cells().items():
        other = backward.cells().get(key)
        if other is None or cell.references != other.references:
            raise_violation(
                "merge-order-cell", site,
                {"cell": [str(part) for part in key],
                 "forward": cell.references,
                 "backward": getattr(other, "references", None)},
            )
        for name in ("size_moments", "latency_moments", "transfer_moments"):
            if not _moments_close(getattr(cell, name), getattr(other, name)):
                raise_violation(
                    "merge-order-moments", site,
                    {"cell": [str(part) for part in key], "moments": name,
                     "forward": [getattr(cell, name).count,
                                 getattr(cell, name).mean],
                     "backward": [getattr(other, name).count,
                                  getattr(other, name).mean]},
                )
    return forward
