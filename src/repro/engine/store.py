"""The on-disk columnar trace store: capture once, analyze many times.

The paper's trace was collected once and mined for years; our synthetic
stand-in used to be re-synthesized on every ``report``/``analyze``/sweep
invocation, so generation dominated wall time once replay and analysis
went columnar.  A :class:`TraceStore` persists an
:class:`~repro.engine.batch.EventBatch` stream as per-column ``.npy``
shards plus a JSON manifest, and reads it back as zero-copy memory-mapped
batches -- re-analysis touches only the pages an analysis actually reads,
and a larger-than-RAM trace streams in bounded memory.

On top sits a content-addressed cache: :func:`open_or_generate` keys a
store directory by a canonical hash of the :class:`WorkloadConfig`
(plus the generator version and store-format version), so any consumer
asking for the same workload twice pays generation once.  Bumping
``repro.workload.generator.GENERATOR_VERSION`` invalidates every cached
store at once -- the manifest hash no longer matches.

Layout of one store directory::

    <dir>/
      manifest.json                  # metadata + per-shard checksums
      shard-00000.file_id.npy        # one .npy per column per shard
      shard-00000.size.npy
      ...

Shard boundaries mirror the written batch boundaries, so a round-trip
reproduces the input stream batch for batch, bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.engine.batch import DEFAULT_CHUNK_SIZE, EventBatch
from repro.util.durable import content_hash, write_json

#: On-disk format version; bump on any incompatible layout/manifest change.
STORE_FORMAT_VERSION = 1

#: Staging dirs (``.tmp-*``) older than this are debris from a killed
#: writer and get reclaimed on the next writer's entry.  Generous: the
#: slowest legitimate write (a dense multi-day scenario composition) is
#: minutes, not hours.
STAGING_TTL_SECONDS = 6 * 3600.0

#: Manifest magic so ``trace info`` can reject arbitrary directories.
STORE_MAGIC = "repro-trace-store"

MANIFEST_NAME = "manifest.json"

#: Column write order: required columns first, then the optional ones.
REQUIRED_COLUMNS = ("file_id", "size", "time", "is_write", "device", "error")
OPTIONAL_COLUMNS = ("user", "latency", "transfer")


class StoreError(RuntimeError):
    """A store directory is missing, corrupt, or incompatible."""


def _generator_version() -> int:
    from repro.workload.generator import GENERATOR_VERSION

    return GENERATOR_VERSION


def canonical_config(config) -> dict:
    """A :class:`WorkloadConfig` as a plain, JSON-stable dict."""
    return dataclasses.asdict(config)


def config_hash(
    config,
    variant: str = "trace",
    generator_version: Optional[int] = None,
) -> str:
    """Content address of one (config, variant, generator) combination.

    ``variant`` names the derivation of the stream ("trace" for the raw
    generated trace; the sweep uses "hsm-*" variants for prepared replay
    streams), so different views of one workload key different stores.
    """
    if generator_version is None:
        generator_version = _generator_version()
    payload = {
        "format_version": STORE_FORMAT_VERSION,
        "generator_version": generator_version,
        "variant": variant,
        "config": canonical_config(config),
    }
    return content_hash(payload)


def store_dir_for(cache_dir: Union[str, Path], config, variant: str = "trace") -> Path:
    """Cache-directory slot one (config, variant) pair addresses."""
    return Path(cache_dir) / f"{variant}-{config_hash(config, variant)}"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _shard_file(index: int, column: str) -> str:
    return f"shard-{index:05d}.{column}.npy"


class TraceStore:
    """One on-disk columnar store, opened read-only via memory-mapping."""

    def __init__(self, path: Union[str, Path], manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Opening and writing

    @classmethod
    def open(cls, path: Union[str, Path]) -> "TraceStore":
        """Open an existing store, validating the manifest header."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"no {MANIFEST_NAME} in {path}")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreError(f"{manifest_path} is not a JSON object")
        if manifest.get("format") != STORE_MAGIC:
            raise StoreError(f"{path} is not a {STORE_MAGIC} directory")
        if manifest.get("format_version") != STORE_FORMAT_VERSION:
            raise StoreError(
                f"{path}: store format v{manifest.get('format_version')} "
                f"!= supported v{STORE_FORMAT_VERSION}"
            )
        return cls(path, manifest)

    @classmethod
    def write(
        cls,
        path: Union[str, Path],
        batches: Iterable[EventBatch],
        *,
        config=None,
        variant: str = "trace",
        seed: Optional[int] = None,
        total_bytes: Optional[int] = None,
        generator_version: Optional[int] = None,
        meta: Optional[dict] = None,
        overwrite: bool = False,
    ) -> "TraceStore":
        """Persist a batch stream as one store directory.

        Empty batches are dropped (they carry no events and would make
        zero-length shards); shard boundaries otherwise mirror the input
        batch boundaries.  The manifest is written last, so a crashed
        write leaves a directory that :meth:`open` rejects.
        """
        path = Path(path)
        if (path / MANIFEST_NAME).exists() and not overwrite:
            raise StoreError(f"store already exists at {path}")
        path.mkdir(parents=True, exist_ok=True)
        if overwrite:
            # Drop the old manifest first (a crash mid-overwrite must
            # leave an openable-as-invalid store, not a stale manifest
            # pointing at replaced shards), then the old shard files so
            # a smaller store leaves no unreferenced orphans behind.
            manifest_path = path / MANIFEST_NAME
            if manifest_path.exists():
                manifest_path.unlink()
            for stale in path.glob("shard-*.npy"):
                stale.unlink()
        if generator_version is None:
            generator_version = _generator_version()

        columns: Optional[List[str]] = None
        shards: List[dict] = []
        n_events = 0
        t_first: Optional[float] = None
        t_last: Optional[float] = None
        for batch in batches:
            if len(batch) == 0:
                continue
            present = [
                name
                for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS
                if getattr(batch, name) is not None
            ]
            if columns is None:
                columns = present
            elif present != columns:
                raise StoreError(
                    f"inconsistent columns across stream: {present} != {columns}"
                )
            index = len(shards)
            checksums: Dict[str, str] = {}
            nbytes: Dict[str, int] = {}
            for name in columns:
                column = np.ascontiguousarray(getattr(batch, name))
                file_path = path / _shard_file(index, name)
                np.save(file_path, column)
                checksums[name] = _sha256_file(file_path)
                nbytes[name] = file_path.stat().st_size
            shards.append(
                {
                    "index": index,
                    "n_events": len(batch),
                    "checksums": checksums,
                    "nbytes": nbytes,
                }
            )
            n_events += len(batch)
            if t_first is None:
                t_first = float(batch.time[0])
            t_last = float(batch.time[-1])

        manifest = {
            "format": STORE_MAGIC,
            "format_version": STORE_FORMAT_VERSION,
            "generator_version": generator_version,
            "variant": variant,
            "config": None if config is None else canonical_config(config),
            "config_hash": None
            if config is None
            else config_hash(config, variant, generator_version),
            "seed": seed if seed is not None else getattr(config, "seed", None),
            "n_events": n_events,
            "n_shards": len(shards),
            "total_bytes": total_bytes,
            "time_first": t_first,
            "time_last": t_last,
            "columns": columns or [],
            "shards": shards,
            "meta": meta or {},
        }
        write_json(path / MANIFEST_NAME, manifest)
        return cls(path, manifest)

    # ------------------------------------------------------------------
    # Manifest views

    @property
    def n_events(self) -> int:
        """Total events across all shards."""
        return int(self.manifest["n_events"])

    @property
    def n_shards(self) -> int:
        """Number of shards (one per written non-empty batch)."""
        return int(self.manifest["n_shards"])

    @property
    def columns(self) -> List[str]:
        """Column names every shard carries."""
        return list(self.manifest["columns"])

    @property
    def total_bytes(self) -> Optional[int]:
        """Referenced-store size recorded at write time (if any)."""
        value = self.manifest.get("total_bytes")
        return None if value is None else int(value)

    @property
    def meta(self) -> dict:
        """Free-form manifest metadata (empty for pre-metadata stores)."""
        return self.manifest.get("meta") or {}

    @property
    def span_seconds(self) -> float:
        """Trace time span covered by the stored events."""
        first = self.manifest.get("time_first")
        last = self.manifest.get("time_last")
        if first is None or last is None:
            return 0.0
        return float(last) - float(first)

    # ------------------------------------------------------------------
    # Reading

    def _load(self, index: int, column: str) -> np.ndarray:
        file_path = self.path / _shard_file(index, column)
        try:
            return np.load(file_path, mmap_mode="r")
        except FileNotFoundError as exc:
            raise StoreError(f"missing shard file {file_path}") from exc

    def iter_batches(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[EventBatch]:
        """The stored stream as zero-copy memory-mapped batches.

        Columns are ``np.memmap`` views: read-only, paged in on demand,
        shared between processes that open the same store.  Pass
        ``chunk_size`` to re-chunk the stream without copying (slices of
        a memmap are still memmaps).
        """
        columns = self.columns
        for shard in self.manifest["shards"]:
            index = int(shard["index"])
            arrays = {name: self._load(index, name) for name in columns}
            batch = EventBatch(**arrays)
            if chunk_size is None:
                yield batch
            else:
                yield from batch.chunks(chunk_size)

    def batches(self, chunk_size: Optional[int] = None) -> List[EventBatch]:
        """Materialized list of (still memory-mapped) batches."""
        return list(self.iter_batches(chunk_size=chunk_size))

    def _check_shard_files(self, *, deep: bool) -> None:
        """Shared shard validation: existence and recorded size always,
        full checksum recomputation when ``deep``."""
        for shard in self.manifest["shards"]:
            index = int(shard["index"])
            sizes = shard.get("nbytes") or {}
            for name, expected in shard["checksums"].items():
                file_path = self.path / _shard_file(index, name)
                if not file_path.is_file():
                    raise StoreError(f"missing shard file {file_path}")
                want = sizes.get(name)
                if want is not None:
                    have = file_path.stat().st_size
                    if have != int(want):
                        raise StoreError(
                            f"truncated shard file {file_path}: "
                            f"{have} bytes != manifest {int(want)}"
                        )
                if deep:
                    actual = _sha256_file(file_path)
                    if actual != expected:
                        raise StoreError(
                            f"checksum mismatch in {file_path}: "
                            f"{actual} != manifest {expected}"
                        )

    def validate_light(self) -> None:
        """Cheap structural check: every shard file present at its
        recorded size.  Catches deleted and truncated shards without
        re-hashing gigabytes (stores written before sizes were recorded
        fall back to existence checks); :class:`StoreError` on damage.
        """
        self._check_shard_files(deep=False)

    def verify(self) -> None:
        """Full integrity check: missing files, truncation, checksum
        drift -- in that order; raise :class:`StoreError` on the first.
        """
        self._check_shard_files(deep=True)

    def describe(self) -> str:
        """Human-readable manifest summary (the ``trace info`` body)."""
        m = self.manifest
        lines = [
            f"store:     {self.path}",
            f"variant:   {m.get('variant')}",
            f"events:    {self.n_events} in {self.n_shards} shards",
            f"span:      {self.span_seconds / 86400.0:.1f} days",
            f"seed:      {m.get('seed')}",
            f"generator: v{m.get('generator_version')} "
            f"(format v{m.get('format_version')})",
            f"config:    {m.get('config_hash') or '(imported; no config hash)'}",
            f"columns:   {', '.join(self.columns) or '(empty store)'}",
        ]
        if self.total_bytes is not None:
            lines.append(f"referenced: {self.total_bytes / 1e9:.2f} GB")
        scenario = self.meta.get("scenario")
        if isinstance(scenario, dict):
            # Composed scenario stores carry tenant metadata; stores from
            # before the scenario subsystem simply have no block here.
            tenants = scenario.get("tenants") or []
            lines.append(
                f"scenario:  {scenario.get('name')} "
                f"({scenario.get('hash', '')[:16]}...)"
            )
            lines.append(
                f"tenants:   {', '.join(str(t) for t in tenants) or '(unknown)'} "
                f"(file_id % {scenario.get('n_components', len(tenants))} -> rank)"
            )
        lines.append("shard checksums:")
        for shard in m["shards"]:
            first = shard["checksums"][self.columns[0]]
            lines.append(
                f"  shard-{int(shard['index']):05d}  "
                f"{int(shard['n_events']):8d} events  {self.columns[0]}:"
                f"{first[:16]}..."
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The content-addressed cache


def quarantine_slot(target: Union[str, Path], *, keep: int = 3) -> Optional[Path]:
    """Move a damaged cache slot aside instead of deleting it.

    The slot is renamed to ``<name>.quarantine-<timestamp>-<pid>`` next
    to itself, preserving the evidence for a post-mortem while freeing
    the address for regeneration.  Only the newest ``keep`` quarantines
    per slot are retained (oldest pruned by the sortable timestamp in
    the name), so repeated corruption cannot fill the disk.  Returns the
    quarantine path, or None if the slot vanished first (a concurrent
    healer won).
    """
    target = Path(target)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    quarantine = target.with_name(
        f"{target.name}.quarantine-{stamp}-{os.getpid()}"
    )
    try:
        os.replace(target, quarantine)
    except FileNotFoundError:
        return None
    stale = sorted(target.parent.glob(f"{target.name}.quarantine-*"))
    for old in stale[:-keep] if keep > 0 else stale:
        shutil.rmtree(old, ignore_errors=True)
    return quarantine


def sweep_stale_staging(
    cache_dir: Union[str, Path], ttl: float = STAGING_TTL_SECONDS
) -> int:
    """Reclaim staging debris (``.tmp-*``) left by killed writers.

    A writer that died between ``mkdtemp`` and ``os.replace`` leaks its
    staging directory forever -- nothing else references it.  Any
    ``.tmp-*`` entry whose mtime is older than ``ttl`` seconds is
    removed; young ones are left alone (they may belong to a live
    concurrent writer).  Returns the number of directories removed.
    """
    cache_dir = Path(cache_dir)
    cutoff = time.time() - ttl
    removed = 0
    for entry in cache_dir.glob(".tmp-*"):
        try:
            if entry.stat().st_mtime >= cutoff:
                continue
        except OSError:
            continue  # raced with its writer's own rename/cleanup
        shutil.rmtree(entry, ignore_errors=True)
        removed += 1
    return removed


def open_cached(
    config, cache_dir: Union[str, Path], variant: str = "trace"
) -> Optional[TraceStore]:
    """The cached store for one (config, variant), or None on a miss.

    A directory whose manifest hash disagrees with the requested key
    (stale generator version, corrupted manifest) counts as a miss.
    """
    target = store_dir_for(cache_dir, config, variant)
    if not (target / MANIFEST_NAME).is_file():
        return None
    try:
        store = TraceStore.open(target)
    except StoreError:
        return None
    if store.manifest.get("config_hash") != config_hash(config, variant):
        return None
    return store


def write_locked_dir(
    cache_dir: Path,
    target: Path,
    batches: Iterable[EventBatch],
    *,
    config=None,
    variant: str = "trace",
    total_bytes: Optional[int] = None,
    meta: Optional[dict] = None,
    reopen=None,
) -> TraceStore:
    """Write a stream into ``target`` atomically via a staging directory.

    The store is assembled in a sibling temp directory and renamed into
    place, so a concurrent reader never sees a half-written store.  If
    the slot is already occupied, ``reopen`` decides: a *valid* occupant
    (``reopen()`` returns a store) is kept -- a concurrent writer won the
    race -- while an invalid one (crash debris, bit rot) is evicted and
    replaced, so a corrupt slot never wedges the cache.  Shared by the
    config-addressed cache below and the scenario-hash-addressed cache in
    :mod:`repro.scenarios.cache`.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    sweep_stale_staging(cache_dir)
    staging = Path(
        tempfile.mkdtemp(prefix=f".tmp-{target.name}-", dir=str(cache_dir))
    )
    try:
        TraceStore.write(
            staging,
            batches,
            config=config,
            variant=variant,
            total_bytes=total_bytes,
            meta=meta,
        )
        try:
            os.replace(staging, target)
        except OSError:
            winner = reopen() if reopen is not None else None
            if winner is not None:
                shutil.rmtree(staging, ignore_errors=True)
                return winner
            shutil.rmtree(target, ignore_errors=True)
            os.replace(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return TraceStore.open(target)


def write_cached(
    config,
    cache_dir: Union[str, Path],
    batches: Iterable[EventBatch],
    *,
    variant: str = "trace",
    total_bytes: Optional[int] = None,
    meta: Optional[dict] = None,
) -> TraceStore:
    """Write a stream into the cache slot for (config, variant), atomically."""
    cache_dir = Path(cache_dir)
    return write_locked_dir(
        cache_dir,
        store_dir_for(cache_dir, config, variant),
        batches,
        config=config,
        variant=variant,
        total_bytes=total_bytes,
        meta=meta,
        reopen=lambda: open_cached(config, cache_dir, variant),
    )


def cache_trace(trace, cache_dir: Union[str, Path]) -> TraceStore:
    """Write-through for an already-generated trace's raw stream.

    The shared cold path of every consumer that holds a
    ``SyntheticTrace`` (Study, ``repro generate --store``): hit the
    cache slot if it is already populated, otherwise persist this
    trace's batches with the standard variant/total-bytes plumbing.
    """
    store = open_cached(trace.config, cache_dir, variant="trace")
    if store is not None:
        return store
    return write_cached(
        trace.config,
        cache_dir,
        trace.iter_batches(),
        variant="trace",
        total_bytes=trace.namespace.total_bytes,
    )


def open_or_generate(
    config,
    cache_dir: Union[str, Path],
    variant: str = "trace",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> TraceStore:
    """The capture-once entry point: cached store, or generate and cache.

    ``variant="trace"`` stores the raw generated stream (all columns,
    errors included); ``variant="hsm"``/``"hsm-raw"`` store the prepared
    HSM replay stream (error-stripped, size-clamped, core columns only;
    ``hsm`` additionally deduped) the sweep replays.

    Self-healing: a cache hit is validated light -- every shard file
    must exist at its recorded size.  A damaged slot is quarantined
    (:func:`quarantine_slot`) and the store regenerated in its place, so
    a truncated or missing shard costs one regeneration instead of
    crashing the consumer mid-read.  Bit rot that keeps a shard's size
    passes; ``repro trace verify`` re-hashes every shard to find it.
    """
    store = open_cached(config, cache_dir, variant)
    if store is not None:
        try:
            store.validate_light()
            return store
        except StoreError:
            quarantine_slot(store.path)

    from repro.workload.generator import generate_trace

    trace = generate_trace(config)
    total = trace.namespace.total_bytes
    if variant == "trace":
        batches: Iterable[EventBatch] = trace.iter_batches(chunk_size=chunk_size)
    elif variant in ("hsm", "hsm-raw"):
        from repro.engine.stream import hsm_batches_from_stream

        batches = hsm_batches_from_stream(
            trace.iter_batches(chunk_size=chunk_size), deduped=(variant == "hsm")
        )
    else:
        raise ValueError(f"unknown store variant {variant!r}")
    return write_cached(
        config, cache_dir, batches, variant=variant, total_bytes=total
    )
