"""Scenario-level store caching: composed streams, content-addressed.

Per-*component* streams are cached by the regular
:func:`repro.engine.store.open_or_generate` machinery (keyed by each
component's derived :class:`WorkloadConfig`), so components shared
between scenarios -- or between runs of one scenario -- generate once.
This module adds the *composed* layer on top: a merged (optionally
HSM-prepared) stream persisted as an ordinary
:class:`~repro.engine.store.TraceStore` whose directory name and
manifest carry the spec's :meth:`~repro.scenarios.spec.ScenarioSpec.scenario_hash`
plus tenant metadata, so ``repro trace info`` can say which scenario a
store holds and whose events map to which tenant.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.engine.batch import DEFAULT_CHUNK_SIZE
from repro.engine.store import (
    MANIFEST_NAME,
    StoreError,
    TraceStore,
    quarantine_slot,
    write_locked_dir,
)
from repro.scenarios.compositor import ScenarioCompositor
from repro.scenarios.spec import ScenarioSpec

#: Store variants this module writes: the raw composed stream, and the
#: HSM-prepared (error-stripped, size-clamped, deduped) replay stream.
SCENARIO_VARIANTS = ("scenario", "scenario-hsm")


def scenario_meta(spec: ScenarioSpec) -> dict:
    """The manifest ``meta`` block describing one composed scenario."""
    compositor = ScenarioCompositor(spec)
    return {
        "scenario": {
            "name": spec.name,
            "hash": spec.scenario_hash(),
            "seed": spec.seed,
            "tenants": compositor.labels,
            "n_components": compositor.k,
        }
    }


def scenario_store_dir(
    cache_dir: Union[str, Path], spec: ScenarioSpec, variant: str = "scenario"
) -> Path:
    """Cache slot one (spec, variant) pair addresses."""
    if variant not in SCENARIO_VARIANTS:
        raise ValueError(
            f"unknown scenario store variant {variant!r}; "
            f"choose from {SCENARIO_VARIANTS}"
        )
    return Path(cache_dir) / f"{variant}-{spec.scenario_hash()}"


def open_scenario_store(
    spec: ScenarioSpec, cache_dir: Union[str, Path], variant: str = "scenario"
) -> Optional[TraceStore]:
    """The cached composed store for one spec, or None on a miss."""
    target = scenario_store_dir(cache_dir, spec, variant)
    if not (target / MANIFEST_NAME).is_file():
        return None
    try:
        store = TraceStore.open(target)
    except StoreError:
        return None
    meta = store.manifest.get("meta") or {}
    scenario = meta.get("scenario") or {}
    if scenario.get("hash") != spec.scenario_hash():
        return None
    return store


def compose_cached(
    spec: ScenarioSpec,
    cache_dir: Union[str, Path],
    variant: str = "scenario",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> TraceStore:
    """Cached composed store for one spec, composing and writing on a miss.

    Component streams come through the per-component store cache in the
    same ``cache_dir``, so a cold composed store still generates each
    component at most once -- and a later scenario reusing a component
    pays nothing for it.  ``variant="scenario-hsm"`` persists the
    HSM-prepared replay stream instead of the raw composed one.

    Self-healing like :func:`repro.engine.store.open_or_generate`: a hit
    with missing or truncated shards is quarantined and recomposed
    instead of crashing the consumer mid-read.
    """
    store = open_scenario_store(spec, cache_dir, variant)
    if store is not None:
        try:
            store.validate_light()
            return store
        except StoreError:
            quarantine_slot(store.path)

    compositor = ScenarioCompositor(
        spec, cache_dir=str(cache_dir), chunk_size=chunk_size
    )
    batches = compositor.iter_batches()
    if variant == "scenario-hsm":
        from repro.engine.stream import hsm_batches_from_stream

        batches = hsm_batches_from_stream(batches)
    target = scenario_store_dir(cache_dir, spec, variant)
    return write_locked_dir(
        Path(cache_dir),
        target,
        batches,
        variant=variant,
        total_bytes=compositor.referenced_bytes(),
        meta=scenario_meta(spec),
        reopen=lambda: open_scenario_store(spec, cache_dir, variant),
    )
