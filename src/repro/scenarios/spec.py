"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain dataclass (round-trippable through
JSON/YAML) naming a set of workload *components*.  Each
:class:`ComponentSpec` pairs a :class:`~repro.workload.config.WorkloadConfig`
variant with a tenant label, a user-population ``share``, a time window
(``start_day`` plus the workload's own duration) and an intensity
:class:`Envelope`.  Component identity is the *name*: derived seeds, id
remapping and cache keys all follow sorted-name order, so a spec means
the same scenario no matter how its components are listed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.util.durable import content_hash
from repro.util.rng import component_child_seeds
from repro.util.units import HOUR
from repro.workload.config import (
    BurstConfig,
    ErrorConfig,
    GapConfig,
    PlacementConfig,
    SessionConfig,
    WorkloadConfig,
)

#: Version of the scenario schema/composition semantics.  Part of every
#: scenario content hash: bump it when the compositor's output for a
#: fixed spec changes (thinning, remapping, merge semantics).
SCENARIO_VERSION = 1

_ENVELOPE_KINDS = ("constant", "daily")


@dataclass(frozen=True)
class Envelope:
    """Intensity envelope: when (and how strongly) a component is active.

    ``constant`` passes the component stream through unchanged.
    ``daily`` keeps events whose hour-of-period falls inside
    ``[hour_start, hour_end)`` (wrapping past midnight when
    ``hour_start > hour_end``) and thins the rest to ``floor`` -- the
    declarative form of a nightly backup window or a working-hours scan.
    """

    kind: str = "constant"
    hour_start: float = 0.0
    hour_end: float = 24.0
    period_days: float = 1.0
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _ENVELOPE_KINDS:
            raise ValueError(
                f"unknown envelope kind {self.kind!r}; choose from {_ENVELOPE_KINDS}"
            )
        if self.period_days <= 0:
            raise ValueError("period_days must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")

    @property
    def is_constant(self) -> bool:
        """True when the envelope never thins an event."""
        return self.kind == "constant"

    def acceptance(self, times: np.ndarray) -> np.ndarray:
        """Per-event keep probability for an array of event times."""
        if self.is_constant:
            return np.ones(times.size)
        hours = (times / HOUR) % (self.period_days * 24.0)
        if self.hour_start <= self.hour_end:
            active = (hours >= self.hour_start) & (hours < self.hour_end)
        else:
            active = (hours >= self.hour_start) | (hours < self.hour_end)
        return np.where(active, 1.0, self.floor)


@dataclass(frozen=True)
class ComponentSpec:
    """One tenant's workload inside a scenario."""

    #: Tenant label; also the component's stable identity for seed
    #: derivation and cache keys.  Must be unique within a spec.
    name: str
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: User-population share: scales the component's file/user population
    #: (``workload.scale * share``) so tenants split one community.
    share: float = 1.0
    #: Days into the scenario at which this component's window opens
    #: (all its event times shift by this much).
    start_day: float = 0.0
    envelope: Envelope = field(default_factory=Envelope)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")
        if not 0.0 < self.share <= 1.0:
            raise ValueError("share must be in (0, 1]")
        if self.start_day < 0:
            raise ValueError("start_day must be >= 0")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative multi-tenant workload."""

    name: str
    description: str = ""
    components: Tuple[ComponentSpec, ...] = ()
    #: Root seed; per-component child seeds derive from it by name.
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a scenario needs at least one component")
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"component names must be unique: {names}")

    # ------------------------------------------------------------------
    # Canonical component order and derived configurations

    @property
    def tenants(self) -> List[str]:
        """Tenant labels in canonical (sorted-name) order."""
        return sorted(component.name for component in self.components)

    def ordered_components(self) -> List[ComponentSpec]:
        """Components in canonical order (the compositor's rank order)."""
        return sorted(self.components, key=lambda component: component.name)

    def component(self, name: str) -> ComponentSpec:
        """The component with one tenant label."""
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no component named {name!r} in scenario {self.name!r}")

    def component_seeds(self) -> Dict[str, int]:
        """Stable per-component child seeds (listing-order invariant)."""
        return component_child_seeds(self.seed, self.tenants)

    def derived_config(self, name: str) -> WorkloadConfig:
        """One component's effective :class:`WorkloadConfig`.

        The declared workload with the population share applied to its
        scale and the spec-derived child seed substituted, so two specs
        that declare the same (root seed, component) pair address the
        same cached component store.
        """
        component = self.component(name)
        return dataclasses.replace(
            component.workload,
            scale=component.workload.scale * component.share,
            seed=self.component_seeds()[name],
        )

    # ------------------------------------------------------------------
    # Serialization and content addressing

    def to_dict(self) -> dict:
        """The spec as a plain JSON/YAML-ready dict."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "components": [
                dataclasses.asdict(component)
                for component in self.ordered_components()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        components = tuple(
            _component_from_dict(entry) for entry in data.get("components", ())
        )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            components=components,
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec from a ``.json`` / ``.yaml`` / ``.yml`` file."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - yaml is vendored in CI
                raise ValueError(
                    f"{path}: reading YAML specs needs PyYAML; "
                    "use a .json spec instead"
                ) from exc
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: scenario spec must be a mapping")
        return cls.from_dict(data)

    def scenario_hash(self) -> str:
        """Content address of the composed stream this spec produces.

        Canonical-order components plus the scenario and generator
        versions, so any change to the spec or to what a fixed spec
        generates rolls every scenario-level cache key.
        """
        from repro.workload.generator import GENERATOR_VERSION

        payload = {
            "scenario_version": SCENARIO_VERSION,
            "generator_version": GENERATOR_VERSION,
            "spec": self.to_dict(),
        }
        return content_hash(payload)


def _component_from_dict(data: dict) -> ComponentSpec:
    """One component from its plain-dict form."""
    workload = data.get("workload", {})
    if isinstance(workload, dict):
        workload = _workload_from_dict(workload)
    envelope = data.get("envelope", {})
    if isinstance(envelope, dict):
        envelope = Envelope(**envelope)
    return ComponentSpec(
        name=data["name"],
        workload=workload,
        share=float(data.get("share", 1.0)),
        start_day=float(data.get("start_day", 0.0)),
        envelope=envelope,
    )


_WORKLOAD_SECTIONS = {
    "bursts": BurstConfig,
    "sessions": SessionConfig,
    "gaps": GapConfig,
    "placement": PlacementConfig,
    "errors": ErrorConfig,
}


def _workload_from_dict(data: dict) -> WorkloadConfig:
    """A :class:`WorkloadConfig` from its (possibly partial) dict form."""
    kwargs = dict(data)
    for section, section_cls in _WORKLOAD_SECTIONS.items():
        value = kwargs.get(section)
        if isinstance(value, dict):
            kwargs[section] = section_cls(**value)
    return WorkloadConfig(**kwargs)
