"""Human operators who fetch shelved cartridges.

"an operator must intervene to mount any non-silo tapes which are
requested" (Section 3.2).  The manual mount averages about two minutes but
has a very long tail -- "10% of all manual tape mounts were not completed
within 400 seconds" -- because operators handle other duties, walk the
tape library, and thin out overnight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mss.kernel import Resource, Simulator
from repro.util.units import DAY, HOUR


@dataclass(frozen=True)
class OperatorConfig:
    """Staffing and fetch-time parameters."""

    n_operators: int = 3
    fetch_median: float = 108.0        # walk to the shelf and back
    fetch_sigma: float = 0.45
    #: Probability the operator is busy elsewhere (console, backups) and
    #: the fetch stalls; stall duration is exponential.
    distraction_probability: float = 0.07
    distraction_mean: float = 200.0
    #: Night shift (22:00-06:00) runs with a skeleton crew.
    night_factor: float = 1.45
    night_start_hour: int = 22
    night_end_hour: int = 6


class OperatorPool:
    """A small pool of humans executing cartridge fetch tasks."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        config: OperatorConfig = OperatorConfig(),
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.config = config
        self._staff = Resource(sim, config.n_operators, name="operators")
        self.fetches_completed = 0

    def _is_night(self) -> bool:
        hour = int((self.sim.now % DAY) // HOUR)
        cfg = self.config
        if cfg.night_start_hour <= cfg.night_end_hour:
            return cfg.night_start_hour <= hour < cfg.night_end_hour
        return hour >= cfg.night_start_hour or hour < cfg.night_end_hour

    def sample_fetch_seconds(self) -> float:
        """One fetch duration, including distraction stalls and shifts."""
        cfg = self.config
        duration = float(self.rng.lognormal(np.log(cfg.fetch_median), cfg.fetch_sigma))
        if self.rng.random() < cfg.distraction_probability:
            duration += float(self.rng.exponential(cfg.distraction_mean))
        if self._is_night():
            duration *= cfg.night_factor
        return duration

    def fetch(self, done: Callable[[], None]) -> None:
        """Dispatch a fetch; ``done`` runs when the cartridge is at the
        drive (includes queueing for a free operator)."""

        def start() -> None:
            self.sim.schedule(self.sample_fetch_seconds(), finish)

        def finish() -> None:
            self.fetches_completed += 1
            self._staff.release()
            done()

        self._staff.acquire(start)
