"""Stage-level wall-clock profiler for trace generation.

The generator pipeline runs eight named stages (namespace, lifecycles,
chains, bursts, placement, sessions, errors, latencies, plus the sorts
between them).  A :class:`StageProfiler` collects one wall-time entry per
stage so regressions in any single stage are visible without a full
cProfile run; ``repro report --profile`` prints the resulting table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class StageProfiler:
    """Ordered per-stage wall-clock accumulator.

    Re-entering a stage name accumulates into the same bucket, so a
    stage split across code paths (e.g. the two sorts) still reports one
    line.
    """

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one pipeline stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate seconds into one stage bucket."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    @property
    def total_seconds(self) -> float:
        """Sum over all recorded stages."""
        return sum(self.stages.values())

    def render(self, indent: str = "") -> str:
        """The stage table as printed by ``report --profile``."""
        if not self.stages:
            return f"{indent}(no stages recorded)"
        total = self.total_seconds
        width = max(len(name) for name in self.stages)
        lines = []
        for name, seconds in self.stages.items():
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{indent}{name:{width}s} {seconds:9.4f} s  {share:6.1%}"
            )
        lines.append(f"{indent}{'total':{width}s} {total:9.4f} s")
        return "\n".join(lines)
