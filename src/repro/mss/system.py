"""Wiring: a complete simulated MSS and trace replay.

``MSSSystem.replay(records)`` pushes a trace through the full simulator --
MSCP, bitfile movers, disk array, tape silo, shelf station, operators --
and returns the same records with *simulated* startup latencies and
transfer times, plus a :class:`MetricsCollector` holding the Section 5.1.1
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.mss.disk import DiskArray, DiskConfig
from repro.mss.kernel import Simulator
from repro.mss.metrics import MetricsCollector
from repro.mss.mscp import MSCP, MSCPConfig
from repro.mss.operators import OperatorConfig, OperatorPool
from repro.mss.request import MSSRequest
from repro.mss.tape import ShelfStation, TapeConfig, TapeSilo
from repro.trace.record import Device, TraceRecord
from repro.util.rng import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.engine.batch import EventBatch
    from repro.namespace.model import Namespace


@dataclass(frozen=True)
class MSSConfig:
    """Hardware shape of the simulated MSS (defaults = Section 3.1)."""

    seed: int = 0
    disk: DiskConfig = field(default_factory=DiskConfig)
    silo: TapeConfig = field(default_factory=TapeConfig)
    shelf: TapeConfig = field(default_factory=lambda: TapeConfig(n_drives=3))
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    mscp: MSCPConfig = field(default_factory=MSCPConfig)
    n_robots: int = 2


class MSSSystem:
    """A live simulated MSS."""

    def __init__(self, config: Optional[MSSConfig] = None) -> None:
        self.config = config or MSSConfig()
        seeds = SeedSequenceFactory(self.config.seed)
        self.sim = Simulator()
        self.operators = OperatorPool(
            self.sim, seeds.named("operators"), self.config.operators
        )
        self.disk = DiskArray(self.sim, seeds.named("disk"), self.config.disk)
        self.silo = TapeSilo(
            self.sim, seeds.named("silo"), self.config.silo, self.config.n_robots
        )
        self.shelf = ShelfStation(
            self.sim, seeds.named("shelf"), self.operators, self.config.shelf
        )
        self.devices: Dict[Device, object] = {
            Device.MSS_DISK: self.disk,
            Device.TAPE_SILO: self.silo,
            Device.TAPE_SHELF: self.shelf,
        }
        self.mscp = MSCP(self.sim, seeds.named("mscp"), self.devices, self.config.mscp)
        self.metrics = MetricsCollector()
        self._next_id = 0

    # ------------------------------------------------------------------
    # Single-request interface (used by the HSM and by tests)

    def _request(
        self, path: str, size: int, is_write: bool, device: Device, arrival: float
    ) -> MSSRequest:
        """A new request, numbered in submission order."""
        request = MSSRequest(
            request_id=self._next_id,
            path=path,
            size=size,
            is_write=is_write,
            device=device,
            arrival_time=arrival,
            directory=path.rsplit("/", 1)[0] or "/",
        )
        self._next_id += 1
        return request

    def submit(
        self,
        path: str,
        size: int,
        is_write: bool,
        device: Device,
        when: Optional[float] = None,
    ) -> MSSRequest:
        """Schedule one request; returns the request object (latencies are
        filled once the simulator runs past its completion)."""
        arrival = self.sim.now if when is None else when
        request = self._request(path, size, is_write, device, arrival)
        self.sim.schedule_at(
            arrival, partial(self.mscp.submit, request, self.metrics.record)
        )
        return request

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until)

    # ------------------------------------------------------------------
    # Trace replay

    def _replay_requests(
        self, rows: Iterable[Tuple[str, int, bool, Device, float]]
    ) -> List[MSSRequest]:
        """Run ``(path, size, is_write, device, time)`` rows to completion.

        The requests reach the simulator as one arrival stream, stably
        sorted by time -- the order scheduling each with :meth:`submit`
        would give them -- so its heap holds only in-flight events.
        Returns the requests in row order.
        """
        requests = [self._request(*row) for row in rows]
        submit, record = self.mscp.submit, self.metrics.record
        self.sim.run(arrivals=(
            (request.arrival_time, partial(submit, request, record))
            for request in sorted(requests, key=attrgetter("arrival_time"))
        ))
        return requests

    def replay(
        self, records: Iterable[TraceRecord]
    ) -> Tuple[List[TraceRecord], MetricsCollector]:
        """Replay a trace; returns (records with simulated times, metrics).

        Failed references pass through untouched (the paper excludes them
        from latency statistics).
        """
        records = list(records)
        requests = iter(self._replay_requests(
            (r.mss_path, r.file_size, r.is_write, r.storage_device, r.start_time)
            for r in records
            if not r.is_error
        ))
        out: List[TraceRecord] = []
        for record in records:
            if not record.is_error:
                request = next(requests)
                record = record.with_times(
                    startup_latency=request.startup_latency,
                    transfer_time=request.transfer_time,
                )
            out.append(record)
        return out, self.metrics

    def replay_columns(
        self, batches: Iterable["EventBatch"], namespace: "Namespace"
    ) -> Tuple[List["EventBatch"], MetricsCollector]:
        """Replay a batch stream and return it *as batches*.

        The columnar twin of :meth:`replay`: requests are built straight
        from the columns (no ``TraceRecord`` is ever built) and the
        simulated startup latencies and transfer times come back as
        fresh ``latency`` / ``transfer`` columns.  Failed references pass
        through with their original timings, as in :meth:`replay`.  Both
        share one request path, so latencies and metrics are
        bit-identical.
        """
        from repro.engine.batch import DEVICE_ORDER

        batches = list(batches)
        good = [np.flatnonzero(batch.error == 0) for batch in batches]
        path_of = namespace.path_of
        requests = iter(self._replay_requests(
            (path_of(fid), size, is_write, DEVICE_ORDER[device], time)
            for batch, rows in zip(batches, good)
            for fid, size, is_write, device, time in zip(
                batch.file_id[rows].tolist(),
                batch.size[rows].tolist(),
                batch.is_write[rows].tolist(),
                batch.device[rows].tolist(),
                batch.time[rows].tolist(),
            )
        ))
        out = []
        for batch, rows in zip(batches, good):
            n = len(batch)
            latency = np.zeros(n) if batch.latency is None else batch.latency.copy()
            transfer = np.zeros(n) if batch.transfer is None else batch.transfer.copy()
            for row, request in zip(rows.tolist(), requests):
                latency[row] = request.startup_latency
                transfer[row] = request.transfer_time
            out.append(replace(batch, latency=latency, transfer=transfer))
        return out, self.metrics


def replay_trace(
    records: Iterable[TraceRecord], config: Optional[MSSConfig] = None
) -> Tuple[List[TraceRecord], MetricsCollector]:
    """Convenience: build a system and replay a trace through it."""
    system = MSSSystem(config)
    return system.replay(records)
