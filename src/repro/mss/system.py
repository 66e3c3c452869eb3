"""Wiring: a complete simulated MSS and trace replay.

``MSSSystem.replay(records)`` pushes a trace through the full simulator --
MSCP, bitfile movers, disk array, tape silo, shelf station, operators --
and returns the same records with *simulated* startup latencies and
transfer times, plus a :class:`MetricsCollector` holding the Section 5.1.1
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

        def submit_now() -> None:
            self.mscp.submit(request, self.metrics.record)

        self.sim.schedule_at(arrival, submit_now)
        return request

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until)

    # ------------------------------------------------------------------
    # Trace replay

    def replay(
        self, records: Iterable[TraceRecord]
    ) -> Tuple[List[TraceRecord], MetricsCollector]:
        """Replay a trace; returns (records with simulated times, metrics).

        Failed references pass through untouched (the paper excludes them
        from latency statistics).  Records must be time-ordered.
        """
        requests: List[Tuple[TraceRecord, Optional[MSSRequest]]] = []
        for record in records:
            if record.is_error:
                requests.append((record, None))
                continue
            request = self.submit(
                path=record.mss_path,
                size=record.file_size,
                is_write=record.is_write,
                device=record.storage_device,
                when=record.start_time,
            )
            requests.append((record, request))
        self.run()
        out: List[TraceRecord] = []
        for record, request in requests:
            if request is None:
                out.append(record)
                continue
            out.append(
                record.with_times(
                    startup_latency=request.startup_latency,
                    transfer_time=request.transfer_time,
                )
            )
        return out, self.metrics

    def replay_columns(
        self, batches: Iterable["EventBatch"], namespace: "Namespace"
    ) -> Tuple[List["EventBatch"], MetricsCollector]:
        """Replay a batch stream and return it *as batches*.

        The columnar twin of :meth:`replay`: requests are submitted
        straight from the columns (no ``TraceRecord`` is ever built) and
        the simulated startup latencies and transfer times come back as
        fresh ``latency`` / ``transfer`` columns.  Failed references pass
        through with their original timings, as in :meth:`replay`.
        Submission order, parameters and seeds match :meth:`replay`
        exactly, so latencies and metrics are bit-identical.
        """
        from repro.engine.batch import DEVICE_ORDER, EventBatch

        batches = list(batches)
        pending: List[Tuple[int, int, MSSRequest]] = []
        path_of = namespace.path_of
        for batch_no, batch in enumerate(batches):
            rows = zip(
                batch.file_id.tolist(),
                batch.size.tolist(),
                batch.time.tolist(),
                batch.is_write.tolist(),
                batch.device.tolist(),
                batch.error.tolist(),
            )
            for row_no, (fid, size, time, is_write, device, error) in enumerate(rows):
                if error:
                    continue
                request = self.submit(
                    path=path_of(fid),
                    size=size,
                    is_write=is_write,
                    device=DEVICE_ORDER[device],
                    when=time,
                )
                pending.append((batch_no, row_no, request))
        self.run()
        n_rows = [len(batch) for batch in batches]
        latencies = [
            batch.latency.copy() if batch.latency is not None else np.zeros(n)
            for batch, n in zip(batches, n_rows)
        ]
        transfers = [
            batch.transfer.copy() if batch.transfer is not None else np.zeros(n)
            for batch, n in zip(batches, n_rows)
        ]
        for batch_no, row_no, request in pending:
            latencies[batch_no][row_no] = request.startup_latency
            transfers[batch_no][row_no] = request.transfer_time
        out = [
            EventBatch(
                file_id=batch.file_id,
                size=batch.size,
                time=batch.time,
                is_write=batch.is_write,
                device=batch.device,
                error=batch.error,
                user=batch.user,
                latency=latencies[batch_no],
                transfer=transfers[batch_no],
            )
            for batch_no, batch in enumerate(batches)
        ]
        return out, self.metrics


def replay_trace(
    records: Iterable[TraceRecord], config: Optional[MSSConfig] = None
) -> Tuple[List[TraceRecord], MetricsCollector]:
    """Convenience: build a system and replay a trace through it."""
    system = MSSSystem(config)
    return system.replay(records)
