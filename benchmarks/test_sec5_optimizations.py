"""S5x -- the optimizations Sections 5.1.1 and 5.4 propose, measured.

* **Cut-through opens**: "it allows the application and file retrieval
  from the MSS to overlap" -- how much perceived read latency disappears?
* **Optical jukebox for small files**: "an optical disk jukebox could
  provide low latency to the first byte and high capacity" -- what do
  sub-1 MB reads cost on Table 1's optical device vs tape?
"""

import numpy as np
import pytest

from repro.hsm.cutthrough import evaluate_cutthrough
from repro.mss.jukebox import OpticalJukebox
from repro.mss.kernel import Simulator
from repro.mss.request import MSSRequest
from repro.mss.tape import TapeSilo
from repro.trace.record import Device
from repro.util.rng import make_rng
from repro.util.units import MB


def test_cutthrough_benefit(benchmark, bench_study):
    records = bench_study.trace.records()

    report = benchmark.pedantic(
        evaluate_cutthrough, args=(records,), rounds=1, iterations=1
    )
    print(f"\nblocking stall   {report.mean_blocking_stall:8.1f} s mean")
    print(f"cut-through stall {report.mean_cutthrough_stall:7.1f} s mean")
    print(f"improvement       {report.improvement:7.1%}")
    # The paper's premise: applications read slower than the MSS delivers,
    # so a large share of perceived latency is overlap-able.
    assert report.improvement > 0.25
    assert report.mean_cutthrough_stall < report.mean_blocking_stall


def _small_read(i, when):
    return MSSRequest(
        request_id=i, path=f"/u/home{i % 5}/f{i:04d}.txt", size=400_000,
        is_write=False, device=Device.MSS_DISK, arrival_time=when,
        directory=f"/u/home{i % 5}",
    )


def test_jukebox_for_small_files(benchmark):
    """Small reads on the optical jukebox vs the same stream on tape."""

    def run_jukebox():
        sim = Simulator()
        jukebox = OpticalJukebox(sim, make_rng(1))
        requests = [_small_read(i, 30.0 * i) for i in range(200)]
        for r in requests:
            sim.schedule_at(r.arrival_time, lambda rr=r: jukebox.submit(rr, lambda q: None))
        sim.run()
        return float(np.mean([r.startup_latency for r in requests]))

    juke_latency = benchmark.pedantic(run_jukebox, rounds=1, iterations=1)

    sim = Simulator()
    silo = TapeSilo(sim, make_rng(2))
    tape_requests = [_small_read(i, 30.0 * i) for i in range(200)]
    for r in tape_requests:
        sim.schedule_at(r.arrival_time, lambda rr=r: silo.submit(rr, lambda q: None))
    sim.run()
    tape_latency = float(np.mean([r.startup_latency for r in tape_requests]))

    print(f"\nsmall-file first byte: jukebox {juke_latency:.1f} s vs "
          f"tape silo {tape_latency:.1f} s")
    # Table 1's promise: far lower latency to the first byte for the
    # database-style small-file workload.
    assert juke_latency < 0.5 * tape_latency
    assert juke_latency < 30.0
