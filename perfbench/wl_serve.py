"""``serve``: live replay of a reference stream into a durable session.

A ``repro serve`` subprocess; one closed-loop client (one chunk in
flight) streams the write-heavy ``backup-storm`` scenario to it in small
chunks, polls the session's metrics every 8 chunks, then finalizes.  The
session replays lru at a fixed fraction of the stream's referenced
bytes, so evictions and write-backs run throughout.  Each repetition is
one such pass into a new session on the same server.

The traced run feeds the same chunks in-process through the functions
the server calls, in the server's order: decode, journal append, apply,
a snapshot every 16 chunks, and metrics every 8 chunks.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error

import numpy as np

from common import (
    RepResult,
    Workload,
    dir_bytes,
    proc_peak_rss_mb,
    require,
    stage_seconds,
)

import repro.workload.generator as generator_mod
from repro.engine import EventBatch, rechunk
from repro.scenarios.compositor import compose
from repro.scenarios.library import build_scenario
from repro.serve.client import ServeClient, ServeUnavailable
from repro.serve.journal import SessionJournal, encode_batch
from repro.serve.service import ENDPOINT_NAME, batch_from_payload
from repro.serve.session import JournaledSession, ReplaySession, SessionSpec

SIZES = {
    # At least 1000 acks per run, so p99 has ten samples beyond it.
    "full": {"scale": 0.1, "days": 30.0, "chunk": 128, "min_ops": 1000},
    "tiny": {"scale": 0.01, "days": 30.0, "chunk": 128},
}

SCENARIO = "backup-storm"
POLICY = "lru"
#: Session capacity as a share of the stream's referenced bytes (the
#: paper's ~1.5 % managed-disk operating point).
CAPACITY_FRACTION = 0.015
POLL_EVERY = 8
SNAPSHOT_EVERY = 16
#: Chunks fed to the session that is SIGKILLed in the recovery check;
#: not a multiple of the snapshot interval, so recovery replays a tail.
CRASH_CHUNKS = 40
START_TIMEOUT = 60.0


def referenced_bytes(chunks) -> int:
    """Bytes of the distinct files the stream's good events reference."""
    batch = EventBatch.concat(chunks).good()
    order = np.argsort(batch.file_id, kind="stable")
    ids, sizes = batch.file_id[order], batch.size[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return int(np.maximum.reduceat(np.maximum(sizes, 1), starts).sum())


def canonical(document: dict) -> str:
    """A metrics document as comparable JSON text (NaN-safe)."""
    return json.dumps(document, sort_keys=True)


class ServeWorkload(Workload):
    name = "serve"

    # ------------------------------------------------------------------
    # Set-up: compose, start the server, create the first session

    def setup(self, index):
        size = self.size
        spec = build_scenario(SCENARIO, scale=size["scale"], seed=self.seed,
                              days=size["days"])
        with self.span("scenarios.compose"):
            composed = [batch for batch in compose(spec) if len(batch)]
        chunks = list(rechunk(composed, size["chunk"]))
        capacity = max(int(referenced_bytes(chunks) * CAPACITY_FRACTION), 1)
        data_dir = self.work / f"serve-{index}"
        state = {
            "chunks": chunks, "capacity": capacity, "data_dir": data_dir,
            "proc": None, "sessions": 0, "pending": None,
        }
        with self.span("serve.service.start"):
            self._start_server(state)
        with self.span("serve.service.create"):
            state["pending"] = self._create(state)
        return state

    def _start_server(self, state) -> None:
        data_dir = state["data_dir"]
        data_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(self.src), env.get("PYTHONPATH")) if part
        )
        log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        try:
            state["proc"] = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--data-dir", str(data_dir),
                 "--snapshot-every", str(SNAPSHOT_EVERY)],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        finally:
            log.close()
        try:
            state["client"] = self._wait_ready(state["proc"], data_dir / ENDPOINT_NAME)
        except BaseException:
            state["proc"].kill()
            state["proc"].wait()
            raise

    @staticmethod
    def _wait_ready(proc, endpoint) -> ServeClient:
        """A client for the server once it answers ``/readyz``."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            require(proc.poll() is None, "repro serve exited at start")
            require(time.monotonic() < deadline, "repro serve did not start")
            if endpoint.is_file():
                try:
                    payload = json.loads(endpoint.read_text(encoding="utf-8"))
                except ValueError:
                    payload = None
                if payload is not None:
                    client = ServeClient(payload["host"], int(payload["port"]))
                    try:
                        if client.ready().get("status") == "ready":
                            return client
                    except (urllib.error.URLError, ConnectionError, OSError):
                        pass
            time.sleep(0.005)

    def _spec(self, state, name: str) -> SessionSpec:
        return SessionSpec(name=name, policy=POLICY,
                           capacity_bytes=state["capacity"],
                           policy_seed=self.seed)

    def _create(self, state) -> str:
        name = f"bench-{state['sessions']}"
        state["sessions"] += 1
        state["client"].submit(self._spec(state, name).to_dict())
        return name

    def discard(self, state):
        self.close(state)
        shutil.rmtree(state["data_dir"], ignore_errors=True)

    def close(self, state):
        proc = state["proc"]
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def peak_rss_mb(self, state):
        """Server peak RSS after its first full session.

        Every pass leaves its finalized session resident, so the peak at
        the end of the run would grow with the number of passes that fit
        in ``--seconds``, not with the cost of serving one stream.
        """
        return state["rss_mb"]

    # ------------------------------------------------------------------
    # One pass: the closed-loop client over HTTP

    def _send(self, call, counts):
        """One request, re-sent after a refusal or a dropped connection."""
        for _ in range(5):
            counts["attempted"] += 1
            try:
                return call()
            except ServeUnavailable as exc:
                counts["failed"] += 1
                counts["refused"] += 1
                time.sleep(exc.retry_after)
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                counts["failed"] += 1
                time.sleep(0.5)
        raise RuntimeError("request failed five times in a row")

    def rep(self, state, index):
        name = state["pending"] or self._create(state)
        state["pending"] = None
        client = state["client"]
        counts = {"attempted": 0, "failed": 0, "refused": 0}
        acks, polls, events = [], [], 0
        start = time.perf_counter()
        for seq, chunk in enumerate(state["chunks"]):
            sent = time.perf_counter()
            self._send(lambda: client.feed(name, chunk, seq=seq), counts)
            acks.append((time.perf_counter() - sent) * 1e3)
            events += len(chunk)
            if (seq + 1) % POLL_EVERY == 0:
                sent = time.perf_counter()
                self._send(lambda: client.metrics(name), counts)
                polls.append((time.perf_counter() - sent) * 1e3)
        wall = time.perf_counter() - start
        final = self._send(lambda: client.finalize(name), counts)
        state.setdefault("rss_mb", proc_peak_rss_mb(state["proc"].pid))
        return RepResult(
            ops_ms=acks, items=events, wall_s=wall,
            attempted=counts["attempted"], failed=counts["failed"],
            output={"name": name, "final": final, "refused": counts["refused"]},
            extra_ms={"poll": polls},
        )

    # ------------------------------------------------------------------
    # The traced pass: the server's calls, in-process

    def trace_rep(self, state, index):
        session_dir = self.work / f"inproc-{index}"
        journaled = JournaledSession.create(
            session_dir, self._spec(state, f"inproc-{index}"),
            snapshot_every=SNAPSHOT_EVERY,
        )
        events = 0
        start = time.perf_counter()
        for seq, chunk in enumerate(state["chunks"]):
            with self.span("serve.journal.encode"):
                payload = {
                    "npz_b64": base64.b64encode(encode_batch(chunk)).decode("ascii"),
                    "seq": seq,
                }
            with self.span("serve.journal.decode"):
                batch = batch_from_payload(payload)
            with self.span("serve.session.ingest"):
                journaled.feed(batch, payload["seq"])
            events += len(chunk)
            if (seq + 1) % POLL_EVERY == 0:
                journaled.session.metrics()
        with self.span("serve.session.finalize"):
            journaled.finalize()
        wall = time.perf_counter() - start
        stored = dir_bytes(session_dir)
        shutil.rmtree(session_dir, ignore_errors=True)
        return RepResult(ops_ms=[wall * 1e3], items=events, wall_s=wall,
                         attempted=len(state["chunks"]), failed=0,
                         output={"bytes": stored, "events": events})

    # ------------------------------------------------------------------
    # Checks

    def check(self, state, reps):
        reference = ReplaySession(self._spec(state, "reference"))
        for chunk in state["chunks"]:
            reference.feed(chunk)
        expected = reference.finalize()
        if self.wrong("serve-final"):
            expected["events_ingested"] += 1
        for rep in reps:
            expected["name"] = rep.output["name"]
            require(
                canonical(rep.output["final"]) == canonical(expected),
                f"session {rep.output['name']} final metrics differ from an "
                "in-process ReplaySession fed the same chunks",
            )
        refused = sum(rep.output["refused"] for rep in reps)
        require(refused == 0,
                f"{refused} feeds or polls refused with one chunk in flight")
        acks = sum(len(rep.ops_ms) for rep in reps)
        print(f"check serve: {len(reps)} sessions match in-process replay; "
              f"0 refusals in {acks} acks with one chunk in flight (as expected)")
        self._check_recovery(state)

    def _check_recovery(self, state) -> None:
        """SIGKILL the server mid-session; the journal must restore it."""
        client = state["client"]
        name = "crash"
        client.submit(self._spec(state, name).to_dict())
        chunks = state["chunks"][:CRASH_CHUNKS]
        for seq, chunk in enumerate(chunks):
            client.feed(name, chunk, seq=seq)
        before = client.metrics(name)
        if self.wrong("serve-recovery"):
            before["events_ingested"] += 1
        proc = state["proc"]
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        start = time.perf_counter()
        recovered = JournaledSession.open(state["data_dir"] / name)
        state["recover_s"] = time.perf_counter() - start
        recovered.journal.close()
        require(
            canonical(recovered.session.metrics()) == canonical(before),
            "session recovered after SIGKILL differs from its pre-kill metrics",
        )
        print(f"check serve: SIGKILL after {len(chunks)} chunks, recovery in "
              f"{state['recover_s']:.4f} s reproduces the pre-kill metrics")

    # ------------------------------------------------------------------
    # Layers

    def patches(self):
        return [
            (generator_mod, "generate_trace", "workload.generate", stage_seconds),
            (SessionJournal, "append", "serve.journal.append"),
            (SessionJournal, "write_snapshot", "serve.journal.snapshot"),
            (ReplaySession, "feed", "serve.session.apply"),
            (ReplaySession, "metrics", "serve.session.metrics"),
        ]

    def layer_extras(self, state, base, traced, tracer):
        table = tracer.by_name()
        server_side = sum(
            table.get(name, {}).get("total_s", 0.0)
            for name in ("serve.journal.encode", "serve.journal.decode",
                         "serve.session.ingest")
        )
        polls = base.extra_ms["poll"]
        return {
            "serve.service.http_s": sum(base.ops_ms) / 1e3 - server_side,
            "serve.service.refused": base.output["refused"],
            "serve.service.poll_p50_ms": float(np.median(polls)) if polls else 0.0,
            "serve.journal.bytes_per_event": traced.output["bytes"]
            / max(traced.output["events"], 1),
            "serve.journal.recover_s": state["recover_s"],
        }


WORKLOAD = ServeWorkload
