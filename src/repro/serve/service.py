"""The ``repro serve`` HTTP/JSON service: journaled sessions behind
bounded queues.

Stdlib only (:mod:`http.server` / ``ThreadingHTTPServer``).  Each
session gets one worker thread that owns its
:class:`~repro.serve.session.JournaledSession` -- journal appends and
HSM replay are strictly serialized per session -- fed through a bounded
queue.  The HTTP layer never touches session state directly; it
enqueues work items and waits (with a deadline) for the worker's answer.

Robustness policy, in the order requests feel it:

* **Backpressure**: a full ingest queue answers ``429`` with
  ``Retry-After`` -- the chunk was *not* admitted and must be re-sent.
  A chunk that is admitted but not applied within the request timeout
  answers ``503``; it will still be applied, and the client's
  sequence-numbered re-send collapses into a duplicate ack.
* **Load shedding**: metrics polls are refused (``503`` +
  ``Retry-After``) as soon as a session's backlog crosses the shed
  threshold -- *before* ingest is refused, so observers degrade first
  and writers keep their queue room.
* **Graceful drain**: SIGTERM flips the service to draining (``/readyz``
  and ingest answer ``503``), lets every queue empty, snapshots and
  closes every journal, and writes ``shutdown_summary.json`` with
  ``clean: true`` -- the orchestrator's signal that nothing was lost.
* **Crash recovery**: startup re-opens every session directory under
  the data dir (snapshot + journal tail), so a SIGKILLed server resumes
  exactly where the journals say it was.

Routes (all JSON)::

    GET  /healthz                        liveness
    GET  /readyz                         readiness (503 while draining)
    GET  /v1/sessions                    status of every session
    POST /v1/sessions                    create from a SessionSpec dict
    GET  /v1/sessions/<name>             one session's status
    POST /v1/sessions/<name>/events      feed one chunk (seq + payload)
    GET  /v1/sessions/<name>/metrics     live Table-3/tenant metrics
    POST /v1/sessions/<name>/finalize    flush writebacks, seal, report
"""

from __future__ import annotations

import base64
import json
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.batch import EventBatch
from repro.serve.journal import JournalError, decode_batch
from repro.serve.session import (
    JournaledSession,
    SequenceGap,
    SessionError,
    SessionSpec,
    SESSION_META_NAME,
)
from repro.util.durable import write_json

SHUTDOWN_SUMMARY_NAME = "shutdown_summary.json"
ENDPOINT_NAME = "serve.json"

#: Suggested client wait (seconds) on 429/503, sent as ``Retry-After``.
RETRY_AFTER_SECONDS = 1


@dataclass(frozen=True)
class ServeConfig:
    """Service tuning knobs (all bounded-by-default)."""

    host: str = "127.0.0.1"
    port: int = 0
    data_dir: Union[str, Path] = "serve-data"
    #: Chunks a session's ingest queue holds before 429ing new feeds.
    queue_depth: int = 8
    #: Queue backlog at which metrics polls are shed with 503.
    shed_backlog: int = 4
    #: Seconds an HTTP request waits for its worker before 503ing.
    request_timeout: float = 30.0
    #: Snapshot the session state every N applied chunks.
    snapshot_every: int = 16
    #: Seconds the drain waits for each worker to empty its queue.
    drain_timeout: float = 30.0


class ServiceUnavailable(SessionError):
    """Request refused for capacity reasons (maps to 429/503)."""

    def __init__(self, message: str, status: int = 503) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _WorkItem:
    """One unit of session work, answered through an event."""

    kind: str  # "feed" | "finalize" | "metrics"
    seq: Optional[int] = None
    batch: Optional[EventBatch] = None
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[dict] = None
    error: Optional[BaseException] = None

    def finish(self, result: Optional[dict] = None,
               error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.done.set()

    def wait(self, timeout: float) -> dict:
        if not self.done.wait(timeout):
            raise ServiceUnavailable(
                "request admitted but not applied within the deadline; "
                "re-send (the sequence number makes it idempotent)",
                status=503,
            )
        if self.error is not None:
            raise self.error
        return self.result or {}


class _SessionWorker:
    """One thread owning one journaled session + its bounded queue."""

    def __init__(self, journaled: JournaledSession, config: ServeConfig) -> None:
        self.journaled = journaled
        self.config = config
        self.queue: "queue.Queue[_WorkItem]" = queue.Queue(
            maxsize=max(config.queue_depth, 1)
        )
        self.thread = threading.Thread(
            target=self._loop,
            name=f"session-{journaled.spec.name}",
            daemon=True,
        )
        self.thread.start()

    # -- worker side --------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item.kind == "stop":
                self.queue.task_done()
                break
            try:
                if item.kind == "feed":
                    item.finish(self.journaled.feed(item.batch, item.seq))
                elif item.kind == "finalize":
                    item.finish(self.journaled.finalize())
                elif item.kind == "metrics":
                    item.finish(self.journaled.session.metrics())
                else:  # pragma: no cover - internal misuse
                    item.finish(error=SessionError(f"bad work kind {item.kind}"))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                item.finish(error=exc)
            finally:
                self.queue.task_done()

    # -- caller side --------------------------------------------------------

    @property
    def backlog(self) -> int:
        return self.queue.qsize()

    def submit(self, item: _WorkItem) -> _WorkItem:
        """Enqueue without blocking; full queue = backpressure."""
        try:
            self.queue.put_nowait(item)
        except queue.Full:
            raise ServiceUnavailable(
                f"session {self.journaled.spec.name!r} ingest queue is "
                f"full ({self.config.queue_depth} chunks)",
                status=429,
            )
        return item

    def drain(self, timeout: float) -> bool:
        """Stop the worker after its queue empties; True if it joined."""
        try:
            self.queue.put(_WorkItem(kind="stop"), timeout=timeout)
        except queue.Full:
            return False
        self.thread.join(timeout)
        return not self.thread.is_alive()


def batch_from_payload(payload: dict) -> EventBatch:
    """Decode one chunk from a feed request body.

    Two encodings: ``chunk_b64`` (base64 of :func:`encode_batch`'s raw
    columns, the journal frame payload -- exact dtypes, what the client
    module sends) or plain JSON ``columns`` lists (curl-friendly).  The
    key's older name, ``npz_b64``, is read as an alias of ``chunk_b64``.
    """
    encoded = payload.get("chunk_b64", payload.get("npz_b64"))
    if encoded is not None:
        try:
            return decode_batch(base64.b64decode(encoded, validate=True))
        except (JournalError, TypeError, ValueError) as exc:
            raise SessionError(f"undecodable chunk: {exc}")
    columns = payload.get("columns")
    if not isinstance(columns, dict):
        raise SessionError("feed body needs 'chunk_b64' or 'columns'")
    try:
        required = {
            name: columns[name]
            for name in ("file_id", "size", "time", "is_write")
        }
    except KeyError as exc:
        raise SessionError(f"columns missing {exc.args[0]!r}")
    optional = {
        name: columns[name]
        for name in ("device", "error", "user", "latency", "transfer")
        if columns.get(name) is not None
    }
    try:
        return EventBatch.from_columns(**required, **optional)
    except (TypeError, ValueError) as exc:
        raise SessionError(f"bad columns: {exc}")


class ReproService:
    """Session registry + request methods, independent of HTTP plumbing.

    Every public ``handle_*`` method returns ``(status, payload,
    headers)``; the HTTP handler is a thin shell around them, which is
    also what makes the service unit-testable without sockets.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.workers: Dict[str, _SessionWorker] = {}
        self._lock = threading.Lock()
        self.draining = False
        self.started_at = time.time()
        self.recovered = self._recover_sessions()

    # ------------------------------------------------------------------
    # Startup recovery

    def _recover_sessions(self) -> List[str]:
        """Re-open every session directory left by a previous process."""
        recovered = []
        for path in sorted(self.data_dir.iterdir()):
            if not (path / SESSION_META_NAME).is_file():
                continue
            journaled = JournaledSession.open(path)
            self.workers[journaled.spec.name] = _SessionWorker(
                journaled, self.config
            )
            recovered.append(journaled.spec.name)
        # A restart invalidates any previous shutdown summary.
        stale = self.data_dir / SHUTDOWN_SUMMARY_NAME
        if stale.is_file():
            stale.unlink()
        return recovered

    def _worker(self, name: str) -> _SessionWorker:
        with self._lock:
            worker = self.workers.get(name)
        if worker is None:
            raise KeyError(name)
        return worker

    # ------------------------------------------------------------------
    # Request methods

    def handle_healthz(self) -> Tuple[int, dict, dict]:
        return 200, {"status": "ok", "uptime": time.time() - self.started_at}, {}

    def handle_readyz(self) -> Tuple[int, dict, dict]:
        if self.draining:
            return 503, {"status": "draining"}, _retry_after()
        return 200, {"status": "ready", "sessions": len(self.workers)}, {}

    def handle_list(self) -> Tuple[int, dict, dict]:
        with self._lock:
            workers = dict(self.workers)
        return 200, {
            "sessions": [
                {
                    **worker.journaled.session.status(),
                    "next_seq": worker.journaled.next_seq,
                    "backlog": worker.backlog,
                }
                for worker in workers.values()
            ],
        }, {}

    def handle_create(self, payload: dict) -> Tuple[int, dict, dict]:
        if self.draining:
            return 503, {"error": "draining"}, _retry_after()
        spec = SessionSpec.from_dict(payload)
        with self._lock:
            if spec.name in self.workers:
                return 409, {"error": f"session {spec.name!r} exists"}, {}
            journaled = JournaledSession.create(
                self.data_dir / spec.name, spec,
                snapshot_every=self.config.snapshot_every,
            )
            self.workers[spec.name] = _SessionWorker(journaled, self.config)
        return 201, {"session": spec.name, "next_seq": 0}, {}

    def handle_status(self, name: str) -> Tuple[int, dict, dict]:
        worker = self._worker(name)
        return 200, {
            **worker.journaled.session.status(),
            "next_seq": worker.journaled.next_seq,
            "backlog": worker.backlog,
        }, {}

    def handle_feed(self, name: str, payload: dict) -> Tuple[int, dict, dict]:
        if self.draining:
            return 503, {"error": "draining; chunk not admitted"}, _retry_after()
        worker = self._worker(name)
        batch = batch_from_payload(payload)
        seq = payload.get("seq")
        if seq is not None:
            seq = int(seq)
        item = worker.submit(_WorkItem(kind="feed", seq=seq, batch=batch))
        ack = item.wait(self.config.request_timeout)
        return 200, ack, {}

    def handle_metrics(self, name: str) -> Tuple[int, dict, dict]:
        worker = self._worker(name)
        # Shed observers before writers: a backlogged session spends its
        # cycles on ingest, not on metrics polls.
        if worker.backlog >= self.config.shed_backlog:
            raise ServiceUnavailable(
                f"session {name!r} is backlogged "
                f"({worker.backlog} chunks queued); metrics shed",
                status=503,
            )
        item = worker.submit(_WorkItem(kind="metrics"))
        return 200, item.wait(self.config.request_timeout), {}

    def handle_finalize(self, name: str) -> Tuple[int, dict, dict]:
        worker = self._worker(name)
        item = worker.submit(_WorkItem(kind="finalize"))
        return 200, item.wait(self.config.request_timeout), {}

    # ------------------------------------------------------------------
    # Drain

    def drain(self) -> dict:
        """Stop accepting, flush every session, write the shutdown summary.

        Idempotent; returns the summary payload.
        """
        self.draining = True
        sessions = {}
        clean = True
        with self._lock:
            workers = dict(self.workers)
        for name, worker in workers.items():
            joined = worker.drain(self.config.drain_timeout)
            clean = clean and joined
            try:
                worker.journaled.close()
            except Exception:  # pragma: no cover - best-effort close
                clean = False
            sessions[name] = {
                **worker.journaled.session.status(),
                "drained": joined,
            }
        summary = {
            "clean": clean,
            "sessions": sessions,
            "recovered_at_start": self.recovered,
            "written_at": time.time(),
        }
        write_json(self.data_dir / SHUTDOWN_SUMMARY_NAME, summary)
        return summary


def _retry_after(seconds: int = RETRY_AFTER_SECONDS) -> dict:
    return {"Retry-After": str(seconds)}


# ---------------------------------------------------------------------------
# HTTP shell


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shell: route, decode JSON, map errors to statuses."""

    service: ReproService  # set by make_server
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, a kept-alive
    # client's delayed ACK holds the body back for tens of milliseconds.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by default; the CLI prints the endpoint once

    def _send(self, status: int, payload: dict, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """Consume the request body, whatever the route; None if unframed.

        The next request on a kept-alive connection starts right after
        this one's body, so every body is read before answering, and a
        body whose end is unknown (a malformed, repeated or short
        ``Content-Length``, or a transfer coding) returns None.
        """
        lengths = self.headers.get_all("Content-Length") or ["0"]
        text = lengths[0].strip()
        if (len(lengths) > 1 or not (text.isascii() and text.isdigit())
                or "Transfer-Encoding" in self.headers):
            return None
        length = int(text)
        raw = self.rfile.read(length)
        return raw if len(raw) == length else None

    @staticmethod
    def _json(raw: bytes) -> dict:
        if not raw:
            return {}
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise SessionError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body is None:
            # Where this body ends, the next request would start: answer
            # and hang up rather than parse the rest as a request.
            self._send(400, {"error": "request body has no usable "
                             "Content-Length"}, {"Connection": "close"})
            return
        try:
            status, payload, headers = self._route(method, body)
        except ServiceUnavailable as exc:
            status, payload, headers = exc.status, {"error": str(exc)}, _retry_after()
        except SequenceGap as exc:
            status, payload, headers = 409, {"error": str(exc)}, {}
        except KeyError as exc:
            status, payload, headers = (
                404, {"error": f"no such session: {exc.args[0]}"}, {}
            )
        except (SessionError, json.JSONDecodeError, ValueError) as exc:
            status, payload, headers = 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload, headers = 500, {"error": repr(exc)}, {}
        self._send(status, payload, headers)

    def _route(self, method: str, body: bytes) -> Tuple[int, dict, dict]:
        service = self.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [part for part in path.split("/") if part]
        if method == "GET" and path == "/healthz":
            return service.handle_healthz()
        if method == "GET" and path == "/readyz":
            return service.handle_readyz()
        if parts[:2] == ["v1", "sessions"]:
            if len(parts) == 2:
                if method == "GET":
                    return service.handle_list()
                if method == "POST":
                    return service.handle_create(self._json(body))
            elif len(parts) == 3 and method == "GET":
                return service.handle_status(parts[2])
            elif len(parts) == 4:
                name, action = parts[2], parts[3]
                if method == "POST" and action == "events":
                    return service.handle_feed(name, self._json(body))
                if method == "GET" and action == "metrics":
                    return service.handle_metrics(name)
                if method == "POST" and action == "finalize":
                    return service.handle_finalize(name)
        return 404, {"error": f"no route: {method} {path}"}, {}

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded server that also hangs up kept-alive connections on close.

    A handler thread serves its connection until the client hangs up,
    so without this a closed server would keep answering on open
    connections with the state it had when it stopped.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            live, self._connections = self._connections, set()
        for connection in live:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client already hung up


def make_server(config: ServeConfig) -> Tuple[ServeHTTPServer, ReproService]:
    """Bind the HTTP server (recovering sessions first); does not serve."""
    service = ReproService(config)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ServeHTTPServer((config.host, config.port), handler)
    # Record the live endpoint (port 0 resolves at bind time) so clients
    # and orchestrators can discover it from the data dir.
    write_json(service.data_dir / ENDPOINT_NAME, {
        "host": server.server_address[0],
        "port": server.server_address[1],
        "pid": os.getpid(),
        "started_at": service.started_at,
    })
    return server, service


def serve_forever(config: ServeConfig, *, ready: Optional[threading.Event] = None) -> dict:
    """Run the service until SIGTERM/SIGINT; returns the drain summary.

    The signal handler only *requests* shutdown (sets a flag and pokes
    ``server.shutdown`` from a helper thread); the actual drain --
    refuse new work, empty queues, snapshot and close journals, write
    ``shutdown_summary.json`` -- runs on the main thread after the
    accept loop exits.
    """
    server, service = make_server(config)
    stop_requested = threading.Event()

    def _request_stop(signum, frame) -> None:
        if stop_requested.is_set():
            return
        stop_requested.set()
        service.draining = True
        # server.shutdown() blocks until the serve loop exits, so it
        # must not run on the signal-handling (main) thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        if ready is not None:
            ready.set()
        server.serve_forever()
        return service.drain()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
