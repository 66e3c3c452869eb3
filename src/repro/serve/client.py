"""Thin HTTP client for the ``repro serve`` service (stdlib http.client).

Each :class:`ServeClient` sends every request over one kept-alive
connection, dialled on first use.  A connection-level failure drops it,
and the next request dials again.  A client is not shared across
threads.

Feeding is where the robustness protocol lives, so
:meth:`ServeClient.feed_batches` implements the full client side of it:

* every chunk carries a **sequence number**, so a re-send of a chunk
  whose ack was lost (server crashed after journaling, connection
  dropped) collapses into a duplicate ack instead of double-applying;
* ``429``/``503`` answers are honored by sleeping ``Retry-After`` and
  re-sending the *same* chunk -- backpressure slows the client down, it
  never loses data;
* a connection error triggers a **re-sync**: the client asks the
  (restarted) server how many chunks it durably owns and resumes from
  exactly there.
"""

from __future__ import annotations

import base64
import http.client
import json
import time
from typing import Iterable, Iterator, Optional, Tuple

from repro.engine.batch import EventBatch
from repro.serve.journal import encode_batch

#: Default ceiling on 429/503/reconnect retries per chunk.
DEFAULT_FEED_RETRIES = 50

#: Default connection-refused retries for one-shot requests (ping, the
#: initial feed re-sync): a restarting server has a window between
#: journal recovery and socket bind where connections are refused.
DEFAULT_CONNECT_RETRIES = 5

#: Base delay for the connection-retry backoff (doubles, capped).
DEFAULT_CONNECT_BACKOFF = 0.25

#: Ceiling on any single connection-retry sleep.
CONNECT_BACKOFF_CAP = 2.0


class ServeClientError(RuntimeError):
    """A request the server answered with a non-retryable error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeUnavailable(ServeClientError):
    """A retryable refusal (backpressure / draining / shedding)."""

    def __init__(self, status: int, message: str, retry_after: float) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class ServeClient:
    """One service endpoint; methods mirror the HTTP routes."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8023,
                 timeout: float = 60.0,
                 connect_retries: int = DEFAULT_CONNECT_RETRIES,
                 connect_backoff: float = DEFAULT_CONNECT_BACKOFF) -> None:
        self.base = f"http://{host}:{port}"
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        """Hang up the kept-alive connection (a later request re-dials)."""
        self._connection.close()

    # ------------------------------------------------------------------
    # Plumbing

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Refused, reset, closed mid-answer or timed out: the
            # connection is unusable, and the caller's retry handling
            # knows these failures as ConnectionError / TimeoutError.
            self._connection.close()
            if isinstance(exc, (ConnectionError, TimeoutError)):
                raise
            raise ConnectionError(f"{self.base}: {exc!r}") from exc
        if response.status >= 400:
            detail = _error_detail(raw, response.reason)
            if response.status in (429, 503):
                raise ServeUnavailable(
                    response.status, detail,
                    retry_after=float(response.getheader("Retry-After") or 1.0),
                )
            raise ServeClientError(response.status, detail)
        return json.loads(raw.decode("utf-8"))

    def _with_reconnect(self, fn, *, retries: Optional[int] = None,
                        on_retry=None):
        """Run one request, retrying connection-level failures.

        Bounded exponential backoff on connection-refused / reset /
        timeout -- the restart window between a server's journal
        recovery and its socket bind no longer surfaces as a raw
        ``ConnectionError``.  HTTP-level errors (including 429/503
        backpressure) pass straight through: they already have their own
        protocol.
        """
        budget = self.connect_retries if retries is None else retries
        attempt = 0
        while True:
            try:
                return fn()
            except ServeClientError:
                raise
            except (ConnectionError, TimeoutError):
                if attempt >= budget:
                    raise
                delay = min(
                    self.connect_backoff * (2.0 ** attempt),
                    CONNECT_BACKOFF_CAP,
                )
                if on_retry is not None:
                    on_retry("reconnect", -1, delay)
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # Routes

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def ready(self) -> dict:
        return self._request("GET", "/readyz")

    def ping(self, retries: Optional[int] = None) -> dict:
        """Health check that rides out a server restart window."""
        return self._with_reconnect(self.health, retries=retries)

    def list_sessions(self) -> list:
        return self._request("GET", "/v1/sessions")["sessions"]

    def submit(self, spec: dict) -> dict:
        """Create a session from a SessionSpec dict."""
        return self._request("POST", "/v1/sessions", spec)

    def status(self, name: str) -> dict:
        return self._request("GET", f"/v1/sessions/{name}")

    def metrics(self, name: str) -> dict:
        return self._request("GET", f"/v1/sessions/{name}/metrics")

    def finalize(self, name: str) -> dict:
        return self._request("POST", f"/v1/sessions/{name}/finalize")

    def feed(self, name: str, batch: EventBatch,
             seq: Optional[int] = None) -> dict:
        """Send one chunk (exact-dtype raw columns); one attempt."""
        payload = {
            "chunk_b64": base64.b64encode(encode_batch(batch)).decode("ascii"),
        }
        if seq is not None:
            payload["seq"] = seq
        return self._request("POST", f"/v1/sessions/{name}/events", payload)

    # ------------------------------------------------------------------
    # Robust streaming

    def next_seq(self, name: str) -> int:
        """How many chunks the server durably owns (the re-sync point)."""
        return int(self.status(name)["next_seq"])

    def feed_batches(
        self,
        name: str,
        batches: Iterable[EventBatch],
        *,
        start_seq: Optional[int] = None,
        max_retries: int = DEFAULT_FEED_RETRIES,
        on_retry=None,
    ) -> Tuple[int, int]:
        """Stream chunks with backpressure + crash re-sync handling.

        Returns ``(chunks_sent, events_sent)`` counting every chunk the
        server acknowledged (duplicates from re-sends count once).
        ``on_retry(reason, seq, delay)`` is called before each retry
        sleep -- the CLI uses it to narrate backpressure.
        """
        # The initial re-sync rides out a restarting server the same way
        # mid-stream reconnects do -- without it, feeding immediately
        # after a restart dies on the first connection-refused.
        if start_seq is None:
            seq = self._with_reconnect(
                lambda: self.next_seq(name), on_retry=on_retry
            )
        else:
            seq = start_seq
        sent_chunks = sent_events = 0
        iterator: Iterator[EventBatch] = iter(batches)
        for offset, batch in enumerate(iterator):
            chunk_seq = seq + offset
            retries = 0
            while True:
                try:
                    self.feed(name, batch, seq=chunk_seq)
                except ServeUnavailable as exc:
                    retries += 1
                    if retries > max_retries:
                        raise
                    if on_retry is not None:
                        on_retry("backpressure", chunk_seq, exc.retry_after)
                    time.sleep(exc.retry_after)
                    continue
                except (ConnectionError, TimeoutError):
                    # Server gone mid-chunk.  Wait for it to come back,
                    # then re-sync: if the crash landed after the journal
                    # append, the re-send acks as a duplicate.
                    retries += 1
                    if retries > max_retries:
                        raise
                    if on_retry is not None:
                        on_retry("reconnect", chunk_seq, 1.0)
                    time.sleep(1.0)
                    try:
                        owned = self.next_seq(name)
                    except (ServeClientError, ConnectionError, TimeoutError):
                        continue  # still down; keep waiting
                    if owned > chunk_seq:
                        break  # this chunk survived the crash
                    continue
                break
            sent_chunks += 1
            sent_events += len(batch)
        return sent_chunks, sent_events


def _error_detail(raw: bytes, reason: str) -> str:
    try:
        payload = json.loads(raw.decode("utf-8"))
        return str(payload.get("error", payload))
    except (ValueError, AttributeError):
        return reason or "error"


def read_endpoint(data_dir) -> Tuple[str, int]:
    """The (host, port) a running server recorded in its data dir."""
    from pathlib import Path

    from repro.serve.service import ENDPOINT_NAME

    payload = json.loads(
        (Path(data_dir) / ENDPOINT_NAME).read_text(encoding="utf-8")
    )
    return str(payload["host"]), int(payload["port"])
