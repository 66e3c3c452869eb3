"""HTTP service shell: routes, status codes, drain, endpoint discovery."""

from __future__ import annotations

import base64
import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.client import ServeClient, ServeClientError, ServeUnavailable
from repro.serve.service import (
    ENDPOINT_NAME,
    SHUTDOWN_SUMMARY_NAME,
    ServeConfig,
    make_server,
)
from tests.serve.conftest import malformed_chunks


@pytest.fixture
def live_server(tmp_path):
    """A bound server on a free port, drained and closed at teardown."""
    config = ServeConfig(data_dir=tmp_path / "data", port=0)
    server, service = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(*server.server_address[:2])
    try:
        yield client, service, config
    finally:
        server.shutdown()
        if not service.draining:
            service.drain()
        server.server_close()


SPEC = {"name": "s1", "policy": "lru", "capacity_bytes": 1 << 22,
        "labels": ["a", "b"]}


def test_health_ready_and_endpoint_file(live_server, tmp_path):
    client, _, config = live_server
    assert client.health()["status"] == "ok"
    assert client.ready()["status"] == "ready"
    endpoint = json.loads(
        (config.data_dir / ENDPOINT_NAME).read_text()
    )
    assert endpoint["port"] == int(client.base.rsplit(":", 1)[1])


def test_session_lifecycle_over_http(live_server, chunk_stream):
    client, _, _ = live_server
    assert client.submit(SPEC)["next_seq"] == 0
    chunks, events = client.feed_batches("s1", chunk_stream)
    assert chunks == len(chunk_stream)
    status = client.status("s1")
    assert status["applied_chunks"] == len(chunk_stream)
    assert status["events_ingested"] == events
    metrics = client.metrics("s1")
    assert metrics["hsm"]["reads"] > 0
    assert set(metrics["tenants"]) == {"a", "b"}
    final = client.finalize("s1")
    assert final["finalized"] is True
    listed = client.list_sessions()
    assert [s["name"] for s in listed] == ["s1"]
    assert listed[0]["finalized"] is True


def test_duplicate_submit_is_409(live_server):
    client, _, _ = live_server
    client.submit(SPEC)
    with pytest.raises(ServeClientError) as info:
        client.submit(SPEC)
    assert info.value.status == 409


def test_unknown_session_is_404(live_server):
    client, _, _ = live_server
    with pytest.raises(ServeClientError) as info:
        client.metrics("ghost")
    assert info.value.status == 404


def test_bad_spec_is_400(live_server):
    client, _, _ = live_server
    with pytest.raises(ServeClientError) as info:
        client.submit({"name": "x", "policy": "opt"})
    assert info.value.status == 400


def test_sequence_gap_is_409(live_server, chunk_stream):
    client, _, _ = live_server
    client.submit(SPEC)
    client.feed("s1", chunk_stream[0], seq=0)
    with pytest.raises(ServeClientError) as info:
        client.feed("s1", chunk_stream[1], seq=7)
    assert info.value.status == 409
    # A duplicate re-send acks instead of double-applying.
    ack = client.feed("s1", chunk_stream[0], seq=0)
    assert ack["duplicate"] is True
    assert client.status("s1")["applied_chunks"] == 1


def test_curl_style_json_columns_feed(live_server):
    """The documented curl path: plain JSON columns, no client module."""
    client, _, _ = live_server
    client.submit(SPEC)
    body = json.dumps({
        "seq": 0,
        "columns": {
            "file_id": [1, 2, 1],
            "size": [100, 200, 100],
            "time": [0.0, 1.0, 2.0],
            "is_write": [False, True, False],
        },
    }).encode()
    request = urllib.request.Request(
        client.base + "/v1/sessions/s1/events", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        ack = json.loads(response.read())
    assert ack["events"] == 3
    assert client.status("s1")["applied_chunks"] == 1


def test_malformed_feed_body_is_400(live_server):
    client, _, _ = live_server
    client.submit(SPEC)
    for payload in ({}, {"columns": {"file_id": [1]}}, {"chunk_b64": "!!!"}):
        body = json.dumps(payload).encode()
        request = urllib.request.Request(
            client.base + "/v1/sessions/s1/events", data=body,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


def _connection(client: ServeClient) -> http.client.HTTPConnection:
    host, port = client.base[len("http://"):].rsplit(":", 1)
    return http.client.HTTPConnection(host, int(port), timeout=10)


def _exchange(connection, method, path, body=None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def test_malformed_chunk_is_400_and_not_applied(live_server):
    client, _, _ = live_server
    client.submit(SPEC)
    connection = _connection(client)
    try:
        for case, chunk in sorted(malformed_chunks().items()):
            body = json.dumps({
                "seq": 0, "chunk_b64": base64.b64encode(chunk).decode("ascii"),
            }).encode()
            status, answer = _exchange(
                connection, "POST", "/v1/sessions/s1/events", body
            )
            assert status == 400 and "undecodable" in answer["error"], case
    finally:
        connection.close()
    assert client.status("s1")["applied_chunks"] == 0


def test_kept_alive_connection_stays_framed_after_unread_bodies(live_server):
    """Bodies the route never looks at are still consumed, so the next
    request on the same connection parses from its own first byte."""
    client, _, _ = live_server
    client.submit(SPEC)
    body = json.dumps({"unused": "x" * 64}).encode()
    connection = _connection(client)
    try:
        assert _exchange(connection, "POST", "/nowhere", body)[0] == 404
        assert _exchange(connection, "GET", "/healthz")[1]["status"] == "ok"
        status, final = _exchange(
            connection, "POST", "/v1/sessions/s1/finalize", body
        )
        assert status == 200 and final["finalized"] is True
        assert _exchange(connection, "GET", "/healthz")[1]["status"] == "ok"
    finally:
        connection.close()


@pytest.mark.parametrize("length", ["12abc", "-1", "2, 2"])
def test_malformed_content_length_is_400_and_closes(live_server, length):
    client, _, _ = live_server
    connection = _connection(client)
    try:
        connection.putrequest("POST", "/v1/sessions")
        connection.putheader("Content-Length", length)
        connection.endheaders(b"{}")
        response = connection.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        response.read()
    finally:
        connection.close()
    assert client.health()["status"] == "ok"


def test_client_reuses_one_connection(live_server):
    client, _, _ = live_server
    client.health()
    sock = client._connection.sock
    for _ in range(3):
        client.ready()
    assert client._connection.sock is sock
    client.close()
    assert client.health()["status"] == "ok"  # re-dials after close
    assert client._connection.sock not in (None, sock)


def test_drain_refuses_new_work_and_writes_summary(live_server, chunk_stream):
    client, service, config = live_server
    client.submit(SPEC)
    client.feed("s1", chunk_stream[0], seq=0)
    summary = service.drain()
    assert summary["clean"] is True
    assert summary["sessions"]["s1"]["applied_chunks"] == 1
    on_disk = json.loads(
        (config.data_dir / SHUTDOWN_SUMMARY_NAME).read_text()
    )
    assert on_disk["clean"] is True
    # Draining: readyz 503s, ingest and submit are refused with Retry-After.
    with pytest.raises(ServeUnavailable) as info:
        client.ready()
    assert info.value.retry_after >= 1.0
    with pytest.raises(ServeUnavailable):
        client.feed("s1", chunk_stream[1], seq=1)
    with pytest.raises(ServeUnavailable):
        client.submit({**SPEC, "name": "s2"})


def test_restart_recovers_sessions_and_clears_stale_summary(
    tmp_path, chunk_stream
):
    config = ServeConfig(data_dir=tmp_path / "data", port=0)
    server, service = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(*server.server_address[:2])
    client.submit(SPEC)
    client.feed_batches("s1", chunk_stream[:3])
    reference = client.metrics("s1")
    server.shutdown()
    service.drain()
    server.server_close()

    server2, service2 = make_server(config)
    thread2 = threading.Thread(target=server2.serve_forever, daemon=True)
    thread2.start()
    try:
        client2 = ServeClient(*server2.server_address[:2])
        assert service2.recovered == ["s1"]
        assert not (config.data_dir / SHUTDOWN_SUMMARY_NAME).exists()
        assert client2.status("s1")["applied_chunks"] == 3
        assert client2.metrics("s1") == reference
        # The stream continues where it left off.
        client2.feed_batches("s1", chunk_stream[3:])
        assert client2.status("s1")["applied_chunks"] == len(chunk_stream)
    finally:
        server2.shutdown()
        service2.drain()
        server2.server_close()
