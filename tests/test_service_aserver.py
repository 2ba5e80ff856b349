"""End-to-end tests of the HTTP front end's transport behaviour.

``tests/test_service_server.py`` covers the round-trip basics and request
deduplication; this module covers connection handling on raw sockets,
bounded-queue backpressure (429 + ``Retry-After``), per-client token-bucket
rate limiting, long-poll wakeup ordering, ``POST /jobs?wait=``, the client's
kept-alive connections, pruned jobs, the access log and the ``/metrics``
exposition.
"""

import asyncio
import contextlib
import http.client
import io
import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.algorithms import ghz_ladder
from repro.core import Configuration
from repro.exceptions import ServiceError
from repro.obs.logs import configure_logging
from repro.resilience import FaultPlan, FaultRule
from repro.service import VerificationClient, VerificationServer, aserver

SEED = 5


@pytest.fixture()
def server():
    """A live server on an ephemeral port, torn down after the test."""
    instance = VerificationServer(
        port=0, configuration=Configuration(seed=SEED, max_workers=2)
    )
    instance.start_background()
    try:
        yield instance
    finally:
        instance.close()


@pytest.fixture()
def client(server):
    return VerificationClient(server.url, timeout=10.0)


@pytest.fixture()
def wait_closed_waits_for_connections(monkeypatch):
    """Give ``asyncio.Server.wait_closed`` its Python 3.12.1 behaviour.

    From 3.12.1 it returns only once every connection has closed; before,
    it returned as soon as the server stopped listening.  Leaving
    ``async with server`` calls it, so shutdown tests see the newer
    behaviour on every interpreter.
    """
    if sys.version_info >= (3, 12, 1):
        return

    async def wait_closed(self):
        if self._waiters is None:
            return
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        await waiter

    monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", wait_closed)


def _hold_worker(service):
    """Make every manager run block on the returned event (test hook)."""
    release = threading.Event()
    original = service.manager.run

    def held(first, second, **kwargs):
        assert release.wait(30.0), "test forgot to release the worker"
        return original(first, second, **kwargs)

    service.manager.run = held
    return release


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection.

    Raises ``TimeoutError`` (via the socket timeout) if the server holds
    the connection open instead of closing it.
    """
    received = b""
    while chunk := sock.recv(4096):
        received += chunk
    return received


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """One response (status, lower-cased headers, body) from a socket file."""
    status = int(reader.readline().split(b" ")[1])
    headers: dict[str, str] = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


def _http_requests(server) -> float:
    """HTTP requests the server has answered so far, over every label set."""
    counter = server.service.metrics.get("repro_http_requests_total")
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in counter.render()
        if not line.startswith("#")
    )


def _post_jobs(server, query: str) -> tuple[int, dict]:
    """``POST /jobs<query>`` of a GHZ-3 self pair on a raw connection."""
    body = json.dumps({"first": ghz_ladder(3).to_qasm(), "second": ghz_ladder(3).to_qasm()})
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.request("POST", f"/jobs{query}", body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _server_counting_connections() -> tuple[VerificationServer, list]:
    """A started server that records the peer of every accepted connection."""
    server = VerificationServer(
        port=0, configuration=Configuration(seed=SEED, max_workers=2)
    )
    accepted: list = []
    handle = server._handle_connection

    async def counting(reader, writer):
        accepted.append(writer.get_extra_info("peername"))
        await handle(reader, writer)

    server._handle_connection = counting
    server.start_background()
    return server, accepted


@contextlib.contextmanager
def _captured_log():
    """The ``repro`` JSON log written to a ``StringIO`` for the block."""
    stream = io.StringIO()
    configure_logging(stream=stream)
    try:
        yield stream
    finally:
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)
            handler.close()
        root.setLevel(logging.NOTSET)
        root.propagate = True


def _access_records(stream: io.StringIO) -> list[dict]:
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [record for record in records if record["message"] == "http access"]


class TestHttpTransport:
    def test_unknown_endpoint_and_method(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/jobs")
        assert excinfo.value.status == 405

    def test_malformed_request_line_gets_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        ],
    )
    def test_keep_alive_serves_multiple_requests_per_connection(
        self, server, request_head
    ):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            for _ in range(3):
                sock.sendall(request_head)
                chunk = sock.recv(4096)
                assert chunk.startswith(b"HTTP/1.1 200")
                assert b"\r\nConnection: keep-alive\r\n" in chunk

    def test_http_1_0_connection_closes_after_the_response(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            sock.settimeout(3.0)
            response = _read_to_eof(sock)
        head = response.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head.split(b"\r\n")

    def test_http_1_0_submission_closes_after_the_response(self, server):
        body = json.dumps(
            {"first": ghz_ladder(2).to_qasm(), "second": ghz_ladder(2).to_qasm()}
        ).encode()
        request = (
            b"POST /jobs HTTP/1.0\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(request)
            sock.settimeout(3.0)
            response = _read_to_eof(sock)
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(b"HTTP/1.1 202")
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["job_id"]

    def test_http_1_1_connection_close_is_honoured(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            sock.settimeout(3.0)
            response = _read_to_eof(sock)
        head = response.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head.split(b"\r\n")

    def test_routing_error_keeps_the_connection_open(self, server):
        # A 404 is answered after the (empty) body was read, so the next
        # request on the same connection is still framed correctly.
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            status, headers, _ = _read_response(reader)
            assert status == 404
            assert headers["connection"] == "keep-alive"
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, body = _read_response(reader)
            assert status == 200
            assert json.loads(body)["ok"] is True

    def test_pipelined_requests_are_answered_in_order(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            status, _, body = _read_response(reader)
            assert status == 200 and "ok" in json.loads(body)
            status, _, body = _read_response(reader)
            assert status == 200 and "submitted" in json.loads(body)

    @pytest.mark.parametrize(
        "request_head, status",
        [
            (b"GET /healthz HTTP/2.0\r\n\r\n", b"400"),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", b"400"),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n", b"413"),
        ],
        ids=["http-version", "header-line", "oversized-body"],
    )
    def test_error_before_the_body_closes_the_connection(
        self, server, request_head, status
    ):
        # Before the body is read, what follows cannot be framed as a next
        # request, so the server answers once and closes.
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(request_head)
            sock.settimeout(3.0)
            response = _read_to_eof(sock)
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.split(b"\r\n", 1)[0].split(b" ")[1] == status
        assert b"Connection: close" in response.split(b"\r\n\r\n", 1)[0].split(b"\r\n")

    @pytest.mark.parametrize(
        "transfer_encoding", [b"chunked", b"Chunked", b"gzip, chunked"]
    )
    def test_chunked_body_gets_one_501_then_eof(self, server, transfer_encoding):
        body = json.dumps({"first": "x", "second": "y"}).encode()
        request = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: "
            + transfer_encoding
            + b"\r\n\r\n"
            + f"{len(body):x}\r\n".encode()
            + body
            + b"\r\n0\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(request)
            sock.settimeout(3.0)
            response = _read_to_eof(sock)
        # Exactly one response: the chunk framing is never parsed as a
        # second request on the same connection.
        assert response.count(b"HTTP/1.1 ") == 1
        assert response.startswith(b"HTTP/1.1 501")
        assert server.service.stats()["submitted"] == 0

    def test_access_log_names_path_and_client(self, client):
        with _captured_log() as stream:
            client.health()
        (access,) = _access_records(stream)
        assert access["method"] == "GET"
        assert access["path"] == "/healthz"
        assert access["status"] == 200
        assert access["client"] == "127.0.0.1"

    def test_access_log_records_error_responses(self, client):
        with _captured_log() as stream:
            with pytest.raises(ServiceError):
                client._request("GET", "/nope?x=1")
        (access,) = _access_records(stream)
        assert access["method"] == "GET"
        assert access["path"] == "/nope?x=1"
        assert access["status"] == 404
        assert access["client"] == "127.0.0.1"

    def test_stats_expose_queue_fields(self, client, server):
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["queue_limit"] == server.service.queue_limit
        assert "rejected" in stats


class TestLongPoll:
    def test_warm_cache_verify_takes_one_request(self, server, client, monkeypatch):
        first, second = ghz_ladder(3), ghz_ladder(3)
        client.verify(first, second, timeout=30.0)  # warm the verdict cache
        calls = []
        original = client._request

        def counting(method, path, payload=None, timeout=None, headers=None):
            calls.append((method, path))
            return original(method, path, payload, timeout, headers=headers)

        monkeypatch.setattr(client, "_request", counting)
        before = _http_requests(server)
        payload = client.verify(first, second, timeout=30.0)
        assert payload["cached"] is True
        assert calls == [("POST", "/jobs?wait=30")]
        assert _http_requests(server) - before == 1

    def test_long_poll_blocks_until_settlement_and_wakes_all_waiters(
        self, server, client
    ):
        release = _hold_worker(server.service)
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        job_id = submission["job_id"]
        results: list[dict] = []
        errors: list[Exception] = []

        def waiter():
            try:
                results.append(client.result(job_id, wait=20.0))
            except Exception as error:  # noqa: BLE001 - collected for the assertion
                errors.append(error)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        assert not results, "long-poll answered before the job settled"
        release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 3
        assert all(payload["criterion"] == "equivalent" for payload in results)
        assert time.monotonic() - started < 15.0

    def test_zero_wait_is_immediate_409_while_running(self, server, client):
        release = _hold_worker(server.service)
        try:
            submission = client.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                client.result(submission["job_id"])
            assert excinfo.value.status == 409
        finally:
            release.set()

    def test_invalid_wait_value_is_400(self, server, client):
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        client.wait(submission["job_id"], timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{submission['job_id']}/result?wait=banana")
        assert excinfo.value.status == 400


class TestSubmitAndWait:
    """``POST /jobs?wait=N``: submit and long-poll in one request."""

    def test_settled_job_answers_200_with_the_verdict(self, server):
        status, payload = _post_jobs(server, "?wait=20")
        assert status == 200
        assert payload["criterion"] == "equivalent"
        job_id = payload.pop("job_id")
        assert payload == server.service.job_result(job_id)

    def test_expired_wait_answers_202_with_the_job_id(self, server, client):
        release = _hold_worker(server.service)
        try:
            started = time.monotonic()
            status, payload = _post_jobs(server, "?wait=0.3")
            assert time.monotonic() - started >= 0.3
            assert status == 202
            assert set(payload) == {"job_id", "fingerprint", "coalesced"}
            assert payload["coalesced"] is False
        finally:
            release.set()
        verdict = client.wait(payload["job_id"], timeout=30.0)
        assert verdict["criterion"] == "equivalent"

    @pytest.mark.parametrize("wait", ["banana", "-1", "nan"])
    def test_invalid_wait_is_400_and_queues_nothing(self, server, wait):
        status, payload = _post_jobs(server, f"?wait={wait}")
        assert status == 400
        assert "invalid wait value" in payload["error"]
        assert server.service.stats()["submitted"] == 0

    def test_failed_job_answers_500(self):
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1), job_retries=0
        )

        def crash(first, second, **kwargs):
            raise RuntimeError("checker crashed")

        server.service.manager.run = crash
        server.start_background()
        try:
            status, payload = _post_jobs(server, "?wait=20")
            assert status == 500
            assert "failed: RuntimeError: checker crashed" in payload["error"]
        finally:
            server.close()

    def test_plain_post_still_answers_202_for_a_cached_pair(self, server, client):
        client.verify(ghz_ladder(2), ghz_ladder(2), timeout=30.0)
        status, payload = _post_jobs(server, "")
        assert status == 202
        assert set(payload) == {"job_id", "fingerprint", "coalesced"}


class TestKeepAlive:
    def test_verifies_from_one_thread_share_one_connection(self):
        server, accepted = _server_counting_connections()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            for size in (2, 3, 2, 3, 2):
                client.verify(ghz_ladder(size), ghz_ladder(size), timeout=30.0)
            client.health()
            assert len(accepted) == 1
            # Each thread has its own connection.
            worker = threading.Thread(target=client.health)
            worker.start()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert len(accepted) == 2
        finally:
            server.close()

    def test_client_reconnects_after_the_server_drops_an_idle_connection(
        self, monkeypatch
    ):
        monkeypatch.setattr(aserver, "_KEEPALIVE_TIMEOUT", 0.2)
        server, accepted = _server_counting_connections()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            client.health()
            time.sleep(0.6)  # the server closes the idle connection
            payload = client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            assert payload["criterion"] == "equivalent"
            assert len(accepted) == 2
            assert client.retries_performed == 0
        finally:
            server.close()

    def test_only_plain_http_urls_are_accepted(self):
        with pytest.raises(ValueError, match="plain HTTP"):
            VerificationClient("https://127.0.0.1:8111")

    def test_unreachable_server_is_503(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        client = VerificationClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 503
        assert "cannot reach verification server" in str(excinfo.value)

    @pytest.mark.usefixtures("wait_closed_waits_for_connections")
    def test_shutdown_with_idle_connections_logs_no_error(self, caplog):
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        server.start_background()
        client = VerificationClient(server.url, timeout=10.0)
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        idle = threading.Thread(target=client.health)
        idle.start()
        idle.join(timeout=10.0)
        assert not idle.is_alive()
        started = time.monotonic()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            server.close()
        # The client's connection is still open: shutdown must end it, not
        # wait out the keep-alive timeout.
        assert time.monotonic() - started < 5.0
        assert not server._thread.is_alive()
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ] == []


    @pytest.mark.usefixtures("wait_closed_waits_for_connections")
    def test_shutdown_ends_a_parked_long_poll(self):
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            outcome = []
            client = VerificationClient(server.url, timeout=10.0)

            def parked():
                try:
                    outcome.append(client.submit(ghz_ladder(3), ghz_ladder(3), wait=30.0))
                except ServiceError as error:
                    outcome.append(error.status)

            thread = threading.Thread(target=parked)
            thread.start()
            deadline = time.monotonic() + 10.0
            while not server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 5.0
            assert not server._thread.is_alive()
            thread.join(timeout=10.0)
            assert outcome == [503]
        finally:
            release.set()


class TestBackpressure:
    def test_saturated_queue_answers_429_with_retry_after(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            queue_limit=1,
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            client = VerificationClient(server.url, timeout=10.0)
            accepted = client.submit(ghz_ladder(3), ghz_ladder(3))
            assert accepted["coalesced"] is False
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            # Coalescing duplicates consume no queue slot, so they are
            # accepted even at the high-water mark.
            duplicate = client.submit(ghz_ladder(3), ghz_ladder(3))
            assert duplicate["coalesced"] is True
            assert duplicate["job_id"] == accepted["job_id"]
            release.set()
            payload = client.wait(accepted["job_id"], timeout=30.0)
            assert payload["criterion"] == "equivalent"
            # The queue drained: the previously rejected pair is accepted now.
            assert client.submit(ghz_ladder(4), ghz_ladder(4))["job_id"]
            assert client.stats()["rejected"] == 1
        finally:
            release.set()
            server.close()

    def test_jobs_table_stays_bounded_under_saturating_load(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            queue_limit=2,
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            client = VerificationClient(server.url, timeout=10.0)
            outcomes = {"accepted": 0, "rejected": 0}
            for size in range(2, 14):  # twelve distinct pairs against limit 2
                try:
                    client.submit(ghz_ladder(size), ghz_ladder(size))
                    outcomes["accepted"] += 1
                except ServiceError as error:
                    assert error.status == 429
                    assert error.retry_after is not None
                    outcomes["rejected"] += 1
            assert outcomes["accepted"] == 2
            assert outcomes["rejected"] == 10
            assert server.service.queue_depth() <= 2
        finally:
            release.set()
            server.close()


class TestRateLimit:
    def test_token_bucket_rejects_burst_overflow(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2),
            rate_limit=0.5,
            rate_burst=2,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            client.submit(ghz_ladder(2), ghz_ladder(2))
            client.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            # GETs are not rate limited: the client can still collect.
            assert client.stats()["submitted"] == 2
        finally:
            server.close()


class TestPrunedJobs:
    def test_pruned_job_result_served_from_cache(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            max_finished_jobs=1,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            first = client.submit(ghz_ladder(3), ghz_ladder(3))
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit(ghz_ladder(4), ghz_ladder(4))
            client.wait(second["job_id"], timeout=30.0)
            # first settled job is pruned (retention=1) but its verdict is
            # still served, flagged as coming from the cache.
            payload = client.result(first["job_id"])
            assert payload["criterion"] == "equivalent"
            assert payload["served_from"] == "verdict_cache"
            with pytest.raises(ServiceError) as excinfo:
                client.status(first["job_id"])
            assert excinfo.value.status == 410
        finally:
            server.close()

    def test_pruned_and_uncached_job_is_a_distinguishable_410(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            max_finished_jobs=1,
            cache=False,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            first = client.submit(ghz_ladder(3), ghz_ladder(3))
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit(ghz_ladder(4), ghz_ladder(4))
            client.wait(second["job_id"], timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                client.wait(first["job_id"], timeout=5.0)
            assert excinfo.value.status == 410
            assert "resubmit" in str(excinfo.value)
        finally:
            server.close()


class TestConcurrency:
    def test_concurrent_identical_submissions_coalesce_to_one_job(self):
        # The leader's first checker sleeps, so the job is still in flight
        # when the other five identical submissions arrive; without the hold
        # a fast verdict can finish first and the followers queue fresh jobs.
        hold = FaultPlan(rules=(FaultRule(site="checker", action="sleep", delay=1.0),))
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2, fault_plan=hold),
        )
        server.start_background()
        barrier = threading.Barrier(6)
        results: list[dict] = []
        lock = threading.Lock()

        def submit():
            worker_client = VerificationClient(server.url, timeout=10.0)
            barrier.wait(timeout=10)
            submission = worker_client.submit(ghz_ladder(5), ghz_ladder(5))
            with lock:
                results.append(submission)

        try:
            threads = [threading.Thread(target=submit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            server.close()
        assert len(results) == 6
        job_ids = {submission["job_id"] for submission in results}
        fresh = [s for s in results if not s["coalesced"]]
        assert len(job_ids) == 1
        assert len(fresh) == 1


class TestMetricsEndpoint:
    REQUIRED_FAMILIES = (
        "repro_service_queue_depth",
        "repro_service_submissions_total",
        "repro_service_coalesced_total",
        "repro_verdict_cache_hit_ratio",
        "repro_checker_latency_seconds",
        "repro_canonical_fingerprints_total",
    )

    @staticmethod
    def _assert_parseable_prometheus(text: str) -> dict[str, str]:
        """Minimal format check: TYPE lines agree with sample lines."""
        types: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                types[name] = kind
            elif line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                float(value)  # every sample value must parse
                assert series
        return types

    def test_metrics_cover_required_families(self, client):
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        types = self._assert_parseable_prometheus(client.metrics())
        for family in self.REQUIRED_FAMILIES:
            assert family in types, f"missing metric family {family}"
        assert types["repro_checker_latency_seconds"] == "histogram"

    def test_http_requests_are_counted_by_backend_method_and_status(self, client):
        client.health()
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")
        text = client.metrics()
        types = self._assert_parseable_prometheus(text)
        assert types["repro_http_requests_total"] == "counter"
        for status in ("200", "404"):
            series = (
                f'repro_http_requests_total{{backend="async", method="GET", '
                f'status="{status}"}} 1'
            )
            assert series in text.splitlines()
