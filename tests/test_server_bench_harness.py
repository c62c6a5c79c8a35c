"""The load harness must not lie: latency regression tests against stub servers.

Two bugs these tests pin down (both real, both formerly silent):

* **Retry-latency omission** -- ``run_load`` used to reset its latency clock
  on every retry attempt, so 503 round-trips and ``Retry-After`` sleeps
  vanished from the reported latency and a *saturated* server benchmarked as
  a *fast* one (the coordinated-omission failure mode).  Latency must be
  anchored at the first attempt; the final attempt's service time is a
  separate field.
* **Retry-After thread death** -- ``float(retry_after)`` on a raw HTTP-date
  header raised an uncaught ``ValueError`` past the client loop's
  ``except (URLError, OSError)``, killing the client thread and silently
  abandoning its queued requests: the run reported fewer requests with *no
  error recorded*.

The stub servers here script exact 503-then-200 sequences, so the assertions
are deterministic and need no real analysis work.
"""

import json
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.server.bench import (
    bench_artifact,
    parse_retry_after,
    run_load,
    run_open_load,
    vary_request_seed,
)
from repro.service.api import AnalyzeRequest, SuiteSpec

OK_BODY = json.dumps(
    {
        "format": "repro.service.analyze-response/1",
        "spec_id": "stub-spec",
        "reports": [],
    }
).encode("utf-8")


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers /analyze from a per-server script of (status, retry_after) steps."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)
        with self.server.lock:
            step = self.server.script[min(self.server.calls, len(self.server.script) - 1)]
            self.server.calls += 1
        status, retry_after = step
        body = OK_BODY if status == 200 else b'{"error":"scripted"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.end_headers()
        self.wfile.write(body)


class _ScriptedServer(socketserver.ThreadingMixIn, HTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, script, handler=_ScriptedHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.script = list(script)
        self.calls = 0
        self.lock = threading.Lock()


@pytest.fixture
def scripted_server():
    servers = []

    def start(script):
        server = _ScriptedServer(script)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


REQUEST = AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=30))


# ------------------------------------------------------- Retry-After parsing
def test_parse_retry_after_numeric_and_zero():
    assert parse_retry_after("3") == 3.0
    assert parse_retry_after("0.25") == 0.25
    # an explicit zero is a real hint ("retry now"), distinct from None
    assert parse_retry_after("0") == 0.0
    assert parse_retry_after(None) is None
    assert parse_retry_after("") is None


def test_parse_retry_after_http_date():
    # a date in the past clamps to "retry now" rather than going negative
    assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
    # a garbage header is no hint, not a crash
    assert parse_retry_after("soon-ish") is None
    assert parse_retry_after("-5") == 0.0


# --------------------------------------------- bug 1: retry-latency omission
def test_latency_includes_retry_round_trips_and_sleeps(scripted_server):
    """A 503 + Retry-After sleep is time the client waited; it must be in
    the latency.  The old harness reset its clock per attempt, reporting
    only the final 200's service time."""
    retry_after = 0.3
    url = scripted_server([(503, f"{retry_after}"), (200, None)])
    result = run_load(url, REQUEST, total_requests=1, clients=1)
    assert result.ok == 1
    assert result.retries_after_503 == 1
    # end-to-end latency spans the 503 round-trip plus the scripted sleep...
    assert result.latencies_seconds[0] >= retry_after
    # ...while the final attempt's service time alone stays well under it
    assert result.service_seconds[0] < retry_after
    assert result.attempts == [2]


def test_service_time_equals_latency_without_backpressure(scripted_server):
    url = scripted_server([(200, None)])
    result = run_load(url, REQUEST, total_requests=2, clients=2)
    assert result.ok == 2
    assert result.attempts == [1, 1]
    for latency, service in zip(result.latencies_seconds, result.service_seconds):
        # same anchor when there was no retry: the two may differ only by
        # scheduling noise, never by a hidden wait
        assert abs(latency - service) < 0.05


# ------------------------------------- bug 2: HTTP-date Retry-After handling
def test_http_date_retry_after_does_not_kill_the_client(scripted_server):
    """An HTTP-date Retry-After used to raise ValueError out of the client
    loop: the thread died, its queued requests were abandoned, and the run
    reported fewer requests with no error."""
    url = scripted_server(
        [(503, "Wed, 21 Oct 2015 07:28:00 GMT"), (200, None), (200, None), (200, None)]
    )
    result = run_load(url, REQUEST, total_requests=3, clients=1)
    # every queued request completes -- nothing silently abandoned
    assert result.ok == 3
    assert result.errors == []
    assert result.statuses.get(503) == 1


def test_explicit_zero_retry_after_is_honored(scripted_server):
    """``Retry-After: 0`` means retry immediately; the old harness treated
    0.0 as falsy-missing and slept the 0.1 s default per retry."""
    retries = 4
    url = scripted_server([(503, "0")] * retries + [(200, None)])
    started = time.perf_counter()
    result = run_load(url, REQUEST, total_requests=1, clients=1, max_attempts=10)
    elapsed = time.perf_counter() - started
    assert result.ok == 1
    assert result.retries_after_503 == retries
    # four default 0.1 s sleeps would alone take 0.4 s; honoring the explicit
    # zero keeps the whole run to loopback round-trips
    assert elapsed < 0.3


# -------------------------------------------------------- open-loop harness
def test_open_loop_measures_from_intended_send(scripted_server):
    url = scripted_server([(200, None)])
    result = run_open_load(url, REQUEST, total_requests=5, rate_rps=50.0)
    assert result.ok == 5
    assert result.mode == "open"
    assert result.target_rps == 50.0
    assert len(result.send_lateness_seconds) == 5
    assert all(lateness < 0.5 for lateness in result.send_lateness_seconds)


def test_open_loop_latency_includes_server_backlog(scripted_server):
    """When the server falls behind the schedule, later arrivals must show
    the backlog: with every response held ~0.15 s and arrivals every 10 ms,
    request 4's latency is several service times, not one."""
    hold = 0.15

    class _SlowHandler(_ScriptedHandler):
        def do_POST(self):  # noqa: N802 - stdlib naming
            time.sleep(hold)
            super().do_POST()

    server = _ScriptedServer([(200, None)], handler=_SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        result = run_open_load(url, REQUEST, total_requests=4, rate_rps=100.0)
        assert result.ok == 4
        # every latency is at least the hold; anchored at intended send they
        # are all comparable even though dispatches overlapped
        assert min(result.latencies_seconds) >= hold * 0.9
    finally:
        server.shutdown()
        server.server_close()


def test_vary_request_seed_changes_only_the_seed():
    varied = vary_request_seed(REQUEST, 7)
    assert varied.suite.seed == REQUEST.suite.seed + 7
    assert varied.suite.count == REQUEST.suite.count
    assert varied.spec_id == REQUEST.spec_id


# ------------------------------------------------------------- the artifact
def test_bench_artifact_carries_mode_and_service_breakdown(scripted_server):
    url = scripted_server([(503, "0"), (200, None)])
    result = run_open_load(url, REQUEST, total_requests=3, rate_rps=30.0)
    artifact = bench_artifact(result, REQUEST, meta={"note": "stub"})
    assert artifact["format"] == "repro.bench.serve/1"
    assert artifact["load"]["mode"] == "open"
    assert artifact["load"]["target_rps"] == 30.0
    assert artifact["service_seconds"]["count"] == result.ok
    assert artifact["attempts"]["max"] >= 1
    assert artifact["meta"] == {"note": "stub"}
