"""End-to-end tests of the asyncio front door over the process pool.

The contract under test: responses canonically identical to in-process
``handle_request``, with trace and ``Server-Timing`` headers; coalesced
followers receive the leader's bytes **verbatim**; admission control sheds
with 503 + ``Retry-After`` before the pool is touched; a client cannot make
a worker fork; a killed worker costs its in-flight request a retriable 503,
never a hang, and is respawned.
"""

import http.client
import json
import os
import signal
import threading

import pytest

from repro.server.bench import canonical_reports, fetch_json, post_analyze
from repro.server.front import ShardedAnalysisServer
from repro.service.api import (
    AnalyzeRequest,
    SuiteSpec,
    canonical_request_key,
    corpus_digest,
    handle_request,
)


def _request(**overrides):
    defaults = dict(suite=SuiteSpec(count=1, max_statements=30), include_timing=False)
    defaults.update(overrides)
    return AnalyzeRequest(**defaults)


def _post_raw(address, payload: bytes, extra_headers=None):
    """POST /analyze and return (status, headers dict, raw body bytes)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"}
        headers.update(extra_headers or {})
        connection.request("POST", "/analyze", body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture
def front(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, queue_depth=16, library_program=library_program
    )
    with server:
        yield server


def test_analyze_matches_inprocess_and_carries_headers(
    front, tiny_store, library_program, interface
):
    request = _request()
    expected = handle_request(
        request, tiny_store, library_program=library_program, interface=interface
    )
    status, headers, raw = _post_raw(
        front.address, json.dumps(request.to_dict()).encode("utf-8")
    )
    assert status == 200
    body = json.loads(raw.decode("utf-8"))
    assert body["spec_id"] == expected.spec_id
    assert canonical_reports(body) == [r.canonical() for r in expected.result.reports]
    assert headers.get("X-Repro-Trace-Id")
    assert "queue;dur=" in headers.get("Server-Timing", "")


def test_client_supplied_trace_id_is_echoed(front):
    status, headers, _raw = _post_raw(
        front.address,
        json.dumps(_request().to_dict()).encode("utf-8"),
        extra_headers={"X-Repro-Trace-Id": "cafecafecafecafe"},
    )
    assert status == 200
    assert headers["X-Repro-Trace-Id"] == "cafecafecafecafe"


def test_get_endpoints_report_the_fleet(front, tiny_store):
    health = fetch_json(front.url, "/healthz")
    assert health["status"] == "ok"
    assert health["processes"] == 1
    assert health["spec_id"] == tiny_store.latest().spec_id
    assert health["active_spec_id"] == health["spec_id"]

    specs = fetch_json(front.url, "/specs")
    assert specs["current"] == health["spec_id"]
    assert len(specs["specs"]) == 1

    metrics = fetch_json(front.url, "/metrics")
    assert metrics["requests"]["total"] >= 0
    assert metrics["workers"] == 1
    assert "coalesced" in metrics["requests"]


def test_metrics_prometheus_exposition(front):
    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/metrics?format=prometheus")
        response = connection.getresponse()
        text = response.read().decode("utf-8")
    finally:
        connection.close()
    assert response.status == 200
    assert "repro_requests_coalesced_total" in text
    assert "repro_admission_rejected_total" in text
    assert "repro_workers 1" in text


def test_bad_json_and_unknown_routes(front):
    status, _headers, raw = _post_raw(front.address, b"{not json")
    assert status == 400
    assert "invalid JSON body" in json.loads(raw)["error"]

    status, _body, _retry = post_analyze(
        front.url, json.dumps({"format": "repro.service.analyze-request/999"}).encode()
    )
    assert status == 400

    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
    finally:
        connection.close()


def test_unknown_pinned_spec_maps_to_404(front):
    status, body, _retry = post_analyze(
        front.url, json.dumps(_request(spec_id="no-such-spec").to_dict()).encode()
    )
    assert status == 404
    assert "unknown spec" in body["error"]


def test_coalesced_followers_get_the_leaders_bytes_verbatim(front):
    """Concurrent identical requests: one pool submission, N identical
    responses.  Byte identity (not just canonical identity) is the claim --
    followers receive the leader's rendered body."""
    payload = json.dumps(_request(include_timing=True).to_dict()).encode("utf-8")
    results = []
    lock = threading.Lock()

    def fire():
        outcome = _post_raw(front.address, payload)
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert [status for status, _h, _b in results] == [200] * 6
    bodies = {raw for _s, _h, raw in results}
    assert len(bodies) == 1  # bit-identical across all six responses
    coalesced = [h for _s, h, _b in results if h.get("X-Repro-Coalesced") == "1"]
    metrics = fetch_json(front.url, "/metrics")
    assert metrics["requests"]["coalesced"] == len(coalesced)
    assert len(coalesced) >= 1
    # exactly one leader went through the pool for this burst
    assert metrics["requests"]["coalesced"] + metrics["analyses"]["batches"] >= 6


def test_admission_control_sheds_at_the_door(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=1,
        library_program=library_program,
        admission_limit=0,  # every analyze request is shed before the pool
    )
    with server:
        status, body, retry_after = post_analyze(
            server.url, json.dumps(_request().to_dict()).encode("utf-8")
        )
        assert status == 503
        assert retry_after == 1.0
        assert "admission limit" in body["error"]
        metrics = fetch_json(server.url, "/metrics")
        assert metrics["requests"]["admission_rejected"] == 1
        assert metrics["requests"]["rejected"] == 1
        # the fleet itself is untouched and healthy
        assert fetch_json(server.url, "/healthz")["status"] == "ok"


def test_hot_reload_through_the_front_door(
    tiny_store, tiny_atlas_result, library_program, wait_until
):
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, poll_interval=0.05, library_program=library_program
    )
    with server:
        old_spec_id = tiny_store.latest().spec_id
        first = fetch_json(server.url, "/healthz")
        assert first["spec_id"] == old_spec_id
        record = tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert wait_until(
            lambda: server.pool.current_spec_id == record.spec_id, timeout=30.0
        )
        status, body, _retry = post_analyze(
            server.url, json.dumps(_request().to_dict()).encode("utf-8")
        )
        assert status == 200
        assert body["spec_id"] == record.spec_id


def test_canonical_request_key_tracks_the_corpus_digest():
    """The cheap request key coalesces exactly when the expensive
    program-digest identity would: same document, same key and digest;
    different seed, different key and digest."""
    a = _request()
    b = _request()
    shifted = _request(suite=SuiteSpec(count=1, max_statements=30, seed=3000))
    assert canonical_request_key(a, "spec-1") == canonical_request_key(b, "spec-1")
    assert corpus_digest(a) == corpus_digest(b)
    assert canonical_request_key(a, "spec-1") != canonical_request_key(shifted, "spec-1")
    assert corpus_digest(a) != corpus_digest(shifted)
    # resolving the spec id into the key separates hot-reload generations
    assert canonical_request_key(a, "spec-1") != canonical_request_key(a, "spec-2")
    # a pinned request keys on its pin, not the currently served spec
    pinned = _request(spec_id="spec-9")
    assert canonical_request_key(pinned, "spec-1") == canonical_request_key(pinned, "spec-2")


def test_client_requested_process_fan_out_is_400(front, monkeypatch):
    """``workers > 1`` would fork a process pool inside a server worker:
    refused at the door, before admission, without touching the pool."""
    submitted = []
    monkeypatch.setattr(front.pool, "submit", lambda *a, **k: submitted.append(a))
    document = _request().to_dict()
    document["workers"] = 8
    status, body, _retry = post_analyze(front.url, json.dumps(document).encode("utf-8"))
    assert status == 400
    assert "repro analyze --workers" in body["error"]
    assert submitted == []


def test_killed_worker_costs_one_retriable_503_then_respawns(front, wait_until):
    """SIGKILL the only worker with a request in flight: that request gets a
    503 + ``Retry-After`` promptly (never a hang), ``/healthz`` reports
    ``degraded`` until the replacement has compiled, and then serving resumes
    -- no permanent ``PoolSaturated`` wedge."""
    pid = front.pool._workers[0].process.pid
    payload = json.dumps(_request().to_dict()).encode("utf-8")
    outcome = []
    os.kill(pid, signal.SIGSTOP)  # holds the request in flight, deterministically
    client = threading.Thread(target=lambda: outcome.append(post_analyze(front.url, payload)))
    client.start()
    assert wait_until(lambda: front.pool.queue_depth == 1)
    os.kill(pid, signal.SIGKILL)
    client.join(timeout=30)
    assert not client.is_alive(), "the in-flight request hung on a dead worker"
    status, body, retry_after = outcome[0]
    assert status == 503 and retry_after is not None
    assert "proc-0" in body["error"]
    assert wait_until(lambda: fetch_json(front.url, "/healthz")["status"] == "degraded")

    assert wait_until(lambda: fetch_json(front.url, "/healthz")["status"] == "ok", timeout=60)
    status, _body, _retry = post_analyze(front.url, payload)
    assert status == 200
    assert front.pool._workers[0].process.pid != pid
    specs = fetch_json(front.url, "/metrics")["specs"]
    assert specs["compilations_by_worker"] == {"proc-0": 2}  # the respawn recompiled


def test_raising_shadow_observer_is_counted_never_served(front, wait_until):
    class RaisingObserver:
        spec_id = front.pool.current_spec_id

        def sample(self):
            return True

        def observe(self, request, served, shadowed):
            raise ValueError("observer bug")

        observe_error = observe

    payload = json.dumps(_request(suite=SuiteSpec(count=1, seed=77)).to_dict()).encode()
    baseline = _post_raw(front.address, payload)
    front.pool.set_shadow(RaisingObserver())
    shadowed = _post_raw(front.address, payload)
    assert shadowed[0] == 200
    # the served answer is untouched (only its wall-clock fields may differ)
    assert canonical_reports(json.loads(shadowed[2])) == canonical_reports(
        json.loads(baseline[2])
    )

    def errors():
        return fetch_json(front.url, "/metrics")["internal_errors"]

    # the mirror lands after the served response; its observer then raises
    assert wait_until(lambda: errors().get("shadow_observer") == 1)
    front.pool.clear_shadow()
    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/metrics?format=prometheus")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    assert 'repro_internal_errors_total{site="shadow_observer"} 1' in text
