"""Socket-level tests: the asyncio HTTP front end end to end.

The ``server`` fixture runs the real server on an ephemeral port; tests
talk to it with :mod:`http.client` over real TCP connections, so request
framing, keep-alive, error paths and the coalescing visible on ``/stats``
are exercised exactly as a client would see them.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest


def test_healthz_and_stats_shape(server):
    status, _, body = server.request("GET", "/healthz")
    assert status == 200
    assert body == {"status": "ok", "indexes": {"default": "ok"}}

    status, _, stats = server.request("GET", "/stats")
    assert status == 200
    assert stats["config"]["batch_window_ms"] == 2.0
    assert "/healthz" in stats["endpoints"]
    assert stats["indexes"]["default"]["status"] == "ok"
    assert stats["indexes"]["default"]["load_mode"] == "mmap"


def test_query_over_http_matches_direct_query(server, saved_index):
    query = saved_index.dataset[0]
    status, _, body = server.request("POST", "/query", {"query": sorted(query)})
    assert status == 200
    expected_match, expected_stats = saved_index.index.query(query)
    assert body["match"] == expected_match
    assert body["found"] == expected_stats.found
    assert body["stats"]["found"] == expected_stats.found


def test_concurrent_clients_coalesce_and_results_match(server, saved_index):
    """Many independent connections: every result must be bit-identical to
    an un-coalesced query, and /stats must show that coalescing happened."""
    queries = [saved_index.dataset[i % len(saved_index.dataset)] for i in range(64)]

    def one(query):
        return server.request("POST", "/query", {"query": sorted(query)})

    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        responses = list(pool.map(one, queries))

    for query, (status, _, body) in zip(queries, responses):
        assert status == 200
        assert body["match"] == saved_index.index.query(query)[0]

    _, _, stats = server.request("GET", "/stats")
    entry = stats["indexes"]["default"]
    assert entry["queries_executed"] >= 64
    assert entry["coalesced_calls"] >= 1, "a 16-client burst must coalesce"
    assert entry["mean_batch_occupancy"] > 1.0
    assert entry["engine_calls"] < 64
    latency = stats["endpoints"]["/query"]["latency"]
    assert latency["count"] >= 64
    assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]


def test_bad_query_fails_alone_in_a_coalesced_burst(make_server, saved_index):
    """One out-of-universe query among ten valid concurrent ones gets its own
    400; the ten others get 200s bit-identical to running each alone."""
    harness = make_server(batch_window_ms=50.0, max_batch_queries=64)
    queries = [sorted(query) for query in saved_index.dataset[:10]]
    alone = [harness.request("POST", "/query", {"query": query}) for query in queries]
    payloads = [{"query": query} for query in queries]
    payloads.insert(5, {"query": [1, 1000000]})

    with concurrent.futures.ThreadPoolExecutor(max_workers=len(payloads)) as pool:
        responses = list(
            pool.map(lambda payload: harness.request("POST", "/query", payload), payloads)
        )

    bad_status, _, bad_body = responses.pop(5)
    assert bad_status == 400
    assert "outside the universe" in bad_body["error"]
    for (status, _, body), (alone_status, _, alone_body) in zip(responses, alone):
        assert status == alone_status == 200
        assert body == alone_body
    _, _, stats = harness.request("GET", "/stats")
    assert stats["indexes"]["default"]["coalesced_calls"] >= 1


def test_query_batch_and_similarity_join_over_http(server, saved_index):
    queries = [sorted(q) for q in saved_index.dataset[:6]]
    status, _, body = server.request(
        "POST", "/query-batch", {"queries": queries, "mode": "best"}
    )
    assert status == 200
    assert len(body["results"]) == 6
    assert len(body["stats"]["per_query"]) == 6

    status, _, body = server.request(
        "POST", "/similarity-join", {"probes": queries[:3], "threshold": 0.7}
    )
    assert status == 200
    assert body["num_probes"] == 3
    assert isinstance(body["pairs"], list)


def test_keep_alive_reuses_one_connection(server, saved_index):
    conn = server.connect()
    try:
        for i in range(3):
            status, headers, _ = server.request(
                "POST",
                "/query",
                {"query": sorted(saved_index.dataset[i])},
                connection=conn,
            )
            assert status == 200
            assert headers["connection"] == "keep-alive"
    finally:
        conn.close()


def test_http_error_statuses(server):
    status, _, _ = server.request("POST", "/does-not-exist", {})
    assert status == 404

    status, headers, _ = server.request("GET", "/query")
    assert status == 405
    assert headers["allow"] == "POST"

    status, _, _ = server.request("POST", "/healthz", {})
    assert status == 405

    conn = server.connect()
    try:
        conn.request(
            "POST", "/query", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        assert conn.getresponse().status == 400
    finally:
        conn.close()

    status, _, body = server.request("POST", "/query", {"query": "nope"})
    assert status == 400
    assert "error" in body

    # A 400 from a bad request must not poison the next request (keep-alive).
    status, _, _ = server.request("GET", "/healthz")
    assert status == 200


def test_oversized_body_gets_413(make_server):
    harness = make_server(max_body_bytes=1024)
    big = {"query": list(range(2000))}
    status, _, body = harness.request("POST", "/query", big)
    assert status == 413
    assert "exceeds" in body["error"]


def test_malformed_request_line_gets_400_and_close(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as raw:
        raw.sendall(b"NONSENSE\r\n\r\n")
        data = raw.recv(65536)
    assert data.startswith(b"HTTP/1.1 400 ")


def test_shed_request_gets_429_over_http(make_server, saved_index):
    """Saturate a max_pending_queries=1 server and assert at least one 429
    with an integer Retry-After while every 200 is still a correct answer."""
    harness = make_server(batch_window_ms=0.0, max_pending_queries=1)
    queries = [saved_index.dataset[i % 50] for i in range(200)]

    def one(query):
        return harness.request("POST", "/query", {"query": sorted(query)})

    with concurrent.futures.ThreadPoolExecutor(max_workers=32) as pool:
        responses = list(pool.map(one, queries))

    statuses = [status for status, _, _ in responses]
    assert set(statuses) <= {200, 429}
    assert 429 in statuses, "32 clients against max_pending=1 must shed"
    for status, headers, body in responses:
        if status == 429:
            assert int(headers["retry-after"]) >= 1
            assert body["retry_after_seconds"] > 0
            assert "match" not in body, "shed responses carry no partial result"
        else:
            assert body["found"] in (True, False)


def test_cli_serve_subprocess_end_to_end(saved_index):
    """`python -m repro serve` comes up, answers queries, and dies cleanly."""
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = repo_src + (os.pathsep + existing if existing else "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(saved_index.path),
            "--port",
            "0",
            "--batch-window-ms",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        ready_line = process.stdout.readline()
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", ready_line)
        assert match, f"unexpected startup line: {ready_line!r}"
        port = int(match.group(1))

        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request(
                "POST",
                "/query",
                body=json.dumps({"query": sorted(saved_index.dataset[0])}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            assert body["match"] == saved_index.index.query(saved_index.dataset[0])[0]
        finally:
            conn.close()
    finally:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)


def test_metrics_endpoint_prometheus_text(server, saved_index):
    server.request("POST", "/query", {"query": sorted(saved_index.dataset[0])})

    conn = server.connect()
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        assert response.status == 200
        assert response.getheader("Content-Type", "").startswith("text/plain")
        assert 'repro_requests_total{endpoint="/query"} 1' in body
        assert 'repro_index_up{index="default"} 1' in body
        assert 'repro_engine_queries_total{index="default"} 1' in body
        assert "# TYPE repro_uptime_seconds gauge" in body
        assert "# TYPE repro_kernel_ops_total counter" in body
        assert 'repro_kernel_ops_total{index="default",stage="paths_extended"}' in body
        assert 'repro_kernel_ops_total{index="default",stage="dedupe_hits"}' in body
        # The scrape itself is JSON-free: every line is a comment or sample.
        assert not body.lstrip().startswith("{")
    finally:
        conn.close()

    # The scrape is measured like any other endpoint.
    _, _, stats = server.request("GET", "/stats")
    assert stats["endpoints"]["/metrics"]["requests"] >= 1


def test_metrics_rejects_post(server):
    status, headers, _ = server.request("POST", "/metrics", {})
    assert status == 405
    assert headers["allow"] == "GET"


def _spawn_serve(saved_index, *extra_args):
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = repo_src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(saved_index.path),
            "--port",
            "0",
            "--batch-window-ms",
            "1",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def test_sigterm_drains_and_exits_zero(saved_index):
    """SIGTERM: in-flight work finishes, the drain is logged, exit code 0."""
    import http.client
    import signal as signal_module

    process = _spawn_serve(saved_index)
    try:
        ready_line = process.stdout.readline()
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", ready_line)
        assert match, f"unexpected startup line: {ready_line!r}"
        port = int(match.group(1))

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request(
                "POST",
                "/query",
                body=json.dumps({"query": sorted(saved_index.dataset[0])}),
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 200
        finally:
            conn.close()

        process.send_signal(signal_module.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, f"exit {process.returncode}: {output!r}"
        assert "shutting down (drained)" in output

        # The socket is really gone.
        with pytest.raises(OSError):
            probe = socket.create_connection(("127.0.0.1", port), timeout=1)
            probe.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
