"""Tests for :class:`QueryService` — the transport-independent core.

The service is driven directly (no socket), which makes the guarantees
easy to state exactly: coalesced results are bit-identical to un-coalesced
``query`` calls, shed requests map to 429 with a Retry-After hint, and
``/healthz`` flips to 503 for exactly the duration of a reload.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve import ApiError, IndexSpec, Overloaded, QueryService, ServeConfig
from repro.serve.service import _ServedIndex


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


def make_service(saved_index, **config_kwargs) -> QueryService:
    defaults = dict(port=0, batch_window_ms=2.0, max_batch_queries=64)
    defaults.update(config_kwargs)
    return QueryService(
        [IndexSpec(name="default", path=str(saved_index.path))],
        ServeConfig(**defaults),
    )


def test_concurrent_queries_bit_identical_to_uncoalesced(saved_index):
    """Coalesced answers equal ``index.query`` run one query at a time."""
    queries = saved_index.dataset[:40]

    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            payloads = await asyncio.gather(
                *(service.query({"query": sorted(query)}) for query in queries)
            )
        finally:
            await service.close()
        return payloads

    payloads = run(body())
    for query, payload in zip(queries, payloads):
        expected_match, expected_stats = saved_index.index.query(query)
        assert payload["match"] == expected_match
        assert payload["found"] == expected_stats.found
    # The burst arrived concurrently, so at least some of it coalesced.
    assert len(payloads) == len(queries)


def test_query_batch_matches_individual_queries(saved_index):
    queries = saved_index.dataset[:10]

    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            payload = await service.query_batch(
                {"queries": [sorted(query) for query in queries], "mode": "best"}
            )
        finally:
            await service.close()
        return payload

    payload = run(body())
    assert len(payload["results"]) == len(queries)
    for query, match in zip(queries, payload["results"]):
        assert match == saved_index.index.query(query, mode="best")[0]
    assert payload["num_found"] == sum(
        1 for query in queries if saved_index.index.query(query, mode="best")[1].found
    )


def test_shed_request_gets_429_with_retry_after(saved_index):
    """An overloaded index answers 429 + Retry-After and never executes."""

    async def body():
        gate = threading.Event()
        service = make_service(saved_index, batch_window_ms=0.0, max_pending_queries=1)
        await service.start()
        served = service._indexes["default"]
        real_run_batch = served.batcher._run_batch
        executed: list[list[frozenset[int]]] = []

        def gated_run_batch(queries, mode, allow_partial=False, deadline=None):
            assert gate.wait(timeout=60)
            executed.append(list(queries))
            return real_run_batch(queries, mode, allow_partial, deadline)

        served.batcher._run_batch = gated_run_batch
        try:
            first = served.batcher.submit([saved_index.dataset[0]])
            with pytest.raises(ApiError) as excinfo:
                await service.query({"query": sorted(saved_index.dataset[1])})
            gate.set()
            await first
        finally:
            await service.close()
        return excinfo.value, executed

    error, executed = run(body())
    assert error.status == 429
    assert int(error.headers["Retry-After"]) >= 1
    # The shed query never reached the engine: no partial results.
    assert executed == [[saved_index.dataset[0]]]


def test_configured_retry_after_overrides_estimate(saved_index):
    async def body():
        service = make_service(saved_index, retry_after_seconds=7.0)
        await service.start()
        try:
            error = service._shed(Overloaded("busy", retry_after_seconds=0.2))
        finally:
            await service.close()
        return error

    error = run(body())
    assert error.status == 429
    assert error.headers["Retry-After"] == "7"


def test_healthz_flips_to_503_during_reload(saved_index, monkeypatch):
    """While a reload is loading, health is 503 and queries are shed; after
    it completes, health recovers and the reload is counted."""

    during: dict[str, object] = {}

    async def body():
        hold = threading.Event()
        release = threading.Event()
        real_load_sync = _ServedIndex.load_sync

        def slow_load_sync(self):
            hold.set()
            assert release.wait(timeout=60)
            return real_load_sync(self)

        service = make_service(saved_index)
        await service.start()
        before_status, _ = service.healthz()
        monkeypatch.setattr(_ServedIndex, "load_sync", slow_load_sync)
        try:
            reload_task = asyncio.create_task(service.reload({}))
            await asyncio.get_running_loop().run_in_executor(None, hold.wait, 60)
            during["healthz"] = service.healthz()
            try:
                await service.query({"query": sorted(saved_index.dataset[0])})
                during["query_error"] = None
            except ApiError as error:
                during["query_error"] = error
            release.set()
            reload_payload = await reload_task
            after_status, after_body = service.healthz()
        finally:
            release.set()
            await service.close()
        return before_status, reload_payload, after_status, after_body

    before_status, reload_payload, after_status, after_body = run(body())
    assert before_status == 200
    status, body_during = during["healthz"]
    assert status == 503
    assert body_during["indexes"]["default"] == "reloading"
    query_error = during["query_error"]
    assert query_error is not None and query_error.status == 503
    assert query_error.headers["Retry-After"] == "1"
    assert reload_payload["reloads"] == 1
    assert after_status == 200
    assert after_body["indexes"]["default"] == "ok"


def test_queries_still_answered_after_reload(saved_index):
    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            await service.reload({})
            payload = await service.query({"query": sorted(saved_index.dataset[0])})
        finally:
            await service.close()
        return payload

    payload = run(body())
    expected_match, _ = saved_index.index.query(saved_index.dataset[0])
    assert payload["match"] == expected_match


def test_reload_failure_keeps_old_index_serving(saved_index):
    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            with pytest.raises(ApiError) as excinfo:
                await service.reload({"path": str(saved_index.path) + ".does-not-exist"})
            status_after = service.healthz()[0]
        finally:
            await service.close()
        return excinfo.value, status_after

    error, status_after = run(body())
    assert error.status == 500
    # The failed path sticks in the spec (the operator asked for it), but
    # the old index keeps serving.
    assert status_after == 200


def test_request_validation_errors(saved_index):
    async def body():
        service = make_service(saved_index)
        await service.start()
        errors = {}
        try:
            for name, call in {
                "missing-query": service.query({}),
                "non-integer-query": service.query({"query": ["a"]}),
                "empty-query": service.query({"query": []}),
                "bad-mode": service.query(
                    {"query": [1], "mode": "fastest"}
                ),
                "unknown-index": service.query({"query": [1], "index": "nope"}),
                "bad-batch": service.query_batch({"queries": "nope"}),
                "bad-probes": service.similarity_join_endpoint({"probes": []}),
                "bad-measure": service.similarity_join_endpoint(
                    {"probes": [[1, 2]], "measure": "cosine-ish"}
                ),
            }.items():
                try:
                    await call
                except ApiError as error:
                    errors[name] = error.status
        finally:
            await service.close()
        return errors

    errors = run(body())
    assert errors == {
        "missing-query": 400,
        "non-integer-query": 400,
        "empty-query": 400,
        "bad-mode": 400,
        "unknown-index": 404,
        "bad-batch": 400,
        "bad-probes": 400,
        "bad-measure": 400,
    }


def test_query_items_must_be_integers_in_the_universe(saved_index):
    """Floats, strings, booleans and out-of-universe ids are rejected with a
    400 at the boundary; ``int()`` used to turn ``1.5`` into item 1."""
    dimension = saved_index.index.dimension

    async def body():
        service = make_service(saved_index)
        await service.start()
        errors = {}
        try:
            for name, call in {
                "float": service.query({"query": [1.5]}),
                "string": service.query({"query": ["7"]}),
                "bool": service.query({"query": [True]}),
                "negative": service.query({"query": [-1]}),
                "too-large": service.query({"query": [dimension]}),
                "batch-entry": service.query_batch({"queries": [[1], [1000000]]}),
                "join-probe": service.similarity_join_endpoint({"probes": [[2.0]]}),
            }.items():
                try:
                    await call
                except ApiError as error:
                    errors[name] = error.status
            edge = await service.query({"query": [0, dimension - 1]})
        finally:
            await service.close()
        return errors, edge

    errors, edge = run(body())
    assert errors == {
        "float": 400,
        "string": 400,
        "bool": 400,
        "negative": 400,
        "too-large": 400,
        "batch-entry": 400,
        "join-probe": 400,
    }
    assert edge["match"] == saved_index.index.query([0, dimension - 1])[0]


def test_similarity_join_endpoint_matches_library_call(saved_index):
    from repro.core.join import similarity_join
    from repro.similarity.predicates import SimilarityPredicate

    probes = saved_index.dataset[:8]

    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            payload = await service.similarity_join_endpoint(
                {"probes": [sorted(probe) for probe in probes], "threshold": 0.6}
            )
        finally:
            await service.close()
        return payload

    payload = run(body())
    expected = similarity_join(
        saved_index.index, probes, SimilarityPredicate(threshold=0.6)
    )
    assert payload["num_pairs"] == expected.num_pairs
    assert payload["pairs"] == [[r, s, sim] for r, s, sim in expected.pairs]


def test_stats_shape_and_uptime(saved_index):
    async def body():
        service = make_service(saved_index)
        await service.start()
        try:
            await service.query({"query": sorted(saved_index.dataset[0])})
            payload = service.stats()
        finally:
            await service.close()
        return payload

    payload = run(body())
    assert payload["uptime_seconds"] >= 0
    assert payload["config"]["batch_window_ms"] == 2.0
    entry = payload["indexes"]["default"]
    assert entry["status"] == "ok"
    assert entry["engine_calls"] >= 1
    assert entry["queries_executed"] == 1
    assert entry["engine"]["num_queries"] == 1
    assert "per_query" not in entry["engine"], "/stats must stay bounded"
    kernel = entry["engine"]["kernel"]
    assert set(kernel) == {
        "paths_extended",
        "keys_folded",
        "chain_probes",
        "merge_rows",
        "dedupe_hits",
    }
    assert kernel["paths_extended"] > 0
    assert kernel["merge_rows"] > 0


def test_single_index_service_answers_default_alias(saved_index):
    """A single index named something else still answers index-less requests."""

    async def body():
        service = QueryService(
            [IndexSpec(name="primary", path=str(saved_index.path))],
            ServeConfig(port=0),
        )
        await service.start()
        try:
            payload = await service.query({"query": sorted(saved_index.dataset[0])})
        finally:
            await service.close()
        return payload

    assert run(body())["index"] == "primary"


def test_duplicate_index_names_rejected(saved_index):
    with pytest.raises(ValueError, match="duplicate"):
        QueryService(
            [
                IndexSpec(name="a", path=str(saved_index.path)),
                IndexSpec(name="a", path=str(saved_index.path)),
            ]
        )
    with pytest.raises(ValueError, match="at least one"):
        QueryService([])
