"""Open-loop HTTP load generator for ``repro serve`` (single asyncio process).

The arrival schedule is fixed before any request is sent: Poisson arrivals
at a given rate, each one a ``/query`` single or (about one in nine) a
``/query-batch`` of 16, with queries drawn from the pool by a Zipf-like
popularity so that some queries repeat (``repeat_share`` measures how many).  A dispatcher releases each request
at its due time onto a FIFO that at most ``connections`` keep-alive
connections drain, one request in flight per connection (the server does
not pipeline).  Latency runs from the request's *due* time, so time spent
waiting for a free connection counts: a slow server cannot slow the
arrivals down and hide its queue (no coordinated omission).

A 429, any 5xx (504 included), a malformed response and a client timeout
all count as failed; 429 additionally counts as shed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

BATCH_QUERIES = 16
SINGLES_PER_BATCH = 8
#: Exponent of the Zipf-like query popularity.  An assumption, not taken
#: from a measured query log: 0.5 gives a mild skew in which roughly a
#: third of a nominal run's query ids repeat an earlier one (the run
#: reports the measured share).
ZIPF_EXPONENT = 0.5
CLIENT_TIMEOUT_S = 10.0


@dataclass
class Request:
    due: float
    op: str  # "query" or "batch"
    query_ids: list[int]
    body: bytes


@dataclass
class Outcome:
    request: Request
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0  # HTTP status; 0 = timeout / connection failure
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.request.due) * 1e3

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class RunResult:
    outcomes: list[Outcome]
    lag_ms: list[float] = field(default_factory=list)
    #: Requests due but not yet sent at the last due time.
    backlog_at_end: int = 0
    wall_s: float = 0.0

    @classmethod
    def merge(cls, runs: Sequence["RunResult"]) -> "RunResult":
        """One result over several runs (outcomes and lags pooled)."""
        return cls(
            [o for run in runs for o in run.outcomes],
            [lag for run in runs for lag in run.lag_ms],
            max(run.backlog_at_end for run in runs),
            sum(run.wall_s for run in runs),
        )

    def of(self, op: str) -> list[Outcome]:
        return [o for o in self.outcomes if o.request.op == op]

    def counts(self, op: str) -> dict[str, int]:
        rows = self.of(op)
        return {
            "attempted": len(rows),
            "succeeded": sum(o.ok for o in rows),
            "failed": sum(not o.ok for o in rows),
            "shed": sum(o.status == 429 for o in rows),
        }


def repeat_share(run: RunResult) -> float:
    """Share of the query ids a run sent that repeat an earlier one of the run."""
    ids = [i for outcome in run.outcomes for i in outcome.request.query_ids]
    return 1.0 - len(set(ids)) / len(ids) if ids else 0.0


def query_body(query: frozenset[int]) -> bytes:
    return json.dumps({"query": sorted(query)}).encode()


def batch_body(queries: Sequence[frozenset[int]]) -> bytes:
    return json.dumps({"queries": [sorted(q) for q in queries]}).encode()


def popularity(pool_size: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like query popularity over a seeded permutation of the pool."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    permuted = np.empty(pool_size)
    permuted[rng.permutation(pool_size)] = weights
    return permuted


def make_schedule(
    pool: Sequence[frozenset[int]],
    rate: float,
    duration_s: float,
    rng: np.random.Generator,
    weights: np.ndarray,
) -> list[Request]:
    """A seeded open-loop schedule over ``duration_s`` at ``rate`` req/s.

    Arrival gaps are exponential; every ninth request is a batch, so the
    mix itself does not vary between seeds.
    """
    requests: list[Request] = []
    now = float(rng.exponential(1.0 / rate))
    while now < duration_s:
        if len(requests) % (SINGLES_PER_BATCH + 1) == SINGLES_PER_BATCH:
            ids = [int(i) for i in rng.choice(len(pool), BATCH_QUERIES, p=weights)]
            requests.append(Request(now, "batch", ids, batch_body([pool[i] for i in ids])))
        else:
            qid = int(rng.choice(len(pool), p=weights))
            requests.append(Request(now, "query", [qid], query_body(pool[qid])))
        now += float(rng.exponential(1.0 / rate))
    return requests


class _Connection:
    """One keep-alive HTTP/1.1 connection with minimal response parsing."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        assert self.reader is not None
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        payload = await self.reader.readexactly(length)
        if close:
            self.close()
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def _run(
    host: str, port: int, requests: Sequence[Request], connections: int, timeout_s: float
) -> RunResult:
    queue: asyncio.Queue[Outcome | None] = asyncio.Queue()
    outcomes = [Outcome(request) for request in requests]
    lag_ms: list[float] = []
    start = time.perf_counter()

    async def connection_loop() -> None:
        connection = _Connection(host, port)
        try:
            while True:
                outcome = await queue.get()
                if outcome is None:
                    return
                path = "/query" if outcome.request.op == "query" else "/query-batch"
                outcome.sent = time.perf_counter() - start
                try:
                    outcome.status, outcome.body = await asyncio.wait_for(
                        connection.request(path, outcome.request.body), timeout_s
                    )
                except (asyncio.TimeoutError, OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError, ConnectionError):
                    outcome.status = 0
                    connection.close()
                outcome.done = time.perf_counter() - start
        finally:
            connection.close()

    workers = [asyncio.ensure_future(connection_loop()) for _ in range(connections)]
    for outcome in outcomes:
        delay = outcome.request.due - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        lag_ms.append((time.perf_counter() - start - outcome.request.due) * 1e3)
        queue.put_nowait(outcome)
    # Due but still waiting for a free connection at the last due time.
    backlog = queue.qsize()
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return RunResult(outcomes, lag_ms, backlog, time.perf_counter() - start)


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    timeout_s: float = CLIENT_TIMEOUT_S,
) -> RunResult:
    """Replay ``requests`` at their due times and time each one."""
    return asyncio.run(_run(host, port, requests, connections, timeout_s))


async def _closed(
    host: str, port: int, path: str, bodies: Sequence[bytes], connections: int
) -> tuple[float, list[tuple[int, bytes]]]:
    queue: asyncio.Queue[int] = asyncio.Queue()
    for i in range(len(bodies)):
        queue.put_nowait(i)
    replies: list[tuple[int, bytes]] = [(0, b"")] * len(bodies)

    async def loop() -> None:
        connection = _Connection(host, port)
        try:
            while not queue.empty():
                i = queue.get_nowait()
                try:
                    replies[i] = await asyncio.wait_for(
                        connection.request(path, bodies[i]), CLIENT_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError, ConnectionError):
                    connection.close()
        finally:
            connection.close()

    start = time.perf_counter()
    await asyncio.gather(*(loop() for _ in range(connections)))
    return time.perf_counter() - start, replies


def run_closed_loop(
    host: str, port: int, path: str, bodies: Sequence[bytes], connections: int
) -> tuple[float, list[tuple[int, bytes]]]:
    """Send every body as fast as ``connections`` connections allow."""
    return asyncio.run(_closed(host, port, path, bodies, connections))


def get_json(host: str, port: int, path: str, timeout_s: float = 10.0) -> Any:
    """One ``GET`` (``/stats``, ``/healthz``) decoded as JSON."""

    async def fetch() -> Any:
        reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout_s)
        try:
            writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout_s)
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b"\r\n", 1)[0].split()[1])
        return status, json.loads(body) if body else None

    return asyncio.run(fetch())
