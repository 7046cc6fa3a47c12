"""``online-mmap`` and ``online-routed``: ``repro serve`` under HTTP traffic.

The served index is built in-process from the seed and saved as v3
(untimed), then served by a ``repro serve --load-mode mmap`` subprocess, with
``--shard-procs 2`` (spawn transport) for ``online-routed``.  Everything
else is a shipped default.

``setup_s`` is the median over three launches of the time from starting
the server process to its first correct ``/query`` answer.  The third
server then gets:

* one isolated ``/query-batch`` of a fixed sample, whose answers and work
  counters (the ``/stats`` difference) must equal the in-process mmap
  batch's;
* ``ROUNDS`` rounds of: closed-loop bursts of ``/query`` singles, 16-query
  ``/query-batch`` requests and ``/similarity-join``, each burst on fresh
  queries never sent before in the run, with their answers checked against
  the in-process mmap index (``single_qps``, ``batch_qps``, ``join_qps``:
  medians over the rounds; the first bursts also warm the server up), an
  open-loop slice at the workload's fixed nominal rate over the Zipf-popular
  query pool (pooled into the ``/query`` and ``/query-batch`` latency
  percentiles; every answer is verified exactly and the planted ones give
  ``recall``), and ``PROBES_PER_ROUND`` probes of the capacity staircase
  that gives ``max_ok_rps`` (see ``CapacitySearch``).

There is no served write path, so ``update_ops_s`` is the offline update
mix on a RAM-loaded copy of the served index: ``UPDATE_BLOCKS`` blocks in
each round, run in-process while the server idles.  ``rss_mb`` is the peak
RSS of the server plus its workers.

As offline, the bursts, the nominal slices and the update blocks sit
between readings of the host-speed gauge (``gauge.py``), taken in this
process while the server idles: a burst's rate is multiplied by its
slowdown, a slice's latencies are divided by it, and a capacity probe's
passing rate is multiplied by it (see ``CapacitySearch``).  ``setup_s`` is
not scaled.  The report keeps the unscaled figures.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from perfbench import common, loadgen, offline
from perfbench.common import Workload, require
from perfbench.gauge import Gauge

HOST = "127.0.0.1"
#: Fixed offered load per workload (requests per second, singles plus
#: batches): about a third of the highest rate at which the commit that
#: added this benchmark keeps /query p99 within the limit on a 2-core host.
#: At half of it the tail percentiles swung with the host's speed from run
#: to run.
NOMINAL_RATE = {"online-mmap": 35.0, "online-routed": 15.0}
SHARD_PROCS = {"online-mmap": None, "online-routed": 2}
LAUNCHES = 3
SAMPLE = 256
#: Fresh queries in each round's closed-loop bursts.
BURST_SINGLES = 64
BURST_BATCHES = 16
JOIN_PROBES = 256
#: Shares of ``--seconds``: nominal traffic and capacity search.
SHARES = {"nominal": 0.75, "ladder": 0.25}
#: Update-mix blocks per round (a fixed amount of work, not a time share).
UPDATE_BLOCKS = 1
#: ``QueryStream`` key of the bursts (the update mix uses offline's key).
BURST_STREAM = 3
#: Rounds of (closed-loop bursts, nominal slice, capacity probes, update mix).
ROUNDS = 4
PROBES_PER_ROUND = 2
#: The capacity search's first rung: 81.4 and 50.5 req/s, near the
#: capacity of the commit that added this benchmark on a 2-core host.
START_RUNG = {"online-mmap": 22, "online-routed": 17}
READY_TIMEOUT_S = 60.0


def connections() -> int:
    """Keep-alive connections of the load generator: at most nproc, at most 2."""
    return max(1, min(2, common.usable_cores()))


# ---------------------------------------------------------------------- #
# Index and server lifecycle
# ---------------------------------------------------------------------- #


def served_index(workload: Workload, work: Path) -> Path:
    """Build the seed's index in-process and save it as v3 (untimed)."""
    from repro import save_index

    ram = offline.make_index(workload)
    ram.build(workload.dataset)
    path = work / "served.v3"
    save_index(ram, path)
    return path


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, index: Path, shard_procs: int | None, trace_out: Path | None = None):
        serve = ["serve", str(index), "--host", HOST, "--port", "0", "--load-mode", "mmap"]
        if shard_procs:
            serve += ["--shard-procs", str(shard_procs)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                       str(trace_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(common.ROOT / "src"))
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        assert self.process.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.decode(errors="replace").splitlines():
                    if "listening on http://" in line:
                        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro serve did not become ready: {buffer[-400:]!r}")

    def first_answer(self, query: frozenset[int], expected: int | None) -> float:
        """Seconds from process start to the first correct ``/query`` answer."""
        body = loadgen.query_body(query)
        while True:
            _, replies = loadgen.run_closed_loop(HOST, self.port, "/query", [body], 1)
            status, payload = replies[0]
            if status == 200:
                elapsed = time.perf_counter() - self.started
                answer = json.loads(payload)["match"]
                require(answer == expected, f"first served answer {answer} != {expected}")
                return elapsed
            require(time.perf_counter() - self.started < READY_TIMEOUT_S,
                    f"server never answered /query (status {status})")
            time.sleep(0.01)

    def stats(self) -> dict[str, Any]:
        status, payload = loadgen.get_json(HOST, self.port, "/stats")
        require(status == 200, f"/stats answered {status}")
        return payload["indexes"]["default"]

    def peak_rss_mb(self) -> float:
        return common.process_tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


# ---------------------------------------------------------------------- #
# Served phases
# ---------------------------------------------------------------------- #


class Reference:
    """The in-process mmap index, and its answers for the fixed check sample."""

    def __init__(self, workload: Workload, path: Path):
        from repro import load_index

        self.mapped = load_index(path, mode="mmap")
        self.sample = list(range(SAMPLE))
        queries = [workload.pool[i] for i in self.sample]
        self.results, self.stats = self.mapped.query_batch(queries)

    def join_pairs(self, probes: list[frozenset[int]]) -> list[list[Any]]:
        from repro import SimilarityPredicate, similarity_join

        predicate = SimilarityPredicate(measure="braun_blanquet", threshold=common.B1)
        join = similarity_join(self.mapped, probes, predicate)
        return [[r, s, sim] for r, s, sim in join.pairs]


def _engine_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Scalar differences of the ``/stats`` engine aggregate."""
    out: dict[str, float] = {}
    for key, value in after["engine"].items():
        if key in ("dedupe_hit_rate", "queries_per_second"):
            continue  # ratios, not counters
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before["engine"].get(key, 0)
    for key, value in after["engine"]["kernel"].items():
        out[f"kernel.{key}"] = value - before["engine"]["kernel"].get(key, 0)
    for key in ("engine_calls", "queries_executed", "jobs_shed", "jobs_submitted"):
        out[key] = after[key] - before[key]
    return out


def isolated_batch(server: Server, workload: Workload, ref: Reference) -> dict[str, float]:
    """One lone ``/query-batch`` of the sample: answers and work must match."""
    before = server.stats()
    body = loadgen.batch_body([workload.pool[i] for i in ref.sample])
    _, replies = loadgen.run_closed_loop(HOST, server.port, "/query-batch", [body], 1)
    status, payload = replies[0]
    require(status == 200, f"isolated /query-batch answered {status}")
    reply = json.loads(payload)
    require(reply["results"] == ref.results, "served batch answers differ from in-process mmap")
    served = [(s["candidates_examined"], s["similarity_evaluations"], s["found"])
              for s in reply["stats"]["per_query"]]
    local = [(s.candidates_examined, s.similarity_evaluations, s.found)
             for s in ref.stats.per_query]
    require(served == local, "served per-query work differs from in-process mmap")
    delta = _engine_delta(before, server.stats())
    require(delta["engine_calls"] == 1, "the isolated batch was not one engine call")
    for key, value in vars(ref.stats.kernel).items():
        require(delta[f"kernel.{key}"] == value,
                f"served kernel counter {key} {delta[f'kernel.{key}']} != in-process {value}")
    require(delta["distinct_filter_probes"] == ref.stats.distinct_filter_probes,
            "served distinct filter probes differ from in-process mmap")
    return delta


class Bursts:
    """Closed-loop served throughput of singles, 16-query batches and joins.

    Every burst sends fresh queries, none sent before in the run, and checks
    the answers against the in-process mmap index; each throughput is the
    median over the bursts run.
    """

    def __init__(self, workload: Workload, ref: Reference):
        self.ref = ref
        self.stream = common.QueryStream(workload, BURST_STREAM)
        #: Per throughput, each burst's unscaled rate and its slowdown.
        self.rates: dict[str, list[float]] = {"single_qps": [], "batch_qps": [],
                                              "join_qps": []}
        self.slowdowns: dict[str, list[float]] = {name: [] for name in self.rates}
        self.requests = 0
        self.queries: list[list[frozenset[int]]] = []

    def _record(self, name: str, rate: float, gauge: Gauge) -> None:
        first = len(gauge.readings) - 1
        gauge.read()
        self.rates[name].append(rate)
        self.slowdowns[name].append(gauge.slowdown(first, first + 1))

    def run(self, server: Server, gauge: Gauge) -> None:
        """One burst of each kind, each between two gauge readings (the
        latest reading must be fresh)."""
        conns = connections()
        batched_end = BURST_SINGLES + BURST_BATCHES * loadgen.BATCH_QUERIES
        fresh = self.stream.take(batched_end + JOIN_PROBES).queries
        singles, batched, probes = (fresh[:BURST_SINGLES], fresh[BURST_SINGLES:batched_end],
                                    fresh[batched_end:])
        expected, _ = self.ref.mapped.query_batch(singles + batched)
        self.queries.append(fresh)

        seconds, replies = loadgen.run_closed_loop(
            HOST, server.port, "/query", [loadgen.query_body(q) for q in singles], conns)
        for k, (status, payload) in enumerate(replies):
            require(status == 200, f"/query answered {status}")
            require(json.loads(payload)["match"] == expected[k],
                    "served /query differs from in-process mmap")
        self._record("single_qps", len(singles) / seconds, gauge)

        chunks = range(0, len(batched), loadgen.BATCH_QUERIES)
        bodies = [loadgen.batch_body(batched[i : i + loadgen.BATCH_QUERIES]) for i in chunks]
        seconds, replies = loadgen.run_closed_loop(HOST, server.port, "/query-batch",
                                                   bodies, conns)
        for i, (status, payload) in zip(chunks, replies):
            require(status == 200, f"/query-batch answered {status}")
            start = len(singles) + i
            require(json.loads(payload)["results"]
                    == expected[start : start + loadgen.BATCH_QUERIES],
                    "served /query-batch differs from in-process mmap")
        self._record("batch_qps", len(batched) / seconds, gauge)

        body = json.dumps({"probes": [sorted(p) for p in probes],
                           "measure": "braun_blanquet", "threshold": common.B1}).encode()
        seconds, replies = loadgen.run_closed_loop(HOST, server.port, "/similarity-join",
                                                   [body], 1)
        status, payload = replies[0]
        require(status == 200, f"/similarity-join answered {status}")
        require(json.loads(payload)["pairs"] == self.ref.join_pairs(probes),
                "served join pairs differ from in-process mmap")
        self._record("join_qps", len(probes) / seconds, gauge)
        self.requests += len(singles) + len(bodies) + 1

    def medians(self) -> dict[str, float]:
        """Median gauge-scaled rate of each kind of burst."""
        return {name: common.median([rate * slowdown for rate, slowdown
                                     in zip(rates, self.slowdowns[name])])
                for name, rates in self.rates.items()}


def traffic(server: Server, workload: Workload, rate: float, duration_s: float,
            stream: int) -> loadgen.RunResult:
    rng = np.random.default_rng([workload.seed, 3, stream])
    weights = loadgen.popularity(len(workload.pool), np.random.default_rng([workload.seed, 2]))
    schedule = loadgen.make_schedule(workload.pool, rate, duration_s, rng, weights)
    return loadgen.run_open_loop(HOST, server.port, schedule, connections())


def verify_traffic(workload: Workload, run: loadgen.RunResult) -> tuple[int, int]:
    """Exactly verify every served answer; return (planted found, planted asked)."""
    found = asked = 0
    for outcome in run.outcomes:
        if not outcome.ok:
            continue
        reply = json.loads(outcome.body)
        answers = [reply["match"]] if outcome.request.op == "query" else reply["results"]
        f, a = common.verify_answers(workload, workload.subset(outcome.request.query_ids),
                                     answers)
        found += f
        asked += a
    return found, asked


def latency_summary(run: loadgen.RunResult) -> dict[str, Any]:
    out: dict[str, Any] = {"lag_p99_ms": common.percentile(run.lag_ms, 99),
                           "backlog_at_end": run.backlog_at_end,
                           "repeat_share": loadgen.repeat_share(run)}
    for op in ("query", "batch"):
        latencies = [o.latency_ms for o in run.of(op) if o.ok]
        out[op] = {**run.counts(op), "samples": len(latencies),
                   "p50_ms": common.percentile(latencies, 50),
                   "p90_ms": common.percentile(latencies, 90),
                   "p99_ms": common.percentile(latencies, 99)}
    return out


def rung_passes(run: loadgen.RunResult, rate: float) -> bool:
    summary = latency_summary(run)
    failed = summary["query"]["failed"] + summary["batch"]["failed"]
    return (
        failed == 0
        and summary["query"]["p99_ms"] <= common.P99_LIMIT_MS
        and run.backlog_at_end <= max(2.0, rate * common.P99_LIMIT_MS / 1e3)
    )


class CapacitySearch:
    """Up-down staircase over the fixed ladder.

    A probe passes when its ``/query`` p99 is at most 100 ms, no request
    failed or was shed, and it ended with at most 100 ms worth of arrivals
    still waiting for a connection.  The first probe runs at the workload's
    start rung; after a passing probe the next one runs a rung (10%)
    higher, after a failing one a rung lower, so the probes gather around
    the highest rate the server sustains within the limit.  The result is
    the median over the passing probes of the rung times the probe's gauge
    slowdown, the rate at nominal host speed (the lower middle one of an
    even count; the lowest rung of the ladder if none passed): a probe
    spoiled by a stall of the host moves it by about a rung at most.
    """

    def __init__(self, start_rung: int):
        self.rung = start_rung
        self.passed: list[float] = []
        self.probes: list[dict[str, Any]] = []

    def next_rate(self) -> float:
        return common.LADDER[self.rung]

    def record(self, rate: float, run: loadgen.RunResult, slowdown: float) -> None:
        passed = rung_passes(run, rate)
        self.probes.append({"rate": rate, "passed": passed, "slowdown": slowdown,
                            **latency_summary(run)})
        if passed:
            self.passed.append(rate * slowdown)
        step = 1 if passed else -1
        self.rung = min(max(common.LADDER.index(rate) + step, 0), len(common.LADDER) - 1)

    @property
    def result(self) -> float:
        return statistics.median_low(self.passed) if self.passed else common.LADDER[0]


# ---------------------------------------------------------------------- #
# Workload entry points
# ---------------------------------------------------------------------- #


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = common.make_workload(seed)
    work = common.WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        path = served_index(workload, work)
        ref = Reference(workload, path)
        if trace:
            return run_traced(name, workload, path, ref, seconds, work)
        return _run(name, workload, path, ref, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name: str, workload: Workload, path: Path, ref: Reference,
         seconds: float) -> tuple[dict, dict]:
    seed = workload.seed
    shard_procs = SHARD_PROCS[name]
    nominal = NOMINAL_RATE[name]
    slice_s = SHARES["nominal"] * seconds / ROUNDS
    probe_s = SHARES["ladder"] * seconds / (ROUNDS * PROBES_PER_ROUND)
    search = CapacitySearch(START_RUNG[name])

    setup_times: list[float] = []
    server: Server | None = None
    slices: list[loadgen.RunResult] = []
    slice_slowdowns: list[float] = []
    update_slowdowns: list[float] = []
    gauge = Gauge()
    nominal_engine: dict[str, float] = {}
    bursts = Bursts(workload, ref)
    from repro import load_index
    from repro.core.serialization import index_disk_bytes

    ram = load_index(path, mode="ram")
    updates = offline.UpdateMix(ram, workload,
                                common.QueryStream(workload, offline.UPDATE_STREAM))
    try:
        for launch in range(LAUNCHES):
            server = Server(path, shard_procs)
            setup_times.append(server.first_answer(workload.pool[0], ref.results[0]))
            if launch < LAUNCHES - 1:
                server.stop()
        assert server is not None
        isolated = isolated_batch(server, workload, ref)
        # Closed-loop bursts (the first ones warm the server up), nominal
        # traffic and capacity probes take turns, so that each metric
        # samples the whole measured window.
        for round_number in range(ROUNDS):
            gauge.read()
            bursts.run(server, gauge)
            before = server.stats()
            first = len(gauge.readings) - 1
            slices.append(traffic(server, workload, nominal, slice_s, 10 + round_number))
            gauge.read()
            slice_slowdowns.append(gauge.slowdown(first, first + 1))
            for key, value in _engine_delta(before, server.stats()).items():
                nominal_engine[key] = nominal_engine.get(key, 0) + value
            for _ in range(PROBES_PER_ROUND):
                rate = search.next_rate()
                first = len(gauge.readings) - 1
                probe = traffic(server, workload, rate, probe_s, 100 + len(search.probes))
                gauge.read()
                search.record(rate, probe, gauge.slowdown(first, first + 1))
            for _ in range(UPDATE_BLOCKS):
                gauge.read()
                updates.block()
                gauge.read()
                update_slowdowns.append(gauge.slowdown(-2, -1))
        final = server.stats()
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    nominal_run = loadgen.RunResult.merge(slices)
    found, asked = verify_traffic(workload, nominal_run)
    nominal_summary = latency_summary(nominal_run)
    q, b = nominal_summary["query"], nominal_summary["batch"]
    query_ms, batch_ms = (
        [o.latency_ms / slowdown for run, slowdown in zip(slices, slice_slowdowns)
         for o in run.of(op) if o.ok]
        for op in ("query", "batch"))
    throughput = bursts.medians()
    metrics = {
        "setup_s": common.metric(common.median(setup_times), "s"),
        "batch_qps": common.metric(throughput["batch_qps"], "q/s"),
        "single_qps": common.metric(throughput["single_qps"], "q/s"),
        "join_qps": common.metric(throughput["join_qps"], "probes/s"),
        "update_ops_s": common.metric(common.median(
            [r * slowdown for r, slowdown in zip(updates.rates, update_slowdowns)]), "ops/s"),
        "recall": common.metric(found / asked, "share"),
        "disk_bytes_per_posting": common.metric(
            index_disk_bytes(path) / ram.total_stored_filters, "B"),
        "rss_mb": common.metric(rss_mb, "MB"),
        "query_p50_ms": common.metric(common.percentile(query_ms, 50), "ms"),
        "query_p99_ms": common.metric(common.percentile(query_ms, 99), "ms"),
        "batch_p50_ms": common.metric(common.percentile(batch_ms, 50), "ms"),
        "batch_p90_ms": common.metric(common.percentile(batch_ms, 90), "ms"),
        "max_ok_rps": common.metric(search.result, "req/s"),
    }
    probes = search.probes
    failed = (q["failed"] + b["failed"]
              + sum(p["query"]["failed"] + p["batch"]["failed"] for p in probes))
    attempted = (LAUNCHES + 1 + bursts.requests + q["attempted"] + b["attempted"]
                 + sum(p["query"]["attempted"] + p["batch"]["attempted"] for p in probes)
                 + updates.ops)
    lag_ok = nominal_summary["lag_p99_ms"] <= common.LAG_LIMIT_MS
    if not lag_ok:
        print(f"perfbench: load generator lag p99 {nominal_summary['lag_p99_ms']:.1f} ms "
              f"exceeds {common.LAG_LIMIT_MS:g} ms; latencies reflect a starved host",
              file=sys.stderr)
    report = {
        "workload": name,
        "environment": common.environment(seed),
        "valid": lag_ok,
        "nominal_rate": nominal,
        "connections": connections(),
        "setup_times_s": setup_times,
        "update_rates": updates.rates,
        "nominal": nominal_summary,
        "nominal_engine": nominal_engine,
        "ladder_probes": probes,
        "bursts": bursts.rates,
        "slowdowns": {"bursts": bursts.slowdowns, "slices": slice_slowdowns,
                      "updates": update_slowdowns},
        "bursts_repeat_share": common.repeat_share(bursts.queries),
        "work": isolated,
        "batcher": {key: final[key] for key in ("mean_batch_occupancy", "jobs_shed",
                                                "engine_calls", "coalesced_calls")},
        "shards": final.get("shards"),
    }
    return report, {"correct": True, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def run_traced(name: str, workload: Workload, path: Path, ref: Reference,
               seconds: float, work: Path) -> tuple[dict, dict]:
    """Nominal slices, alternately on an untraced and a traced server.

    The slices are half as long as an untraced run's, so that the two
    servers together get about as much traffic as one untraced run.
    """
    from perfbench.tracer import Tracer

    shard_procs = SHARD_PROCS[name]
    nominal = NOMINAL_RATE[name]
    slice_s = SHARES["nominal"] * seconds / (2 * ROUNDS)
    trace_out = work / "trace.json"
    servers: list[Server] = []
    try:
        servers.append(Server(path, shard_procs))
        servers.append(Server(path, shard_procs, trace_out))
        plain, traced = servers
        isolated = isolated_batch(traced, workload, ref)
        gauge = Gauge()  # these bursts only warm the servers up
        for server in servers:
            gauge.read()
            Bursts(workload, ref).run(server, gauge)
        before = traced.stats()
        plain_runs, traced_runs = [], []
        window_start = time.time()
        for round_number in range(ROUNDS):
            plain_runs.append(traffic(plain, workload, nominal, slice_s, 10 + round_number))
            traced_runs.append(traffic(traced, workload, nominal, slice_s, 10 + round_number))
        window_end = time.time()
        after = traced.stats()
    finally:
        for server in servers:
            server.stop()
    run = loadgen.RunResult.merge(traced_runs)
    found, asked = verify_traffic(workload, run)
    trace = Tracer.load(json.loads(trace_out.read_text()))
    window = trace.window(window_start, window_end)
    summary = window.summary()
    untraced = latency_summary(loadgen.RunResult.merge(plain_runs))
    traced_summary = latency_summary(run)
    metrics = served_layer_metrics(summary, window.requests, run, ref, isolated, before, after)
    from repro.core.serialization import index_disk_bytes

    whole = trace.summary()
    metrics["serialization.open_s"] = common.metric(
        whole.get("serialization.load_index.busy_s", 0.0)
        + whole.get("dist.load_routed_index.busy_s", 0.0), "s")
    metrics["serialization.disk_bytes"] = common.metric(index_disk_bytes(path), "B")
    metrics["trace.overhead_share"] = common.metric(
        traced_summary["query"]["p50_ms"] / untraced["query"]["p50_ms"] - 1.0, "share")
    report = {
        "workload": name,
        "trace": True,
        "environment": common.environment(workload.seed),
        "recall": found / asked,
        "untraced_nominal": untraced,
        "traced_nominal": traced_summary,
        "work": isolated,
        "layers": summary,
        "shards": after.get("shards"),
    }
    attempted = len(run.outcomes) + SAMPLE
    failed = traced_summary["query"]["failed"] + traced_summary["batch"]["failed"]
    return report, {"correct": True, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def served_layer_metrics(
    summary: dict[str, float], requests: Sequence[dict[str, float]], run: loadgen.RunResult,
    ref: Reference, isolated: dict[str, float], before: dict[str, Any], after: dict[str, Any],
) -> dict[str, dict[str, Any]]:
    """Per-layer metrics of a traced serving window.

    Work counters come from the isolated sample batch, whose served
    counters were checked equal to the in-process batch's; page faults are
    the server's own.
    """
    counters = offline.work_counters(None, ref.stats, None)
    counters["mmap_store.minor_faults"] = isolated["minor_page_faults"]
    metrics = offline.layer_metrics(summary, counters, None)
    delta = _engine_delta(before, after)
    for key, field in (("generation_s", "generation_seconds"), ("merge_s", "merge_seconds"),
                       ("verification_s", "verification_seconds")):
        metrics[f"engine.{key}"] = common.metric(delta[field], "s")

    served = [o for o in run.outcomes if o.ok]
    waits = [r["queue_wait"] * 1e3 for r in requests if "queue_wait" in r]
    service = [r["service"] for r in requests]
    client = [o.done - o.sent for o in served]
    from_due = [o.done - o.request.due for o in served]
    http_self_ms = (np.mean(client) - np.mean(service)) * 1e3 if service and client else 0.0
    outside_engine = sum(r["service"] - r.get("engine", 0.0) for r in requests)
    uncovered = sum(
        r["service"] - r.get("queue_wait", 0.0) - r.get("engine", 0.0)
        + r.get("engine_uncovered", 0.0)
        for r in requests
    )
    occupancy = delta["queries_executed"] / delta["engine_calls"] if delta["engine_calls"] else 0.0
    values = {
        "serve.batcher.queue_wait_p50_ms": common.percentile(waits, 50) if waits else 0.0,
        "serve.batcher.queue_wait_p99_ms": common.percentile(waits, 99) if waits else 0.0,
        "serve.batcher.mean_occupancy": occupancy,
        "serve.batcher.jobs_shed": delta["jobs_shed"],
        "serve.self_s": outside_engine,
        "serve.http.self_ms": http_self_ms,
        "loadgen.lag_p99_ms": common.percentile(run.lag_ms, 99),
        "trace.unattributed_share": uncovered / sum(from_due) if from_due else 0.0,
    }
    shards_before, shards_after = before.get("shards"), after.get("shards")
    if shards_after:
        workers = list(zip(shards_before["per_worker"], shards_after["per_worker"]))
        seconds = [a["seconds"] - b["seconds"] for b, a in workers]
        mean_seconds = sum(seconds) / len(seconds)
        values.update({
            "dist.fanout.requests": sum(a["requests"] - b["requests"] for b, a in workers),
            "dist.fanout.rows": sum(a["rows"] - b["rows"] for b, a in workers),
            "dist.worker_s.max_over_mean": max(seconds) / mean_seconds if mean_seconds else 0.0,
            "dist.retries": sum(a["retries"] - b["retries"] for b, a in workers),
            "dist.failures": sum(a["failures"] - b["failures"] for b, a in workers),
        })
    units = common.contract_units("per_layer")
    for key, value in values.items():
        metrics[key] = common.metric(value, units[key])
    return metrics
