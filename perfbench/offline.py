"""``offline-skewed``: a library user building an index and querying it.

Set-up (timed as ``setup_s``, median of three): build the index in RAM,
``save_index`` it as v3 and ``load_index(mode="mmap")`` it.  The checks
then run once on the fixed query pool; the measured rounds that follow
send only fresh queries, so no measured query repeats one sent before it
in the run (the report's ``repeat_share`` is 0).

Each round draws its own distinct queries and runs, on library defaults:

1. ``query_batch`` over ``POOL_SIZE`` queries on the mmap index
   (``batch_qps``, median of rounds);
2. ``ROUND_SINGLES`` single ``query`` calls in ``PARTS`` parts
   (``single_qps``, median of parts; ``query_p50_ms``/``query_p99_ms`` over
   every call);
3. ``BATCH_CALLS_PER_ROUND`` ``query_batch`` calls of 16 queries, the shape
   of a served ``/query-batch``, in ``PARTS`` parts
   (``batch_p50_ms``/``batch_p90_ms`` over every call);
4. ``similarity_join`` of ``JOIN_PROBES`` probes with a Braun-Blanquet
   >= 0.5 predicate (``join_qps``);
5. a block of interleaved ``insert``/``query``/``remove`` on the RAM index
   (``update_ops_s``, median of blocks).

Rounds run until ``--seconds`` have passed since the first set-up began (at
least ``MIN_ROUNDS``); taking turns, every metric samples the whole window.
``max_ok_rps`` has no served meaning here: it is 1 / mean single-call time,
the request rate at which one lane of these calls would be busy all the time.

Every timing is scaled to a nominal host speed.  A fixed reference task
(``gauge.py``) is timed in the same thread before and after each set-up,
phase and part; the phase's time is divided by the mean of the two readings over
``gauge.NOMINAL_S`` (a rate is multiplied by it).  On a shared host the
speed of the CPU and its caches swings by tens of percent between stretches
of seconds to minutes, which moves whole runs; the gauge takes much of that
out.  The report keeps every phase's unscaled seconds and slowdown.

Checks: on the pool, RAM and mmap ``query_batch`` answers are identical and
``query`` equals ``query_batch`` on its first ``SINGLE_SUBSET`` queries;
every answer and join pair of every round is verified exactly, and a
removed id is never returned.
"""

from __future__ import annotations

import copy
import shutil
import time
from pathlib import Path
from typing import Any, Callable

from perfbench import common
from perfbench.gauge import Gauge
from perfbench.common import Queries, QueryStream, Workload, require

SETUPS = 3
#: Measured rounds run until ``--seconds`` is spent, but at least this many.
MIN_ROUNDS = 3
#: Queries of the pool on which ``query`` is checked against ``query_batch``.
SINGLE_SUBSET = 200
#: Single ``query`` calls in a measured round, in ``PARTS`` timed parts.
ROUND_SINGLES = 200
JOIN_PROBES = 1000
BATCH_CALL_QUERIES = 16
BATCH_CALLS_PER_ROUND = 32
#: The single calls and the 16-query calls of a round run in this many
#: parts, each between two gauge readings.
PARTS = 4
UPDATE_LIVE = 8
UPDATE_BLOCK = 10
#: Traced batch passes (each paired with an unrecorded one) in a traced run.
TRACED_PASSES = 3
#: Fresh queries a measured round sends (see ``split_round``).
ROUND_QUERIES = (common.POOL_SIZE + ROUND_SINGLES + BATCH_CALLS_PER_ROUND * BATCH_CALL_QUERIES
                 + JOIN_PROBES)
#: ``QueryStream`` keys: the measured phases, and the update mix.
PHASE_STREAM = 1
UPDATE_STREAM = 2


def make_index(workload: Workload) -> Any:
    from repro import SkewAdaptiveIndex, SkewAdaptiveIndexConfig

    config = SkewAdaptiveIndexConfig(
        b1=common.B1, repetitions=common.REPETITIONS, seed=common.INDEX_SEED
    )
    return SkewAdaptiveIndex(workload.distribution, config=config)


def setup_once(workload: Workload, path: Path) -> tuple[Any, Any, float]:
    """Build in RAM, save as v3, open mmap; return (ram, mmap, seconds)."""
    from repro import load_index, save_index

    start = time.perf_counter()
    ram = make_index(workload)
    ram.build(workload.dataset)
    save_index(ram, path)
    mapped = load_index(path, mode="mmap")
    return ram, mapped, time.perf_counter() - start


def _timed_batch(index: Any, queries: list[frozenset[int]]) -> float:
    start = time.perf_counter()
    index.query_batch(queries)
    return time.perf_counter() - start


class UpdateMix:
    """Interleaved insert / query / remove on a RAM index, in blocks.

    Each cycle inserts a fresh sample, queries a fresh query, and removes
    the oldest of the vectors it inserted once ``UPDATE_LIVE`` are live.
    Answers are verified exactly and must never be a removed id.
    """

    def __init__(self, index: Any, workload: Workload, stream: QueryStream):
        self.index = index
        self.workload = workload
        self.stream = stream
        self.live: list[int] = []
        self.removed: set[int] = set()
        self.ops = 0
        self.rates: list[float] = []
        self.queries: list[frozenset[int]] = []

    def block(self) -> None:
        """Run ``UPDATE_BLOCK`` cycles and record their operations per second."""
        workload, index = self.workload, self.index
        fresh = self.stream.take(UPDATE_BLOCK)
        inserts = [workload.distribution.sample(self.stream.rng) or frozenset({0})
                   for _ in range(UPDATE_BLOCK)]
        ops = 0
        elapsed = 0.0
        for k, (vector, query) in enumerate(zip(inserts, fresh.queries)):
            start = time.perf_counter()
            new_id = index.insert(vector)
            answer, _ = index.query(query)
            doomed = self.live.pop(0) if len(self.live) >= UPDATE_LIVE else None
            if doomed is not None:
                index.remove(doomed)
            elapsed += time.perf_counter() - start
            ops += 2 if doomed is None else 3
            self.live.append(new_id)
            if doomed is not None:
                self.removed.add(doomed)
            require(answer not in self.removed, f"query returned removed id {answer}")
            if answer is not None and answer < len(workload.dataset):
                common.verify_answers(workload, fresh[k : k + 1], [answer])
            elif answer is not None:
                require(
                    common.braun_blanquet(index.get_vector(answer), query) >= common.B1,
                    f"query returned inserted id {answer} below b1",
                )
        self.ops += ops
        self.rates.append(ops / elapsed)
        self.queries.extend(fresh.queries)


def verify_join(workload: Workload, probes: list[frozenset[int]], result: Any) -> None:
    for probe_index, vector_id, similarity in result.pairs:
        exact = common.braun_blanquet(workload.dataset[vector_id], probes[probe_index])
        require(exact >= common.B1, f"join pair {probe_index},{vector_id} below threshold")
        require(abs(exact - similarity) < 1e-12, "join reported a wrong similarity")


def run(seed: int, seconds: float, trace: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    if trace:
        return run_traced(seed, seconds)
    workload = common.make_workload(seed)
    work = common.WORK_DIR / f"offline-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _setups(
    workload: Workload, work: Path, count: int, gauge: Gauge | None = None
) -> tuple[Any, Any, Path, list[float]]:
    """``count`` set-ups, each followed by a gauge reading when a gauge is
    given; return the last (ram, mmap, path) and every set-up's seconds."""
    setup_times: list[float] = []
    ram = mapped = path = None
    work.mkdir(parents=True, exist_ok=True)
    for k in range(count):
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)
        path = work / f"index-{k}.v3"
        ram, mapped, seconds = setup_once(workload, path)
        setup_times.append(seconds)
        if gauge is not None:
            gauge.read()
    assert path is not None
    return ram, mapped, path, setup_times


def check_pool(workload: Workload, ram: Any, mapped: Any) -> tuple[Any, int, int]:
    """The unmeasured checks on the pool; return (mmap batch stats, found, asked)."""
    pool = workload.pool
    ram_results, _ = ram.query_batch(pool)
    results, stats = mapped.query_batch(pool)
    require(results == ram_results, "mmap query_batch answers differ from RAM answers")
    for query_id in range(SINGLE_SUBSET):
        answer, _ = mapped.query(pool[query_id])
        require(answer == results[query_id], f"query != query_batch on query {query_id}")
    found, asked = common.verify_answers(workload, workload.subset(range(len(pool))), results)
    return stats, found, asked


def split_round(fresh: Queries) -> tuple[Queries, Queries, list[Queries], Queries]:
    """One round's fresh queries: batch pass, singles, 16-query calls, join probes."""
    singles_end = common.POOL_SIZE + ROUND_SINGLES
    calls_end = singles_end + BATCH_CALLS_PER_ROUND * BATCH_CALL_QUERIES
    calls = [fresh[i : i + BATCH_CALL_QUERIES]
             for i in range(singles_end, calls_end, BATCH_CALL_QUERIES)]
    return (fresh[: common.POOL_SIZE], fresh[common.POOL_SIZE : singles_end],
            calls, fresh[calls_end : calls_end + JOIN_PROBES])


def _timed_calls(action: Callable[[Any], Any], items: list[Any]) -> tuple[list[Any], list[float]]:
    """Call ``action`` on each item; return the results and each call's seconds."""
    results, latencies = [], []
    for item in items:
        start = time.perf_counter()
        results.append(action(item))
        latencies.append(time.perf_counter() - start)
    return results, latencies


def _run(workload: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    from repro import SimilarityPredicate, similarity_join
    from repro.core.serialization import index_disk_bytes

    gauge = Gauge()
    started = time.perf_counter()
    gauge.read()
    ram, mapped, path, setup_times = _setups(workload, work, SETUPS, gauge)
    setup_slowdowns = [gauge.slowdown(k, k + 1) for k in range(SETUPS)]
    build_stats = copy.deepcopy(ram.build_stats)  # before the updates add to it
    disk_bytes = index_disk_bytes(path)
    postings = ram.total_stored_filters
    cold_stats, found, asked = check_pool(workload, ram, mapped)

    predicate = SimilarityPredicate(measure="braun_blanquet", threshold=common.B1)
    stream = QueryStream(workload, PHASE_STREAM)
    updates = UpdateMix(ram, workload, QueryStream(workload, UPDATE_STREAM))
    sent: list[list[frozenset[int]]] = []  # the measured queries
    # Per phase, each round's unscaled seconds and slowdown.
    phase_s: dict[str, list[float]] = {}
    slowdowns: dict[str, list[float]] = {}

    def phase(name: str, action: Callable[[], Any]) -> Any:
        """Run one phase after the latest gauge reading, then read the gauge."""
        first = len(gauge.readings) - 1
        start = time.perf_counter()
        result = action()
        phase_s.setdefault(name, []).append(time.perf_counter() - start)
        gauge.read()
        slowdowns.setdefault(name, []).append(gauge.slowdown(first, first + 1))
        return result

    single_latencies: list[list[float]] = []
    call_latencies: list[list[float]] = []
    join_result = None

    # The phases run interleaved in rounds, so that every metric samples
    # the whole measured window rather than one stretch of it.  The window
    # (``seconds``) includes the timed set-ups.
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        batch, singles, calls, probes = split_round(stream.take(ROUND_QUERIES))
        sent.extend([batch.queries, singles.queries, probes.queries])
        sent.extend(call.queries for call in calls)
        gauge.read()

        answers, _ = phase("batch", lambda: mapped.query_batch(batch.queries))
        common.verify_answers(workload, batch, answers)

        step = ROUND_SINGLES // PARTS
        for first in range(0, ROUND_SINGLES, step):
            part = singles[first : first + step]
            answers, latencies = phase("singles", lambda: _timed_calls(
                lambda query: mapped.query(query)[0], part.queries))
            single_latencies.append(latencies)
            common.verify_answers(workload, part, answers)

        step = BATCH_CALLS_PER_ROUND // PARTS
        for first in range(0, BATCH_CALLS_PER_ROUND, step):
            part_calls = calls[first : first + step]
            results, latencies = phase("calls", lambda: _timed_calls(
                lambda call: mapped.query_batch(call.queries)[0], part_calls))
            call_latencies.append(latencies)
            for call, answers in zip(part_calls, results):
                common.verify_answers(workload, call, answers)

        join_result = phase("join", lambda: similarity_join(mapped, probes.queries, predicate))
        verify_join(workload, probes.queries, join_result)

        phase("updates", updates.block)
        rounds += 1
    sent.append(updates.queries)

    def rate(name: str, count: int) -> float:
        return common.median([count / phase_seconds * slowdown for phase_seconds, slowdown
                              in zip(phase_s[name], slowdowns[name])])

    def scaled_ms(name: str, per_round: list[list[float]]) -> list[float]:
        return [1e3 * latency / slowdown
                for latencies, slowdown in zip(per_round, slowdowns[name])
                for latency in latencies]

    ms = scaled_ms("singles", single_latencies)
    batch_ms = scaled_ms("calls", call_latencies)
    metrics = {
        "setup_s": common.metric(common.median(
            [t / slowdown for t, slowdown in zip(setup_times, setup_slowdowns)]), "s"),
        "batch_qps": common.metric(rate("batch", common.POOL_SIZE), "q/s"),
        "single_qps": common.metric(rate("singles", ROUND_SINGLES // PARTS), "q/s"),
        "join_qps": common.metric(rate("join", JOIN_PROBES), "probes/s"),
        "update_ops_s": common.metric(common.median(
            [r * slowdown for r, slowdown in zip(updates.rates, slowdowns["updates"])]), "ops/s"),
        "recall": common.metric(found / asked, "share"),
        "disk_bytes_per_posting": common.metric(disk_bytes / postings, "B"),
        "rss_mb": common.metric(common.peak_rss_mb(), "MB"),
        "query_p50_ms": common.metric(common.percentile(ms, 50), "ms"),
        "query_p99_ms": common.metric(common.percentile(ms, 99), "ms"),
        "batch_p50_ms": common.metric(common.percentile(batch_ms, 50), "ms"),
        "batch_p90_ms": common.metric(common.percentile(batch_ms, 90), "ms"),
        "max_ok_rps": common.metric(len(ms) / (sum(ms) / 1e3), "req/s"),
    }
    raw_ms = [1e3 * latency for latencies in single_latencies for latency in latencies]
    raw_batch_ms = [1e3 * latency for latencies in call_latencies for latency in latencies]
    attempted = 2 * len(workload.pool) + SINGLE_SUBSET + rounds * ROUND_QUERIES + updates.ops
    report = {
        "workload": "offline-skewed",
        "environment": common.environment(seed),
        "samples": {
            "setups": len(setup_times),
            "rounds": rounds,
            "single_calls": len(ms),
            "batch16_calls": len(batch_ms),
            "update_ops": updates.ops,
            "gauge_readings": len(gauge.readings),
        },
        "repeat_share": common.repeat_share(sent),
        "unscaled": {
            "setup_times_s": setup_times,
            "phase_seconds": phase_s,
            "update_ops_s": updates.rates,
            "query_p50_ms": common.percentile(raw_ms, 50),
            "query_p99_ms": common.percentile(raw_ms, 99),
            "batch_p50_ms": common.percentile(raw_batch_ms, 50),
            "batch_p90_ms": common.percentile(raw_batch_ms, 90),
        },
        "slowdowns": {"setups": setup_slowdowns, **slowdowns},
        "work": work_counters(build_stats, cold_stats, join_result),
        "postings": postings,
        "disk_bytes": disk_bytes,
    }
    return report, {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def work_counters(
    build_stats: Any | None, batch_stats: Any, join_result: Any | None
) -> dict[str, float]:
    """The program's own work counters: one full batch (+ build, + join).

    Kernel counters are taken at batch level: ``per_query[i].kernel`` of a
    ``query_batch`` is all zeros in this version of the library.
    """
    per_query = batch_stats.per_query
    evaluations = sum(s.similarity_evaluations for s in per_query)
    found = sum(1 for s in per_query if s.found)
    counters: dict[str, float] = {
        "engine.distinct_filter_probes": batch_stats.distinct_filter_probes,
        "engine.candidates_examined": sum(s.candidates_examined for s in per_query),
        "engine.similarity_evaluations": evaluations,
        "engine.filters_generated": sum(s.filters_generated for s in per_query),
        "engine.found": found,
        "engine.useful_ratio": found / evaluations if evaluations else 0.0,
        "engine.per_query_kernel_zero": all(
            not any(vars(s.kernel).values()) for s in per_query
        ),
        "mmap_store.shards_probed": batch_stats.shards_probed,
        "mmap_store.minor_faults": batch_stats.minor_page_faults,
    }
    for name, value in vars(batch_stats.kernel).items():
        counters[f"kernels.{name}"] = value
    if build_stats is not None:
        counters["build.total_filters"] = build_stats.total_filters
        counters["build.generation_batches"] = build_stats.generation_batches
        for name, value in vars(build_stats.kernel).items():
            counters[f"kernels.{name}"] += value
    if join_result is not None:
        counters["join.pairs"] = join_result.num_pairs
        counters["join.candidates_examined"] = join_result.candidates_examined
    return counters


def run_traced(seed: int, seconds: float) -> tuple[dict[str, Any], dict[str, Any]]:
    """One set-up and a fixed amount of each phase, with the tracer recording.

    ``trace.overhead_share`` compares traced batch passes with passes run
    in between them while the installed wrappers do not record.  As in the
    untraced run, every pass and phase draws fresh queries.
    """
    from perfbench import tracer as tracing

    workload = common.make_workload(seed)
    work = common.WORK_DIR / f"offline-trace-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = False
    from repro import SimilarityPredicate, similarity_join  # the wrapped join
    from repro.core.serialization import index_disk_bytes

    windows: list[tuple[float, float]] = []

    def timed(action: Callable[[], Any]) -> Any:
        tracer.enabled = True
        start = time.time()
        try:
            return action()
        finally:
            windows.append((start, time.time()))
            tracer.enabled = False

    try:
        ram, mapped, path, _ = timed(lambda: _setups(workload, work, 1))
        build_stats = copy.deepcopy(ram.build_stats)
        cold_stats, found, asked = check_pool(workload, ram, mapped)
        stream = QueryStream(workload, PHASE_STREAM)
        plain: list[float] = []
        traced: list[float] = []
        for _ in range(TRACED_PASSES):
            plain.append(_timed_batch(mapped, stream.take(common.POOL_SIZE).queries))
            batch = stream.take(common.POOL_SIZE).queries
            traced.append(timed(lambda: _timed_batch(mapped, batch)))
        batch, singles, calls, probes = split_round(stream.take(ROUND_QUERIES))
        timed(lambda: [mapped.query(query) for query in singles.queries])
        timed(lambda: [mapped.query_batch(call.queries) for call in calls])
        predicate = SimilarityPredicate(measure="braun_blanquet", threshold=common.B1)
        join_result = timed(lambda: similarity_join(mapped, probes.queries, predicate))
        updates = UpdateMix(ram, workload, QueryStream(workload, UPDATE_STREAM))
        timed(updates.block)

        region = sum(end - start for start, end in windows)
        summary = tracer.summary()
        counters = work_counters(build_stats, cold_stats, join_result)
        _, warm_stats = mapped.query_batch(batch.queries)
        metrics = layer_metrics(summary, counters, warm_stats)
        metrics["serialization.disk_bytes"] = common.metric(index_disk_bytes(path), "B")
        metrics["trace.overhead_share"] = common.metric(
            common.median(traced) / common.median(plain) - 1.0, "share"
        )
        metrics["trace.unattributed_share"] = common.metric(
            1.0 - summary["traced.self_s"] / region, "share"
        )
        report = {
            "workload": "offline-skewed",
            "trace": True,
            "environment": common.environment(seed),
            "recall": found / asked,
            "work": counters,
            "layers": summary,
            "traced_region_s": region,
        }
        attempted = ((3 + 2 * TRACED_PASSES) * common.POOL_SIZE + SINGLE_SUBSET
                     + ROUND_QUERIES - common.POOL_SIZE + updates.ops)
        return report, {"correct": True, "attempted": attempted, "failed": 0,
                        "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(
    summary: dict[str, float], counters: dict[str, float], batch_stats: Any | None
) -> dict[str, dict[str, Any]]:
    """Every ``per_layer`` metric; layers a workload does not use report 0."""
    def get(key: str) -> float:
        return float(summary.get(key, 0.0))

    values: dict[str, float] = {
        "paths.generate_batch.busy_s": get("paths.generate_batch.busy_s"),
        "paths.generate_batch.calls": get("paths.generate_batch.calls"),
        "paths.generate.busy_s": get("paths.generate.busy_s"),
        "paths.generate.calls": get("paths.generate.calls"),
        "inverted_index.add.busy_s": get("inverted_index.add.busy_s"),
        "inverted_index.compact.busy_s": get("inverted_index.compact.busy_s"),
        "inverted_index.probe_batch.busy_s": get("inverted_index.probe_batch.busy_s"),
        "inverted_index.probe_batch.keys": get("inverted_index.probe_batch.detail"),
        "mmap_store.probe_batch_routed.busy_s": get("mmap_store.probe_batch_routed.busy_s"),
        "join.pairs": get("join.similarity_join.detail"),
        "serialization.save_s": get("serialization.save_index.busy_s"),
        "serialization.open_s": get("serialization.load_index.busy_s"),
        "dist.router.self_s": get("dist.router.self_s"),
        "dist.transport.probe_s": get("dist.transport.probe.busy_s"),
    }
    for layer in ("paths", "kernels", "inverted_index", "mmap_store", "engine", "join",
                  "serialization", "dist", "serve"):
        values[f"{layer}.self_s"] = get(f"{layer}.self_s")
    for fn in ("extend_level", "chain_resolve", "merge_labeled", "ordered_unique",
               "sorted_unique"):
        values[f"kernels.{fn}.busy_s"] = get(f"kernels.{fn}.busy_s")
    for key in ("paths_extended", "keys_folded", "chain_probes", "merge_rows", "dedupe_hits"):
        values[f"kernels.{key}"] = counters.get(f"kernels.{key}", 0.0)
    for key in ("distinct_filter_probes", "candidates_examined", "similarity_evaluations",
                "useful_ratio"):
        values[f"engine.{key}"] = counters.get(f"engine.{key}", 0.0)
    values["mmap_store.shards_probed"] = counters.get("mmap_store.shards_probed", 0.0)
    values["mmap_store.minor_faults"] = counters.get("mmap_store.minor_faults", 0.0)
    if batch_stats is not None:
        values["engine.generation_s"] = batch_stats.generation_seconds
        values["engine.merge_s"] = batch_stats.merge_seconds
        values["engine.verification_s"] = batch_stats.verification_seconds
    return {
        name: common.metric(values.get(name, 0.0), unit)
        for name, unit in common.contract_units("per_layer").items()
    }
