"""Shared pieces of the end-to-end benchmark: data, checks, statistics.

Every input is derived from the ``--seed`` argument, so one seed always
gives the same dataset, query pool, traffic schedule and update mix.  The
data model is the skewed two-block plus long-tail distribution of the
repository's empirical benches (60 frequent items in two blocks, 1200 rare
items at p = 0.01) with Braun-Blanquet threshold ``b1 = 0.5``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

#: Repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space the benchmark writes to; listed in the root .gitignore.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

NUM_VECTORS = 5_000
REPETITIONS = 4
B1 = 0.5
ALPHA = 0.8
POOL_SIZE = 2_000
INDEX_SEED = 3

#: The fixed request-rate ladder shared by every capacity search: rungs
#: are 10% apart, from 10 to about 2800 requests per second.
LADDER = tuple(10.0 * 1.1**step for step in range(60))
#: The latency limit a ladder rung must meet at the 99th percentile.
P99_LIMIT_MS = 100.0

#: The generator is late by more than this at the 99th percentile only when
#: the host starves it; such a run's latencies say more about the host.
LAG_LIMIT_MS = 10.0

#: A seed that later performance claims must also be re-checked on; it is
#: never used while the benchmark is tuned.
HELD_OUT_SEED = 9_173


def skewed_probabilities() -> np.ndarray:
    """Two-block + long-tail item probabilities (1260 items)."""
    from repro.data.families import two_block_probabilities

    return np.concatenate(
        [two_block_probabilities(60, 0.25, 0.25 / 8.0), np.full(1200, 0.01)]
    )


@dataclass
class Queries:
    """Queries and where each came from."""

    queries: list[frozenset[int]]
    #: ``planted[i]`` is the dataset id query ``i`` was correlated from, or
    #: -1 for a fresh sample.
    planted: list[int]

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, part: slice) -> "Queries":
        return Queries(self.queries[part], self.planted[part])


@dataclass
class Workload:
    """The seeded inputs shared by every workload."""

    seed: int
    distribution: Any
    dataset: list[frozenset[int]]
    #: The query pool: correctness checks and the served traffic draw on it.
    pool: list[frozenset[int]]
    planted: list[int]

    def subset(self, ids: Sequence[int]) -> Queries:
        return Queries([self.pool[i] for i in ids], [self.planted[i] for i in ids])


def _draw(
    distribution: Any, dataset: list[frozenset[int]], rng: np.random.Generator,
    count: int, seen: set[frozenset[int]],
) -> Queries:
    """``count`` new distinct queries, alternately planted and fresh.

    Planted queries are correlated samples (α = 0.8) of random dataset
    vectors, fresh ones plain samples of the distribution; a query that is
    empty or already in ``seen`` is redrawn.  Every query drawn joins ``seen``.
    """
    out = Queries([], [])
    while len(out) < count:
        if len(out) % 2 == 0:
            partner = int(rng.integers(len(dataset)))
            query = distribution.sample_correlated(dataset[partner], ALPHA, rng)
        else:
            partner = -1
            query = distribution.sample(rng)
        if not query or query in seen:
            continue
        seen.add(query)
        out.queries.append(query)
        out.planted.append(partner)
    return out


def make_workload(seed: int) -> Workload:
    """Dataset of ``NUM_VECTORS`` sets and a pool of ``POOL_SIZE`` distinct queries."""
    from repro.data.distributions import ItemDistribution

    distribution = ItemDistribution(skewed_probabilities())
    rng = np.random.default_rng([seed, 0])
    dataset = [v if v else frozenset({0}) for v in distribution.sample_many(NUM_VECTORS, rng)]
    pool = _draw(distribution, dataset, rng, POOL_SIZE, set())
    return Workload(seed, distribution, dataset, pool.queries, pool.planted)


class QueryStream:
    """Fresh queries for measured phases: none repeats the pool or each other.

    A phase that draws its queries here never sends the program a query it
    has seen before in the run, so a cache of results or of per-query work
    has nothing to find.  The stream is seeded by the workload seed and
    ``key``, so the k-th draw of a run is the same for a seed on any host.
    """

    def __init__(self, workload: Workload, key: int):
        self.workload = workload
        self.rng = np.random.default_rng([workload.seed, 1, key])
        self.seen = set(workload.pool)

    def take(self, count: int) -> Queries:
        return _draw(self.workload.distribution, self.workload.dataset, self.rng, count,
                     self.seen)


def braun_blanquet(x: frozenset[int], y: frozenset[int]) -> float:
    """B(x, y) = |x ∩ y| / max(|x|, |y|), computed here, not by the library."""
    if not x or not y:
        return 0.0
    return len(x & y) / max(len(x), len(y))


class CheckFailed(AssertionError):
    """A correctness check failed; the run reports ``correct: false``."""


def verify_answers(
    workload: Workload, queries: Queries, answers: Sequence[int | None]
) -> tuple[int, int]:
    """Exactly verify every returned id; return (planted found, planted asked).

    A returned id that is not a stored vector at B >= b1 fails the run:
    precision is 1 by construction, recall is what is measured.
    """
    require(len(answers) == len(queries), "answer count differs from query count")
    found = asked = 0
    for query, planted, answer in zip(queries.queries, queries.planted, answers):
        if answer is not None:
            if not 0 <= answer < len(workload.dataset):
                raise CheckFailed(f"query {sorted(query)} answered unknown id {answer}")
            if braun_blanquet(workload.dataset[answer], query) < B1:
                raise CheckFailed(
                    f"query {sorted(query)} answered id {answer} below b1={B1}"
                )
        if planted >= 0:
            asked += 1
            found += answer is not None
    return found, asked


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation); NaN for no samples."""
    if len(values) == 0:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def repeat_share(query_lists: Sequence[Sequence[frozenset[int]]]) -> float:
    """Share of the queries sent that repeat an earlier one (0 = all distinct)."""
    total = sum(len(queries) for queries in query_lists)
    distinct = len({query for queries in query_lists for query in queries})
    return 1.0 - distinct / total if total else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of VmHWM over a process and all its descendants, in MB."""
    total_kb = 0
    for member in [pid, *descendants(pid)]:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (Linux /proc walk)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child in children.get(current, []):
            found.append(child)
            frontier.append(child)
    return found


# ---------------------------------------------------------------------- #
# Environment record
# ---------------------------------------------------------------------- #


def environment(seed: int) -> dict[str, Any]:
    """What a reader needs to compare two results of this benchmark."""
    from repro.core.kernels import active_backend

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = list(range(os.cpu_count() or 1))
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": active_backend(),
        "commit": _commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _commit() -> str | None:
    """The checkout's git commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    """Digest of every file under ``src/``: names the program version even
    in a checkout that is not a git tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def contract_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of the root ``BENCHMARK.json``."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in contract[section]}


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(report: dict[str, Any], result: dict[str, Any]) -> None:
    """Print the detailed report, then the one-line result as the last line."""
    print("perfbench-report " + json.dumps(report, sort_keys=True, default=float))
    sys.stdout.flush()
    print(json.dumps(result, default=float))
    sys.stdout.flush()
