"""Property-based batch/single equivalence (hypothesis).

Random universes, random datasets, random queries: the batched execution
path must return exactly what the single-query loop returns, at every layer
(path generation, full engine queries, candidate enumeration).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import FilterEngine
from repro.core.paths import PathGenerator, default_max_depth
from repro.core.thresholds import AdversarialThreshold
from repro.hashing.pairwise import PathHasher

DIMENSION = 48

item_sets = st.frozensets(
    st.integers(min_value=0, max_value=DIMENSION - 1), min_size=0, max_size=14
)
# Spans both generate_batch paths: <= 8 vectors ride the tuple-frontier
# fast path, larger batches take the CSR kernel pipeline (see paths.py).
set_lists = st.lists(item_sets, min_size=1, max_size=12)
probability_arrays = st.lists(
    st.floats(min_value=0.01, max_value=0.5), min_size=DIMENSION, max_size=DIMENSION
).map(lambda values: np.asarray(values))


@given(probability_arrays, set_lists, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generate_batch_equals_generate(probabilities, vectors, seed):
    generator = PathGenerator(
        probabilities,
        PathHasher(seed),
        stop_product=1.0 / 64.0,
        max_depth=default_max_depth(64, float(probabilities.max())),
        max_paths=200,
    )
    policy = AdversarialThreshold(0.5)
    sorted_vectors = [sorted(vector) for vector in vectors]
    bounds = [policy.bind(members) for members in sorted_vectors]
    batch = generator.generate_batch(sorted_vectors, bounds)
    for vector, (members, bound) in enumerate(zip(sorted_vectors, bounds)):
        single = generator.generate(members, bound)
        batched = batch.result(vector)
        assert single.paths == batched.paths
        assert single.truncated == batched.truncated
        assert single.expansions == batched.expansions


@given(
    st.lists(item_sets, min_size=2, max_size=12),
    st.lists(item_sets, min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["first", "best"]),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_batch_equals_loop(dataset, queries, seed, mode):
    probabilities = np.full(DIMENSION, 0.12)
    engine = FilterEngine(
        probabilities,
        AdversarialThreshold(0.5),
        acceptance_threshold=0.5,
        num_vectors_hint=max(len(dataset), 1),
        repetitions=3,
        seed=seed,
    )
    engine.build(dataset)
    expected_ids = [engine.query(query, mode=mode)[0] for query in queries]
    batched_ids, _stats = engine.query_batch(queries, mode=mode, batch_size=4)
    assert batched_ids == expected_ids
    expected_candidates = [engine.query_candidates(query)[0] for query in queries]
    batched_candidates, _cstats = engine.query_candidates_batch(queries, batch_size=4)
    assert batched_candidates == expected_candidates
