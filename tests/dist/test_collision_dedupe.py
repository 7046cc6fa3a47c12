"""Chunk probe dedupe under a forced 64-bit key collision, in every mode.

``FilterEngine._probe_chunk_repetition`` dedupes a chunk's filters by
sorting their folded keys and comparing the paths inside each equal-key
run.  Here two distinct stored paths are made to share one key — in the
build and in the queries, so the RAM store, the saved v3 shards and the
chunk all see the collision — and a ``query_batch`` chunk holds queries
that chose either path.  Each path must keep its own postings: RAM, mmap
and the in-process router answer exactly like an index without the
collision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import SkewAdaptiveIndex, load_index, save_index
from repro.core.config import PersistenceConfig, SkewAdaptiveIndexConfig
from repro.core.paths import PathGenerator
from repro.dist import load_routed_index, shard_router_of
from repro.hashing.pairwise import fold_path


def _build(distribution, dataset) -> SkewAdaptiveIndex:
    index = SkewAdaptiveIndex(
        distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3, seed=11)
    )
    index.build(dataset)
    return index


def _answers(index, queries):
    results, stats = index.query_batch(queries)
    work = [
        (q.filters_generated, q.candidates_examined, q.unique_candidates, q.found)
        for q in stats.per_query
    ]
    candidates, _ = index._engine.query_candidates_arrays_batch(queries)
    return (
        results,
        work,
        stats.distinct_filter_probes,
        [array.tolist() for array in candidates],
    )


def test_colliding_paths_keep_their_own_postings(
    monkeypatch, tmp_path, skewed_distribution, skewed_dataset
):
    clean = _build(skewed_distribution, skewed_dataset)
    store = clean._engine.filter_indexes[0]
    (first_path, _), (second_path, _) = store.heaviest_filters(2)
    first_key, second_key = fold_path(first_path), fold_path(second_path)
    holders = store.lookup(first_path)[:6] + store.lookup(second_path)[:6]
    queries = [skewed_dataset[vector_id] for vector_id in holders] + skewed_dataset[:20]
    expected = _answers(clean, queries)

    generate_batch = PathGenerator.generate_batch

    def colliding(self, *args, **kwargs):
        batch = generate_batch(self, *args, **kwargs)
        keys = batch.keys.copy()
        keys[keys == np.uint64(second_key)] = first_key
        return dataclasses.replace(batch, keys=keys)

    monkeypatch.setattr(PathGenerator, "generate_batch", colliding)
    collided = _build(skewed_distribution, skewed_dataset)
    assert collided._engine.filter_indexes[0]._has_duplicate_keys
    path = tmp_path / "collided.v3"
    save_index(collided, path, config=PersistenceConfig(shards=4))
    mapped = load_index(path, mode="mmap")
    routed = load_routed_index(path, transport="inproc", shard_procs=2)
    try:
        for index in (collided, mapped, routed):
            assert _answers(index, queries) == expected
    finally:
        shard_router_of(routed).close()
