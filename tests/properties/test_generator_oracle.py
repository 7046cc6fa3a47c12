"""``PathGenerator.generate_batch`` against its serial oracle ``generate``.

A batch of at most eight vectors takes the tuple-frontier path; a larger
one takes the CSR kernel pipeline and fills its paths from the node arena.
Both must reproduce ``[generate(v, b) for ...]`` exactly: paths, keys,
truncation flags, expansion counts, and the ``keys_folded`` /
``paths_extended`` counter totals.  The configurations cover the paper's
structure, ``max_paths`` truncation, and the Chosen Path configuration
(``collect_at_max_depth=True`` with the product rule off), with and
without truncation; every batch also holds empty vectors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import KEYS_FOLDED, PATHS_EXTENDED, new_counters
from repro.core.paths import PathGenerator, default_max_depth
from repro.core.thresholds import AdversarialThreshold, ConstantThreshold
from repro.hashing.pairwise import PathHasher
from repro.testing import rng_for

BATCH_SIZES = (1, 8, 9, 512)

CONFIGS = {
    "paper": dict(collect_at_max_depth=False, max_paths=None, chosen_path=False),
    "paper-truncated": dict(collect_at_max_depth=False, max_paths=25, chosen_path=False),
    "chosen-path": dict(collect_at_max_depth=True, max_paths=None, chosen_path=True),
    "chosen-path-truncated": dict(collect_at_max_depth=True, max_paths=4, chosen_path=True),
}


def _vectors(distribution, count: int) -> list[list[int]]:
    """``count`` sorted vectors; every seventh one is empty."""
    sampled = distribution.sample_many(count, rng_for("tests:generator-oracle"))
    return [[] if index % 7 == 3 else sorted(vector) for index, vector in enumerate(sampled)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_generate_batch_equals_serial_oracle(skewed_distribution, config, size):
    settings = CONFIGS[config]
    probabilities = skewed_distribution.probabilities
    if settings["chosen_path"]:
        generator = PathGenerator(
            np.full(probabilities.size, 0.5),
            PathHasher(11),
            stop_product=None,
            max_depth=3,
            collect_at_max_depth=True,
            max_paths=settings["max_paths"],
        )
        policy = ConstantThreshold(0.5)
    else:
        generator = PathGenerator(
            probabilities,
            PathHasher(11),
            stop_product=1.0 / 512.0,
            max_depth=default_max_depth(512, float(probabilities.max())),
            collect_at_max_depth=False,
            max_paths=settings["max_paths"],
        )
        policy = AdversarialThreshold(0.5)
    vectors = _vectors(skewed_distribution, size)
    bounds = [policy.bind(members) for members in vectors]

    batch_counters = new_counters()
    batch = generator.generate_batch(vectors, bounds, counters=batch_counters)
    serial_counters = new_counters()
    serial = [
        generator.generate(members, bound, counters=serial_counters)
        for members, bound in zip(vectors, bounds)
    ]

    assert batch.num_vectors == size
    assert [batch.result(vector) for vector in range(size)] == serial
    assert batch.num_paths == sum(len(result.paths) for result in serial)
    for counter in (KEYS_FOLDED, PATHS_EXTENDED):
        assert batch_counters[counter] == serial_counters[counter]
    if settings["max_paths"] is not None and size > 1:
        assert batch.truncated.any()  # the cap really cut some vector short


def test_empty_batch(skewed_distribution):
    generator = PathGenerator(
        skewed_distribution.probabilities, PathHasher(3), stop_product=0.01, max_depth=4
    )
    batch = generator.generate_batch([], [])
    assert batch.num_vectors == 0
    assert batch.num_paths == 0
    assert batch.vector_offsets.tolist() == [0]
    assert batch.path_offsets.tolist() == [0]
