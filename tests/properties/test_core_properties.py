"""Property-based tests (hypothesis) for the core data structures."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedFilterIndex
from repro.core.paths import PathGenerator, paths_to_csr
from repro.core.thresholds import AdversarialThreshold, CorrelatedThreshold
from repro.data.distributions import ItemDistribution
from repro.hashing.pairwise import PathHasher
from repro.similarity.measures import braun_blanquet
from repro.theory.rho import solve_adversarial_rho, solve_correlated_rho

DIMENSION = 60

probability_arrays = st.lists(
    st.floats(min_value=0.001, max_value=0.5), min_size=5, max_size=DIMENSION
).map(lambda values: np.asarray(values))

item_subsets = st.frozensets(st.integers(min_value=0, max_value=DIMENSION - 1), min_size=1, max_size=25)


@given(probability_arrays, st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_adversarial_rho_within_unit_interval_and_feasible(probabilities, b1):
    """The adversarial exponent is non-negative, satisfies its inequality and
    is at most 1 whenever the search is non-trivial (b1 above the mean
    probability, i.e. the sought similarity exceeds the background level)."""
    rho = solve_adversarial_rho(probabilities, b1)
    assert rho >= 0.0
    if rho > 0.0:
        assert float(np.sum(probabilities**rho)) <= b1 * probabilities.size + 1e-6
    if b1 >= float(probabilities.mean()):
        assert rho <= 1.0 + 1e-9


@given(probability_arrays, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_correlated_rho_within_unit_interval_and_solves_equation(probabilities, alpha):
    rho = solve_correlated_rho(probabilities, alpha)
    assert 0.0 <= rho <= 1.0
    conditional = probabilities * (1.0 - alpha) + alpha
    lhs = float(np.sum(probabilities ** (1.0 + rho) / conditional))
    rhs = float(probabilities.sum())
    assert abs(lhs - rhs) <= max(1e-6 * rhs, 1e-9)


@given(probability_arrays, st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_correlated_rho_never_exceeds_balanced_worst_item(probabilities, alpha):
    """The skew-adaptive exponent is at most the exponent of the most
    frequent item treated as a uniform profile (skew can only help)."""
    worst = float(probabilities.max())
    rho = solve_correlated_rho(probabilities, alpha)
    worst_rho = solve_correlated_rho(np.full(probabilities.size, worst), alpha)
    assert rho <= worst_rho + 1e-9


@given(item_subsets, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_paths_are_subsets_without_repeats(items, seed):
    """Generated filters only contain vector items, each at most once."""
    probabilities = np.full(DIMENSION, 0.2)
    generator = PathGenerator(
        probabilities, PathHasher(seed), stop_product=1.0 / 100, max_depth=10
    )
    threshold = AdversarialThreshold(0.5).bind(sorted(items))
    result = generator.generate(sorted(items), threshold)
    for path in result.paths:
        assert set(path).issubset(items)
        assert len(path) == len(set(path))


@given(item_subsets, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_path_generation_deterministic(items, seed):
    probabilities = np.full(DIMENSION, 0.2)

    def generate():
        generator = PathGenerator(
            probabilities, PathHasher(seed), stop_product=1.0 / 100, max_depth=10
        )
        threshold = CorrelatedThreshold(probabilities, 0.6, 100).bind(sorted(items))
        return generator.generate(sorted(items), threshold).paths

    assert generate() == generate()


@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=5),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_inverted_index_total_entries_invariant(filters_per_vector):
    """total_entries always equals the sum of posting-list sizes."""
    index = InvertedFilterIndex()
    expected_total = 0
    for vector_id, paths in enumerate(filters_per_vector):
        items, offsets = paths_to_csr(paths)
        expected_total += index.add([vector_id] * len(paths), items, offsets)
    assert index.total_entries == expected_total
    assert sum(index.posting_sizes()) == expected_total


@given(
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_correlated_sampling_preserves_membership_probability(seed, probability, alpha):
    """q ~ D_alpha(x) marginally has Pr[q_i = 1] = p_i (spot check one item)."""
    distribution = ItemDistribution(np.full(30, probability))
    rng = np.random.default_rng(seed)
    trials = 300
    count = 0
    for _ in range(trials):
        x = distribution.sample(rng)
        q = distribution.sample_correlated(x, alpha, rng)
        if 0 in q:
            count += 1
    observed = count / trials
    assert abs(observed - probability) < 0.15


@given(item_subsets, item_subsets)
@settings(max_examples=80, deadline=None)
def test_braun_blanquet_never_below_acceptance_logic(x, q):
    """Helper invariant used by the engine: a candidate equal to the query
    always passes any threshold at most 1."""
    assert braun_blanquet(x, x) == 1.0
    assert 0.0 <= braun_blanquet(x, q) <= 1.0
