"""The correlated-query skew-adaptive index (Theorem 1).

:class:`CorrelatedIndex` is the variant of the data structure for the
"planted" setting: queries are promised to be α-correlated with some dataset
vector (Definition 3).  Knowing the correlation level lets the structure
weight its path choices by the conditional probability
``p̂_i = Pr[x_i = 1 | q_i = 1] = p_i (1 − α) + α`` (Section 6): a shared rare
item is much stronger evidence of correlation than a shared frequent item, so
rare items are sampled far more aggressively.

The acceptance rule follows Lemma 10: an α-correlated pair has Braun-Blanquet
similarity at least ``α/1.3`` with high probability, while uncorrelated pairs
stay below ``α/1.5``, so candidates are reported at threshold ``α/1.3``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.config import CorrelatedIndexConfig
from repro.core.engine import FilterEngine
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.core.thresholds import CorrelatedThreshold
from repro.data.distributions import ItemDistribution

SetLike = Iterable[int]


class CorrelatedIndex:
    """Skew-adaptive similarity search for α-correlated queries.

    Parameters
    ----------
    distribution:
        The item-level distribution (must be the true/estimated distribution
        of the data; the thresholds depend on it).
    alpha:
        Correlation level of the queries.
    config:
        Full configuration; when given, ``alpha`` and ``seed`` are ignored.
    seed:
        Hash-function seed.
    """

    def __init__(
        self,
        distribution: ItemDistribution | Sequence[float] | np.ndarray,
        alpha: float = 0.5,
        config: CorrelatedIndexConfig | None = None,
        seed: int = 0,
    ):
        if config is None:
            config = CorrelatedIndexConfig(alpha=alpha, seed=seed)
        self._config = config
        if isinstance(distribution, ItemDistribution):
            self._distribution = distribution
        else:
            self._distribution = ItemDistribution(np.asarray(distribution, dtype=np.float64))
        self._engine: FilterEngine | None = None

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> CorrelatedIndexConfig:
        return self._config

    @property
    def distribution(self) -> ItemDistribution:
        return self._distribution

    @property
    def dimension(self) -> int:
        """Universe size ``d``: item ids run over ``[0, d)``."""
        return self._distribution.dimension

    @property
    def alpha(self) -> float:
        return self._config.alpha

    @property
    def acceptance_threshold(self) -> float:
        """The Braun-Blanquet threshold ``α / 1.3`` used to report candidates."""
        return self._config.acceptance_threshold

    @property
    def build_stats(self) -> BuildStats:
        self._require_built()
        assert self._engine is not None
        return self._engine.build_stats

    @property
    def num_indexed(self) -> int:
        return len(self._engine.vectors) if self._engine is not None else 0

    @property
    def total_stored_filters(self) -> int:
        self._require_built()
        assert self._engine is not None
        return self._engine.total_stored_filters

    # ------------------------------------------------------------------ #
    # Construction and queries
    # ------------------------------------------------------------------ #

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset (any iterable of item-id collections)."""
        vectors = [frozenset(int(item) for item in members) for members in collection]
        self._engine = self._create_engine(max(len(vectors), 1))
        return self._engine.build(vectors)

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        """A fresh, empty engine for a dataset of the given size.

        Exposed so that :mod:`repro.core.serialization` can reconstruct the
        engine from the saved configuration and restore the saved state
        directly, without a placeholder build.
        """
        threshold_policy = CorrelatedThreshold(
            probabilities=self._distribution.probabilities,
            alpha=self._config.alpha,
            num_vectors=num_vectors,
            boost_delta=self._config.boost_delta,
        )
        return FilterEngine(
            probabilities=self._distribution.probabilities,
            threshold_policy=threshold_policy,
            acceptance_threshold=self._config.acceptance_threshold,
            num_vectors_hint=num_vectors,
            repetitions=self._config.repetitions,
            max_depth=self._config.max_depth,
            collect_at_max_depth=False,
            stop_product_enabled=True,
            max_paths_per_vector=self._config.max_paths_per_vector,
            seed=self._config.seed,
        )

    def query(self, query: SetLike, mode: str = "first") -> tuple[int | None, QueryStats]:
        """Return the id of the stored vector the query is correlated with.

        Returns ``None`` when no stored vector reaches similarity
        ``α / 1.3`` with the query (e.g. the query is not actually correlated
        with anything in the dataset).
        """
        self._require_built()
        assert self._engine is not None
        return self._engine.query(query, mode=mode)

    def query_batch(
        self,
        queries: Sequence[SetLike],
        mode: str = "first",
        batch_size: int | None = None,
        max_workers: int | None = None,
        deduplicate: bool = True,
        shard_workers: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[int | None], BatchQueryStats]:
        """Answer many queries through the vectorised batch subsystem.

        Results are identical to ``[query(q, mode)[0] for q in queries]``;
        see :meth:`repro.core.engine.FilterEngine.query_batch`.
        """
        self._require_built()
        assert self._engine is not None
        return self._engine.query_batch(
            queries,
            mode=mode,
            batch_size=batch_size,
            max_workers=max_workers,
            deduplicate=deduplicate,
            shard_workers=shard_workers,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def query_candidates(self, query: SetLike) -> tuple[set[int], QueryStats]:
        """All candidate ids colliding with the query (used by joins)."""
        self._require_built()
        assert self._engine is not None
        return self._engine.query_candidates(query)

    def query_candidates_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        max_workers: int | None = None,
        deduplicate: bool = True,
        shard_workers: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[set[int]], BatchQueryStats]:
        """Batched candidate enumeration (the similarity join's primitive)."""
        self._require_built()
        assert self._engine is not None
        return self._engine.query_candidates_batch(
            queries,
            batch_size=batch_size,
            max_workers=max_workers,
            deduplicate=deduplicate,
            shard_workers=shard_workers,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    def query_candidates_arrays_batch(
        self,
        queries: Sequence[SetLike],
        batch_size: int | None = None,
        max_workers: int | None = None,
        deduplicate: bool = True,
        shard_workers: int | None = None,
        allow_partial: bool = False,
        deadline: float | None = None,
    ) -> tuple[list[np.ndarray], BatchQueryStats]:
        """Batched candidate enumeration as sorted id arrays (read-only)."""
        self._require_built()
        assert self._engine is not None
        return self._engine.query_candidates_arrays_batch(
            queries,
            batch_size=batch_size,
            max_workers=max_workers,
            deduplicate=deduplicate,
            shard_workers=shard_workers,
            allow_partial=allow_partial,
            deadline=deadline,
        )

    @property
    def shard_workers(self) -> int | None:
        """Default per-probe shard fan-out (mmap-loaded indexes only)."""
        self._require_built()
        assert self._engine is not None
        return self._engine.shard_workers

    @shard_workers.setter
    def shard_workers(self, workers: int | None) -> None:
        self._require_built()
        assert self._engine is not None
        self._engine.shard_workers = workers

    def get_vector(self, vector_id: int) -> frozenset[int]:
        """The stored vector with the given id."""
        self._require_built()
        assert self._engine is not None
        return self._engine.vectors[vector_id]

    def insert(self, members: SetLike) -> int:
        """Insert one vector into the built index and return its id.

        Suitable for a moderate number of additions; if the dataset grows by
        a large factor, rebuild so the ``1/n`` stopping rule and the number
        of repetitions match the new size.
        """
        self._require_built()
        assert self._engine is not None
        return self._engine.insert(members)

    def remove(self, vector_id: int) -> None:
        """Remove a stored vector by id (it stops appearing in results)."""
        self._require_built()
        assert self._engine is not None
        self._engine.remove(vector_id)

    def threshold_policy(self) -> CorrelatedThreshold:
        """The bound threshold policy (exposed for inspection and ablations)."""
        self._require_built()
        assert self._engine is not None
        policy = self._engine.threshold_policy
        assert isinstance(policy, CorrelatedThreshold)
        return policy

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _require_built(self) -> None:
        if self._engine is None:
            raise RuntimeError("the index has not been built yet; call build() first")

    def __repr__(self) -> str:
        return (
            f"CorrelatedIndex(alpha={self._config.alpha:g}, "
            f"dimension={self._distribution.dimension}, indexed={self.num_indexed})"
        )
