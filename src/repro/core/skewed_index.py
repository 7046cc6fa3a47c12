"""The adversarial-query skew-adaptive index (Theorem 2).

:class:`SkewAdaptiveIndex` answers Braun-Blanquet similarity search queries
against a dataset sampled from a known product distribution
``D[p_1, ..., p_d]``.  The sampling thresholds follow Section 5:
``s(x, j, i) = 1/(b1 |x| − j)``, the recursion stops once the probability
product along a path drops below ``1/n``, and the skew of the distribution
enters through that stopping rule — paths through rare items terminate after
very few steps, while paths through frequent items must grow long before
their collision probability with uncorrelated vectors is under control.

Typical usage::

    from repro import SkewAdaptiveIndex, ItemDistribution

    distribution = ItemDistribution(probabilities)
    index = SkewAdaptiveIndex(distribution, b1=0.5, seed=7)
    index.build(dataset)                      # iterable of item-id sets
    match, stats = index.query(query_set)     # index into dataset, or None
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.config import SkewAdaptiveIndexConfig
from repro.core.engine import FilterEngine
from repro.core.stats import BatchQueryStats, BuildStats, QueryStats
from repro.core.thresholds import AdversarialThreshold
from repro.data.distributions import ItemDistribution

SetLike = Iterable[int]


class SkewAdaptiveIndex:
    """Skew-adaptive set similarity search for adversarial queries.

    Parameters
    ----------
    distribution:
        The item-level distribution the dataset is drawn from, either an
        :class:`ItemDistribution` or a raw probability array.  For real data
        with unknown probabilities use
        :meth:`SkewAdaptiveIndex.from_collection`, which plugs in empirical
        frequencies (Section 9 of the paper).
    b1:
        Braun-Blanquet similarity threshold: a query returns a vector ``x``
        with ``B(x, q) >= b1`` when one exists (with constant probability per
        the paper's guarantee, boosted by repetitions).
    config:
        Full configuration object; when given, ``b1`` and ``seed`` arguments
        are ignored.
    seed:
        Hash-function seed.
    """

    def __init__(
        self,
        distribution: ItemDistribution | Sequence[float] | np.ndarray,
        b1: float = 0.5,
        config: SkewAdaptiveIndexConfig | None = None,
        seed: int = 0,
    ):
        if config is None:
            config = SkewAdaptiveIndexConfig(b1=b1, seed=seed)
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
    def config(self) -> SkewAdaptiveIndexConfig:
        return self._config

    @property
    def distribution(self) -> ItemDistribution:
        return self._distribution

    @property
    def dimension(self) -> int:
        """Universe size ``d``: item ids run over ``[0, d)``."""
        return self._distribution.dimension

    @property
    def b1(self) -> float:
        return self._config.b1

    @property
    def build_stats(self) -> BuildStats:
        self._require_built()
        assert self._engine is not None
        return self._engine.build_stats

    @property
    def num_indexed(self) -> int:
        """Number of vectors currently indexed (0 before :meth:`build`)."""
        return len(self._engine.vectors) if self._engine is not None else 0

    @property
    def total_stored_filters(self) -> int:
        """Space usage in (filter, vector) postings across repetitions."""
        self._require_built()
        assert self._engine is not None
        return self._engine.total_stored_filters

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_collection(
        cls,
        collection: Iterable[SetLike],
        b1: float = 0.5,
        config: SkewAdaptiveIndexConfig | None = None,
        seed: int = 0,
        dimension: int | None = None,
    ) -> "SkewAdaptiveIndex":
        """Build an index over a dataset using its empirical item frequencies.

        The collection is materialised, empirical frequencies are computed,
        the index is constructed with those as the distribution, and the data
        is indexed immediately.
        """
        from repro.data.datasets import SetCollection

        if isinstance(collection, SetCollection):
            materialised = collection
        else:
            materialised = SetCollection(collection, dimension=dimension)
        index = cls(materialised.empirical_distribution(), b1=b1, config=config, seed=seed)
        index.build(materialised)
        return index

    def build(self, collection: Iterable[SetLike]) -> BuildStats:
        """Index a dataset (any iterable of item-id collections)."""
        vectors = [frozenset(int(item) for item in members) for members in collection]
        self._engine = self._create_engine(max(len(vectors), 1))
        return self._engine.build(vectors)

    def _create_engine(self, num_vectors: int) -> FilterEngine:
        """A fresh, empty engine for a dataset of the given size.

        Exposed so that :mod:`repro.core.serialization` can reconstruct the
        engine (hash functions, thresholds, stopping rule) from the saved
        configuration and then restore the saved state directly, without a
        placeholder build.
        """
        return FilterEngine(
            probabilities=self._distribution.probabilities,
            threshold_policy=AdversarialThreshold(self._config.b1),
            acceptance_threshold=self._config.b1,
            num_vectors_hint=num_vectors,
            repetitions=self._config.repetitions,
            max_depth=self._config.max_depth,
            collect_at_max_depth=False,
            stop_product_enabled=True,
            max_paths_per_vector=self._config.max_paths_per_vector,
            seed=self._config.seed,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, query: SetLike, mode: str = "first") -> tuple[int | None, QueryStats]:
        """Return the id of a stored vector with ``B(x, q) >= b1``, or ``None``.

        See :meth:`repro.core.engine.FilterEngine.query` for the ``mode``
        semantics.
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
        see :meth:`repro.core.engine.FilterEngine.query_batch` for the
        execution model and parameters (``shard_workers`` fans probes out
        per shard on mmap-loaded indexes).
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
        """Batched candidate enumeration as sorted id arrays (read-only).

        The CSR merge's native output; the similarity join consumes this to
        verify candidates without materialising per-query Python sets.
        """
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

    # ------------------------------------------------------------------ #
    # Dynamic updates
    # ------------------------------------------------------------------ #

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

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _require_built(self) -> None:
        if self._engine is None:
            raise RuntimeError("the index has not been built yet; call build() first")

    def __repr__(self) -> str:
        return (
            f"SkewAdaptiveIndex(b1={self._config.b1:g}, "
            f"dimension={self._distribution.dimension}, indexed={self.num_indexed})"
        )
