"""Recursive path (filter) generation — the heart of the data structure.

Section 3 of the paper defines the mapping from a vector ``x`` to its set of
filters ``F(x)``:

* start from the empty path;
* a path ``v`` of length ``j`` whose item-probability product has dropped to
  ``∏_{i ∈ v} p_i ≤ 1/n`` stops recursing and becomes a filter of ``x``;
* otherwise every set bit ``i`` of ``x`` not already on the path is appended
  with probability ``s(x, j, i)``, decided by the shared hash
  ``h_{j+1}(v ∘ i) < s(x, j, i)``.

The construction guarantees that a path chosen by both ``x`` and ``q`` is the
same object (same item sequence), because the hash value of an extension
depends only on the path content, the item and the level — never on the
vector doing the extending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.kernels import KEYS_FOLDED, PATHS_EXTENDED, get_impl, new_counters
from repro.core.thresholds import BoundThreshold
from repro.hashing.pairwise import EMPTY_PATH_KEY, PathHasher, extend_key, fold_path

Path = tuple[int, ...]


def paths_to_csr(paths: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of paths into CSR form ``(items, offsets)``.

    Path ``k`` occupies ``items[offsets[k]:offsets[k + 1]]``.  This is where
    tuples enter the array pipeline: the small-batch generator's output and
    the tuple-taking lookups of the postings stores.
    """
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    items = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1]))
    return items, offsets


#: Batches of at most this many vectors take the tuple-frontier path in
#: :meth:`PathGenerator.generate_batch` instead of the CSR kernel pipeline.
#: The pipeline's fixed per-level array-operation cost dominates tiny
#: frontiers (the single-query surfaces generate one vector per repetition),
#: while both paths produce bit-identical results and counter totals.
_SMALL_BATCH_MAX = 8


class _SmallBatchState:
    """Per-vector bookkeeping of the small-batch tuple-frontier path.

    Frontier entries are ``(path, prefix_key, log_product, positions)``
    tuples, where ``positions`` lists the vector's (sorted) item positions
    still available for extension — a child inherits its parent's list minus
    the item just consumed.
    """

    __slots__ = (
        "items",
        "log_probs",
        "bound",
        "frontier",
        "finished_paths",
        "finished_keys",
        "truncated",
        "expansions",
        "active",
    )

    def __init__(
        self,
        items: list[int],
        log_probs: list[float],
        bound: BoundThreshold,
        root_key: int,
    ):
        self.items = items
        self.log_probs = log_probs
        self.bound = bound
        self.frontier: list[tuple[Path, int, float, list[int]]] = (
            [((), root_key, 0.0, list(range(len(items))))] if items else []
        )
        self.finished_paths: list[Path] = []
        self.finished_keys: list[int] = []
        self.truncated = False
        self.expansions = 0
        self.active = bool(items)


def default_max_depth(num_vectors: int, max_probability: float) -> int:
    """Depth at which the product stopping rule must have fired.

    A path of length ``L`` consisting of items with probability at most
    ``p_max`` has product at most ``p_max^L``, so the stopping rule
    ``∏ p ≤ 1/n`` fires by ``L = ceil(log n / log(1/p_max))``.  Two extra
    levels are added as slack for rounding.
    """
    if num_vectors <= 1:
        return 2
    bounded = min(max(max_probability, 1e-12), 0.9999)
    return int(math.ceil(math.log(num_vectors) / math.log(1.0 / bounded))) + 2


@dataclass
class PathGenerationResult:
    """The filters of one vector as path tuples.

    This is what the serial reference :meth:`PathGenerator.generate` returns
    and what :meth:`PathBatch.result` produces for one vector of a batch, so
    tests compare the two directly.  ``keys`` carries the folded 64-bit key
    (:func:`~repro.hashing.pairwise.fold_path`) of each path, parallel to
    ``paths``; the field is validated against ``paths`` because consumers
    zip the two lists.
    """

    paths: list[Path]
    truncated: bool
    expansions: int
    keys: list[int]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.paths):
            raise ValueError(
                f"got {len(self.keys)} keys for {len(self.paths)} paths; "
                "need exactly one key per path"
            )


@dataclass(frozen=True, eq=False)
class PathBatch:
    """The filters of a batch of vectors as one CSR object.

    Path ``k`` is ``items[path_offsets[k]:path_offsets[k + 1]]`` and its
    folded 64-bit key is ``keys[k]``.  Vector ``v`` owns paths
    ``vector_offsets[v]:vector_offsets[v + 1]``, in the serial generation
    order of :meth:`PathGenerator.generate`; ``truncated[v]`` and
    ``expansions[v]`` are its ``max_paths`` flag and node-expansion count.
    The batch runs unchanged from the generator into
    :meth:`~repro.core.inverted_index.InvertedFilterIndex.add` and the probe
    pipeline; :meth:`result` is the per-vector tuple view.
    """

    items: np.ndarray
    path_offsets: np.ndarray
    keys: np.ndarray
    vector_offsets: np.ndarray
    truncated: np.ndarray
    expansions: np.ndarray

    @property
    def num_vectors(self) -> int:
        return int(self.vector_offsets.size) - 1

    @property
    def num_paths(self) -> int:
        return int(self.keys.size)

    def path_counts(self) -> np.ndarray:
        """Number of paths of each vector."""
        return np.diff(self.vector_offsets)

    def result(self, vector: int) -> PathGenerationResult:
        """Vector ``vector``'s filters as tuples."""
        start = int(self.vector_offsets[vector])
        end = int(self.vector_offsets[vector + 1])
        bounds = self.path_offsets[start : end + 1].tolist()
        flat = self.items[bounds[0] : bounds[-1]].tolist()
        base = bounds[0]
        return PathGenerationResult(
            paths=[tuple(flat[lo - base : hi - base]) for lo, hi in zip(bounds, bounds[1:])],
            truncated=bool(self.truncated[vector]),
            expansions=int(self.expansions[vector]),
            keys=self.keys[start:end].tolist(),
        )


class PathGenerator:
    """Generates the chosen paths ``F(x)`` of a vector.

    Parameters
    ----------
    probabilities:
        Item-level probabilities ``p_i`` used by the stopping rule.
    hasher:
        The shared per-level path hasher.  Indexes and queries must use the
        *same* hasher instance (or one built from the same seed) for filters
        to collide.
    stop_product:
        A path stops recursing once the product of its item probabilities is
        at most this value (the paper uses ``1/n``).  ``None`` disables the
        product rule (then only ``max_depth`` stops recursion).
    max_depth:
        Hard cap on the path length.
    collect_at_max_depth:
        If True, paths still active when the depth cap is reached are
        returned as filters (Chosen Path baseline behaviour); if False they
        are discarded (the paper's structure, where the cap is only a safety
        net).
    max_paths:
        Optional cap on the number of finished plus active paths per vector;
        when exceeded, generation stops early and the result is flagged as
        truncated.
    probability_floor:
        Items with probability below this floor are treated as having the
        floor value in the stopping product, so a single extremely rare item
        cannot make the product underflow to zero.
    """

    def __init__(
        self,
        probabilities: np.ndarray | Sequence[float],
        hasher: PathHasher,
        stop_product: float | None,
        max_depth: int,
        collect_at_max_depth: bool = False,
        max_paths: int | None = None,
        probability_floor: float = 1e-12,
    ):
        self._probabilities = np.asarray(probabilities, dtype=np.float64)
        if self._probabilities.ndim != 1 or self._probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if stop_product is not None and stop_product <= 0.0:
            raise ValueError(f"stop_product must be positive, got {stop_product}")
        if max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if max_paths is not None and max_paths <= 0:
            raise ValueError(f"max_paths must be positive, got {max_paths}")
        self._hasher = hasher
        self._stop_product = stop_product
        self._max_depth = int(max_depth)
        self._collect_at_max_depth = bool(collect_at_max_depth)
        self._max_paths = max_paths
        self._probability_floor = float(probability_floor)

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def stop_product(self) -> float | None:
        return self._stop_product

    def ensure_hash_levels(self) -> None:
        """Pre-instantiate every hash level this generator can reach.

        The per-level hash functions are created lazily; calling this before
        fanning generation out over worker threads guarantees the shared
        family is only ever read concurrently.
        """
        self._hasher.ensure_levels(self._max_depth)

    def generate(
        self,
        items: Sequence[int],
        threshold: BoundThreshold,
        counters: np.ndarray | None = None,
    ) -> PathGenerationResult:
        """Generate the filters of the vector whose set bits are ``items``.

        This is the serial reference implementation pinned against the
        kernel-backed :meth:`generate_batch` by the equivalence property
        suites; it intentionally stays a plain tuple-walking loop.

        Parameters
        ----------
        items:
            The set-bit indices of the vector.  Order does not matter; the
            generator iterates items in sorted order for determinism.
        threshold:
            The vector-bound threshold policy supplying ``s(x, j, i)``.
        counters:
            Optional kernel counter vector (:func:`repro.core.kernels.
            new_counters`); when given, ``keys_folded`` and
            ``paths_extended`` are accumulated into it.  ``keys_folded``
            counts every candidate of every level reached, as the batched
            kernels fold them: on a ``max_paths`` cutoff the candidates of
            the level's remaining entries count too.

        Returns
        -------
        PathGenerationResult
            The finished paths, whether generation was truncated by the
            ``max_paths`` cap, and the number of node expansions performed
            (a proxy for construction work, Lemma 6).
        """
        sorted_items = sorted(int(item) for item in items)
        if not sorted_items:
            return PathGenerationResult(paths=[], truncated=False, expansions=0, keys=[])
        if sorted_items[0] < 0 or sorted_items[-1] >= self._probabilities.size:
            raise ValueError("vector contains an item outside the universe")

        item_array = np.asarray(sorted_items, dtype=np.int64)
        item_probabilities = np.maximum(
            self._probabilities[item_array], self._probability_floor
        )

        finished_paths: list[Path] = []
        finished_keys: list[int] = []
        truncated = False
        expansions = 0
        keys_folded = 0
        paths_extended = 0

        # Each frontier entry: (path tuple, folded path key, log-product of
        # probabilities, boolean mask of items already used).  Carrying the
        # key forward avoids re-folding the prefix at every expansion, and
        # log-products avoid underflow for long paths of rare items.
        log_stop = math.log(self._stop_product) if self._stop_product is not None else None
        frontier: list[tuple[Path, int, float, np.ndarray]] = [
            ((), fold_path(()), 0.0, np.zeros(len(sorted_items), dtype=bool))
        ]

        for level in range(self._max_depth):
            if not frontier:
                break
            next_frontier: list[tuple[Path, int, float, np.ndarray]] = []
            keys_folded += sum(int(np.count_nonzero(~entry[3])) for entry in frontier)
            for path, path_key, log_product, used_mask in frontier:
                available = ~used_mask
                if not np.any(available):
                    continue
                expansions += 1
                candidate_positions = np.flatnonzero(available)
                candidate_items = item_array[candidate_positions]
                probabilities = threshold.sampling_probabilities(level, candidate_items)
                hash_values = self._hasher.extension_values_from_key(
                    path_key, candidate_items, level
                )
                chosen = hash_values < probabilities
                for position, item, take in zip(
                    candidate_positions, candidate_items, chosen
                ):
                    if not take:
                        continue
                    paths_extended += 1
                    new_path = path + (int(item),)
                    new_key = extend_key(path_key, int(item))
                    new_log_product = log_product + math.log(item_probabilities[position])
                    if log_stop is not None and new_log_product <= log_stop:
                        finished_paths.append(new_path)
                        finished_keys.append(new_key)
                    else:
                        new_mask = used_mask.copy()
                        new_mask[position] = True
                        next_frontier.append((new_path, new_key, new_log_product, new_mask))
                    if (
                        self._max_paths is not None
                        and len(finished_paths) + len(next_frontier) >= self._max_paths
                    ):
                        truncated = True
                        break
                if truncated:
                    break
            frontier = next_frontier
            if truncated:
                break

        if self._collect_at_max_depth:
            for path, path_key, _log_product, _mask in frontier:
                finished_paths.append(path)
                finished_keys.append(path_key)

        if counters is not None:
            counters[KEYS_FOLDED] += keys_folded
            counters[PATHS_EXTENDED] += paths_extended

        return PathGenerationResult(
            paths=finished_paths,
            truncated=truncated,
            expansions=expansions,
            keys=finished_keys,
        )

    def generate_batch(
        self,
        items_per_vector: Sequence[Sequence[int]],
        thresholds: Sequence[BoundThreshold],
        counters: np.ndarray | None = None,
    ) -> PathBatch:
        """Generate the filters of many vectors in one level-synchronous pass.

        Semantically equivalent to ``[generate(items, bound) for items, bound
        in zip(...)]`` — ``result(v)`` of the returned :class:`PathBatch`
        equals the serial result of vector ``v``: same paths in the same
        order, same keys, truncation and expansion counts — but the whole
        batch frontier is carried as flat CSR arrays (extended keys,
        available-item bitmask words, log products) and each level is
        extended by a single ``extend_level`` kernel call
        (:func:`repro.core.kernels.get_impl`), so the per-candidate work runs
        in compiled or vectorised code instead of a Python loop per frontier
        tuple.  Every chosen extension becomes a node of an ``(item, parent,
        depth)`` arena; the output paths are filled from that arena with at
        most ``max_depth`` vectorised parent-pointer gathers.

        ``counters`` (optional, from :func:`repro.core.kernels.new_counters`)
        accumulates the kernel's per-stage work counts.
        """
        if len(items_per_vector) != len(thresholds):
            raise ValueError("need exactly one threshold per vector")
        num_vectors = len(items_per_vector)
        if counters is None:
            counters = new_counters()
        if num_vectors <= _SMALL_BATCH_MAX:
            return self._generate_batch_small(items_per_vector, thresholds, counters)
        impl = get_impl()

        # --- per-vector universes: sorted items + clamped log-probabilities ---
        bounds = list(thresholds)
        vec_item_arrays: list[np.ndarray] = []
        item_offsets = np.zeros(num_vectors + 1, dtype=np.int64)
        max_items = 0
        for index, members in enumerate(items_per_vector):
            sorted_items = sorted(int(item) for item in members)
            if sorted_items and (
                sorted_items[0] < 0 or sorted_items[-1] >= self._probabilities.size
            ):
                raise ValueError("vector contains an item outside the universe")
            item_array = np.asarray(sorted_items, dtype=np.int64)
            vec_item_arrays.append(item_array)
            item_offsets[index + 1] = item_offsets[index] + item_array.size
            max_items = max(max_items, item_array.size)
        items_concat = np.concatenate(vec_item_arrays) if max_items else np.zeros(0, dtype=np.int64)
        if items_concat.size:
            clamped = np.maximum(self._probabilities[items_concat], self._probability_floor)
            # math.log per element keeps the values bit-identical to the
            # serial generator's per-item math.log calls.
            logs_concat = np.array(
                [math.log(value) for value in clamped.tolist()], dtype=np.float64
            )
        else:
            logs_concat = np.zeros(0, dtype=np.float64)

        # --- root frontier: one entry per non-empty vector ---------------
        # Frontier entry fields, index-parallel and grouped by vector
        # ascending: owning vector, extended path key, log product, arena
        # node of the last item (-1 for the root), and the available-item
        # bitmask (bit p set = vector item position p still usable).
        f_vec = np.flatnonzero(np.diff(item_offsets)).astype(np.int64)
        word_count = max(1, (max_items + 63) >> 6)
        f_keys = np.full(f_vec.size, np.uint64(EMPTY_PATH_KEY), dtype=np.uint64)
        f_logs = np.zeros(f_vec.size, dtype=np.float64)
        f_nodes = np.full(f_vec.size, -1, dtype=np.int64)
        f_masks = np.zeros((f_vec.size, word_count), dtype=np.uint64)
        for row, vector in enumerate(f_vec.tolist()):
            size = int(item_offsets[vector + 1] - item_offsets[vector])
            full_words, remainder = divmod(size, 64)
            f_masks[row, :full_words] = np.uint64(0xFFFFFFFFFFFFFFFF)
            if remainder:
                f_masks[row, full_words] = np.uint64((1 << remainder) - 1)

        # Parent-pointer arena of every chosen extension, with each node's
        # depth (its path length), and the output paths as (vector, arena
        # node, key) records; the paths are materialised from the arena at
        # the end.
        empty = np.zeros(0, dtype=np.int64)
        arena_items = [empty]
        arena_parents = [empty]
        arena_depths = [empty]
        arena_size = 0
        out_vec = [empty]
        out_nodes = [empty]
        out_keys = [np.zeros(0, dtype=np.uint64)]
        finished_counts = np.zeros(num_vectors, dtype=np.int64)
        expansions = np.zeros(num_vectors, dtype=np.int64)
        truncated = np.zeros(num_vectors, dtype=np.bool_)
        #: Final frontier of vectors stopped by ``max_paths``: children chosen
        #: up to the cutoff, exactly what the serial generator leaves behind.
        parked: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        use_stop = self._stop_product is not None
        log_stop = math.log(self._stop_product) if self._stop_product is not None else 0.0
        max_paths = -1 if self._max_paths is None else int(self._max_paths)

        for level in range(self._max_depth):
            if f_vec.size == 0:
                break
            # Little-endian bit enumeration: word w bit b = item position
            # w * 64 + b.  np.nonzero walks C-order, so candidates come out
            # entry-major with positions ascending — the serial order.
            available = np.unpackbits(f_masks.view(np.uint8), axis=1, bitorder="little")
            entry_index, position = np.nonzero(available)
            if entry_index.size == 0:
                # Serial semantics: entries with no remaining items are
                # dropped, never collected — empty the frontier before
                # leaving the level loop.
                f_vec = f_vec[:0]
                f_keys = f_keys[:0]
                f_logs = f_logs[:0]
                f_nodes = f_nodes[:0]
                f_masks = f_masks[:0]
                break
            counts = np.bincount(entry_index, minlength=f_vec.size)
            used_entries = np.flatnonzero(counts)
            entry_vector = f_vec[used_entries]
            entry_offsets = np.zeros(used_entries.size + 1, dtype=np.int64)
            np.cumsum(counts[used_entries], out=entry_offsets[1:])

            cand_vec = f_vec[entry_index]
            gather = item_offsets[cand_vec] + position
            cand_items = items_concat[gather]

            # Thresholds are elementwise-pure, so evaluating each vector's
            # item universe once per level and gathering per candidate is
            # bit-identical to per-entry evaluation.
            level_probs = np.empty(items_concat.size, dtype=np.float64)
            for vector in np.unique(cand_vec).tolist():
                segment = slice(int(item_offsets[vector]), int(item_offsets[vector + 1]))
                level_probs[segment] = bounds[vector].sampling_probabilities(
                    level, vec_item_arrays[vector]
                )

            coeff_a, coeff_b = self._hasher.level_coefficients(level)
            new_keys, status, new_logs, level_expansions, level_truncated = impl.extend_level(
                f_keys[entry_index],
                cand_items,
                level_probs[gather],
                f_logs[entry_index],
                logs_concat[gather],
                entry_offsets,
                entry_vector,
                num_vectors,
                finished_counts,
                log_stop,
                use_stop,
                max_paths,
                coeff_a,
                coeff_b,
                counters,
            )
            expansions += level_expansions

            kept = np.flatnonzero(status)
            kept_status = status[kept]
            kept_vec = cand_vec[kept]
            kept_keys = new_keys[kept]
            node_ids = arena_size + np.arange(kept.size, dtype=np.int64)
            arena_items.append(cand_items[kept])
            arena_parents.append(f_nodes[entry_index[kept]])
            arena_depths.append(np.full(kept.size, level + 1, dtype=np.int64))
            arena_size += int(kept.size)

            finished_sel = kept_status == 2
            if finished_sel.any():
                finished_vectors = kept_vec[finished_sel]
                out_vec.append(finished_vectors)
                out_nodes.append(node_ids[finished_sel])
                out_keys.append(kept_keys[finished_sel])
                finished_counts += np.bincount(finished_vectors, minlength=num_vectors)

            child_sel = kept_status == 1
            child_cand = kept[child_sel]
            child_vec = kept_vec[child_sel]
            child_keys = kept_keys[child_sel]
            child_nodes = node_ids[child_sel]
            child_logs = new_logs[child_cand]
            child_positions = position[child_cand]
            child_masks = f_masks[entry_index[child_cand]]
            if child_positions.size:
                rows = np.arange(child_positions.size, dtype=np.int64)
                child_masks[rows, child_positions >> 6] &= ~(
                    np.uint64(1) << (child_positions & 63).astype(np.uint64)
                )

            if level_truncated.any():
                truncated |= level_truncated
                parked_sel = level_truncated[child_vec]
                for vector in np.flatnonzero(level_truncated).tolist():
                    vector_children = child_vec == vector
                    parked[int(vector)] = (
                        child_nodes[vector_children],
                        child_keys[vector_children],
                    )
                live = ~parked_sel
                child_vec = child_vec[live]
                child_keys = child_keys[live]
                child_nodes = child_nodes[live]
                child_logs = child_logs[live]
                child_masks = child_masks[live]

            f_vec = child_vec
            f_keys = child_keys
            f_logs = child_logs
            f_nodes = child_nodes
            f_masks = np.ascontiguousarray(child_masks)

        # --- materialisation: the output paths, grouped by vector ---------
        # Finished records accumulate level-major but grouped by vector
        # within each level, and the collected tail (the surviving frontier,
        # or the children parked by ``max_paths``) comes after them; a
        # stable sort by vector therefore recovers each vector's serial
        # generation order.
        if self._collect_at_max_depth:
            out_vec.append(f_vec)
            out_nodes.append(f_nodes)
            out_keys.append(f_keys)
            for vector, (tail_nodes, tail_keys) in parked.items():
                out_vec.append(np.full(tail_nodes.size, vector, dtype=np.int64))
                out_nodes.append(tail_nodes)
                out_keys.append(tail_keys)
        path_vec = np.concatenate(out_vec)
        order = np.argsort(path_vec, kind="stable")
        nodes = np.concatenate(out_nodes)[order]
        keys = np.concatenate(out_keys)[order]
        vector_offsets = np.zeros(num_vectors + 1, dtype=np.int64)
        np.cumsum(np.bincount(path_vec, minlength=num_vectors), out=vector_offsets[1:])

        # Fill every path from its last item backwards: one gather per
        # level walks all paths' parent pointers at once.
        node_items = np.concatenate(arena_items)
        node_parents = np.concatenate(arena_parents)
        path_offsets = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(np.concatenate(arena_depths)[nodes], out=path_offsets[1:])
        items = np.empty(int(path_offsets[-1]), dtype=np.int64)
        cursor = path_offsets[1:] - 1
        while nodes.size:
            items[cursor] = node_items[nodes]
            nodes = node_parents[nodes]
            live = nodes >= 0
            nodes = nodes[live]
            cursor = cursor[live] - 1
        return PathBatch(
            items=items,
            path_offsets=path_offsets,
            keys=keys,
            vector_offsets=vector_offsets,
            truncated=truncated,
            expansions=expansions,
        )

    def _generate_batch_small(
        self,
        items_per_vector: Sequence[Sequence[int]],
        thresholds: Sequence[BoundThreshold],
        counters: np.ndarray,
    ) -> PathBatch:
        """Tuple-frontier batch generation for very small batches.

        The CSR kernel pipeline pays a fixed number of array operations per
        level, which dominates when the whole frontier is a handful of
        entries — the single-query surfaces call ``generate_batch`` with one
        vector per repetition.  Below ``_SMALL_BATCH_MAX`` vectors this path
        carries the frontier as Python tuples instead, still hashing each
        level's candidates in one flat call, and produces bit-identical
        results and counter totals: ``keys_folded`` counts every hashed
        candidate and ``paths_extended`` every chosen extension up to the
        truncation cutoff, exactly like ``extend_level``.
        """
        log_stop = (
            math.log(self._stop_product) if self._stop_product is not None else None
        )
        root_key = fold_path(())
        states: list[_SmallBatchState] = []
        for members, bound in zip(items_per_vector, thresholds):
            sorted_items = sorted(int(item) for item in members)
            if sorted_items and (
                sorted_items[0] < 0 or sorted_items[-1] >= self._probabilities.size
            ):
                raise ValueError("vector contains an item outside the universe")
            if sorted_items:
                item_array = np.asarray(sorted_items, dtype=np.int64)
                clamped = np.maximum(
                    self._probabilities[item_array], self._probability_floor
                )
                log_probs = [math.log(value) for value in clamped.tolist()]
            else:
                log_probs = []
            states.append(_SmallBatchState(sorted_items, log_probs, bound, root_key))

        for level in range(self._max_depth):
            # -- collection: flatten every candidate extension of the level --
            work: list[tuple[_SmallBatchState, list, int]] = []
            key_parts: list[np.ndarray] = []
            item_parts: list[np.ndarray] = []
            probability_parts: list[np.ndarray] = []
            for state in states:
                if not state.active or not state.frontier:
                    continue
                entries: list = []
                flat_items: list[int] = []
                entry_keys: list[int] = []
                entry_counts: list[int] = []
                items = state.items
                for entry in state.frontier:
                    positions = entry[3]
                    if not positions:
                        continue
                    entries.append((entry, positions))
                    flat_items.extend(items[position] for position in positions)
                    entry_keys.append(entry[1])
                    entry_counts.append(len(positions))
                if not entries:
                    state.frontier = []
                    continue
                item_array = np.asarray(flat_items, dtype=np.int64)
                probability_parts.append(
                    state.bound.sampling_probabilities(level, item_array)
                )
                item_parts.append(item_array)
                key_parts.append(
                    np.repeat(np.asarray(entry_keys, dtype=np.uint64), entry_counts)
                )
                work.append((state, entries, len(flat_items)))
            if not work:
                break

            extended_keys, hash_values = self._hasher.extension_pairs_flat(
                np.concatenate(key_parts), np.concatenate(item_parts), level
            )
            chosen_flat = hash_values < np.concatenate(probability_parts)
            counters[KEYS_FOLDED] += int(chosen_flat.size)

            # -- materialisation: replay the serial order per vector --------
            query_start = 0
            for state, entries, total_candidates in work:
                offset = query_start
                query_start += total_candidates
                next_frontier: list[tuple[Path, int, float, list[int]]] = []
                for entry, positions in entries:
                    if state.truncated:
                        break
                    path, _key, log_product, _positions = entry
                    state.expansions += 1
                    for local_index, position in enumerate(positions):
                        if not chosen_flat[offset + local_index]:
                            continue
                        counters[PATHS_EXTENDED] += 1
                        new_path = path + (state.items[position],)
                        new_log_product = log_product + state.log_probs[position]
                        if log_stop is not None and new_log_product <= log_stop:
                            state.finished_paths.append(new_path)
                            state.finished_keys.append(
                                int(extended_keys[offset + local_index])
                            )
                        else:
                            next_frontier.append(
                                (
                                    new_path,
                                    int(extended_keys[offset + local_index]),
                                    new_log_product,
                                    [other for other in positions if other != position],
                                )
                            )
                        if (
                            self._max_paths is not None
                            and len(state.finished_paths) + len(next_frontier)
                            >= self._max_paths
                        ):
                            state.truncated = True
                            break
                    offset += len(positions)
                state.frontier = next_frontier
                if state.truncated:
                    state.active = False

        paths: list[Path] = []
        keys: list[int] = []
        vector_offsets = [0]
        for state in states:
            paths += state.finished_paths
            keys += state.finished_keys
            if self._collect_at_max_depth:
                for path, key, _log, _positions in state.frontier:
                    paths.append(path)
                    keys.append(key)
            vector_offsets.append(len(paths))
        items, path_offsets = paths_to_csr(paths)
        return PathBatch(
            items=items,
            path_offsets=path_offsets,
            keys=np.asarray(keys, dtype=np.uint64),
            vector_offsets=np.asarray(vector_offsets, dtype=np.int64),
            truncated=np.asarray([state.truncated for state in states], dtype=np.bool_),
            expansions=np.asarray([state.expansions for state in states], dtype=np.int64),
        )
