"""Greedy top-down hierarchy construction with per-leaf split caching.

Every round finalizes the leaf with the highest splitting score (ties to the
lowest node id): Hierarchy.add_children records its Split and adds its K
children as new leaves. A leaf is prepared once: the builder's candidate
callback reads its rows and returns an upper bound on its score with a
callable that computes its Split, with a seed derived from the run seed and
the node id, so results do not depend on evaluation order and caching is
transparent. A round evaluates leaves in decreasing bound and leaves out
those whose bound is below the best score found: a lazy greedy evaluation
that picks the same leaf as evaluating every candidate, without solving the
losers. The max-margin builder bounds a leaf's score from its rows at
every K (split.score_bound), HKM-D by the score itself; a builder without
a bound (math.inf, HKM) evaluates every splittable leaf. The split
objective of a built tree is read from its split records.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Dataset, Hierarchy, Split, TreeNode, ancestor_chain
from .errors import UnsplittableNodeError, ValidationError
from .objective import Regularizer, RegularizerConfig
from .objective import node_objective  # noqa: F401  perfbench/layers.py traces calls through hier.node_objective
from .split import score_bound, split_node

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StoppingCriterion:
    """Exactly one of: grow until max_leaves leaves exist; stop once every
    leaf is smaller than min_node_size; stop at a height limit."""

    max_leaves: int | None = None
    min_node_size: int | None = None
    max_height: int | None = None

    def __post_init__(self):
        set_fields = [v for v in (self.max_leaves, self.min_node_size, self.max_height) if v is not None]
        if len(set_fields) != 1:
            raise ValidationError("exactly one stopping bound must be set")
        if set_fields[0] < 1:
            raise ValidationError("the stopping bound must be >= 1")


@dataclass(frozen=True)
class BuildConfig:
    k: int
    stop: StoppingCriterion
    reg: RegularizerConfig
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.k}")


def node_seed(seed: int, node_id: int) -> int:
    """Deterministic per-node seed; stable across platforms and evaluation
    order (unlike salted hash())."""
    return int(np.random.SeedSequence([seed, node_id]).generate_state(1)[0])


def should_stop(hierarchy: Hierarchy, stop: StoppingCriterion) -> bool:
    if stop.max_leaves is not None:
        return len(hierarchy.leaves()) >= stop.max_leaves
    if stop.min_node_size is not None:
        return all(leaf.data.size < stop.min_node_size for leaf in hierarchy.leaves())
    return hierarchy.height() >= stop.max_height


def grow_tree(
    dataset: Dataset,
    k: int,
    stop: StoppingCriterion,
    candidate: Callable[[Hierarchy, TreeNode], tuple[float, Callable[[], Split]]],
) -> Hierarchy:
    """Shared greedy builder used by the max-margin method and the k-means
    baselines. `candidate(hierarchy, leaf)`, called once per splittable leaf,
    returns an upper bound on the leaf's score (math.inf where the builder
    has none) and a callable returning its candidate Split. A leaf whose
    split raises UnsplittableNodeError, or leaves a cluster empty, is
    unsplittable. Each round evaluates the pending leaves in decreasing
    bound (ties to the lowest id) and leaves unevaluated every leaf whose
    bound is below the best score among the current leaves: that leaf cannot
    win the round, and a later round evaluates it if its bound no longer
    falls short. The chosen leaves are those of evaluating every leaf."""
    if dataset.n < k:
        raise ValidationError(f"dataset of {dataset.n} instances cannot be split into {k} clusters")
    hierarchy = Hierarchy.with_root(dataset)
    cache: dict[int, Split | None] = {}
    prepared: dict[int, tuple[float, Callable[[], Split]]] = {}  # pending leaves, popped when evaluated
    round_no = 0

    def scored() -> list[tuple[int, Split]]:
        return [
            (leaf.id, cache[leaf.id])
            for leaf in hierarchy.leaves()
            if cache.get(leaf.id) is not None and np.isfinite(cache[leaf.id].score)
        ]

    while not should_stop(hierarchy, stop):
        pending = []
        for leaf in sorted(hierarchy.leaves(), key=lambda node: node.id):
            if leaf.id in cache:
                continue
            if leaf.data.size < k:
                cache[leaf.id] = None
                continue
            if leaf.id not in prepared:
                prepared[leaf.id] = candidate(hierarchy, leaf)
            pending.append(leaf)
        pending.sort(key=lambda node: -prepared[node.id][0])  # stable: equal bounds stay in id order
        best = max((split.score for _, split in scored()), default=-math.inf)
        for position, leaf in enumerate(pending):
            if prepared[leaf.id][0] < best:
                if logger.isEnabledFor(logging.DEBUG):
                    deferred = ", ".join(f"{node.id} (bound {prepared[node.id][0]:.6e})" for node in pending[position:])
                    logger.debug("round %d: deferred leaves %s below the best score %.6e", round_no + 1, deferred, best)
                break
            try:
                split = prepared.pop(leaf.id)[1]()
            except UnsplittableNodeError:
                split = None
            if split is not None and np.unique(split.labels).size < k:
                split = None  # an empty cluster would be an empty leaf
            cache[leaf.id] = split
            if split is not None and np.isfinite(split.score):
                best = max(best, split.score)

        candidates = scored()
        if not candidates:
            hierarchy.incomplete = True
            logger.warning("no splittable leaf remains before the stopping criterion was met")
            break
        best_id, best = max(candidates, key=lambda item: (item[1].score, -item[0]))

        hierarchy.add_children(hierarchy.node(best_id), best)
        round_no += 1
        logger.info(
            "round %d: split node %d (score %.6e), %d leaves",
            round_no,
            best_id,
            best.score,
            len(hierarchy.leaves()),
        )
    return hierarchy


def build_hierarchy(dataset: Dataset, config: BuildConfig) -> Hierarchy:
    """Greedy max-margin hierarchy over the dataset. A leaf's rows and
    Regularizer are made once, for its score bound (score_bound, at every K)
    and its split_node call."""

    def candidate(hierarchy: Hierarchy, leaf: TreeNode) -> tuple[float, Callable[[], Split]]:
        x = leaf.data.features  # the leaf's one copy of its rows
        regularizer = Regularizer(config.reg, ancestor_chain(hierarchy, leaf.id), config.k, x.shape[1])
        seed = node_seed(config.seed, leaf.id)
        return score_bound(x, regularizer, config.k), lambda: split_node(x, regularizer, config.k, seed)

    return grow_tree(dataset, config.k, config.stop, candidate)


def global_objective(hierarchy: Hierarchy) -> float:
    """Sum of the split objectives, each the last trace entry of a non-leaf's
    split; a k-means-built or hand-built tree has none and is an error."""
    total = 0.0
    for node in hierarchy.non_leaves():
        if node.split is None or not node.split.trace:
            raise ValidationError(f"non-leaf node {node.id} has no fitted split objective")
        total += node.split.trace[-1]
    return total
