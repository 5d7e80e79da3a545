"""Greedy top-down hierarchy construction with per-leaf split caching.

Every round finalizes the leaf with the highest splitting score (ties to the
lowest node id): Hierarchy.add_children records its Split and adds its K
children as new leaves. A leaf's candidate Split is computed once, with a
seed derived from the run seed and the node id, so results do not depend on
evaluation order and caching is transparent.
With an upper bound on a leaf's score (the max-margin builder at K = 2), a
round evaluates leaves in decreasing bound and leaves out those whose bound
is below the best score found: a lazy greedy evaluation that picks the same
leaf as evaluating every candidate, without solving the losers. Otherwise
every splittable leaf gets its candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Dataset, Hierarchy, Split, TreeNode, ancestor_chain
from .errors import UnsplittableNodeError, ValidationError
from .objective import Regularizer, RegularizerConfig, node_objective
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
    evaluate: Callable[[Hierarchy, TreeNode], Split],
    bound: Callable[[Hierarchy, TreeNode], float] | None = None,
) -> Hierarchy:
    """Shared greedy builder used by the max-margin method and the k-means
    baselines; `evaluate` returns a leaf's candidate Split (labels, weights,
    score). A leaf it raises UnsplittableNodeError on, or whose candidate
    leaves a cluster empty, is unsplittable.

    `bound`, when given, returns an upper bound on the score of a leaf's
    candidate; it is computed once per leaf. Each round then evaluates the
    pending leaves in decreasing bound (ties to the lowest id) and leaves
    uncached every leaf whose bound is below the best score among the
    current leaves: that leaf cannot win the round, and a later round
    evaluates it if its bound no longer falls short. The chosen leaves are
    those of evaluating every leaf."""
    if dataset.n < k:
        raise ValidationError(f"dataset of {dataset.n} instances cannot be split into {k} clusters")
    hierarchy = Hierarchy.with_root(dataset)
    cache: dict[int, Split | None] = {}
    bounds: dict[int, float] = {}
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
            if leaf.id not in bounds:
                bounds[leaf.id] = math.inf if bound is None else bound(hierarchy, leaf)
            pending.append(leaf)
        pending.sort(key=lambda node: -bounds[node.id])  # stable: equal bounds stay in id order
        best = max((candidate.score for _, candidate in scored()), default=-math.inf)
        for position, leaf in enumerate(pending):
            if bounds[leaf.id] < best:
                if logger.isEnabledFor(logging.DEBUG):
                    deferred = ", ".join(f"{node.id} (bound {bounds[node.id]:.6e})" for node in pending[position:])
                    logger.debug("round %d: deferred leaves %s below the best score %.6e", round_no + 1, deferred, best)
                break
            try:
                candidate = evaluate(hierarchy, leaf)
            except UnsplittableNodeError:
                candidate = None
            if candidate is not None and np.unique(candidate.labels).size < k:
                candidate = None  # an empty cluster would be an empty leaf
            cache[leaf.id] = candidate
            if candidate is not None and np.isfinite(candidate.score):
                best = max(best, candidate.score)

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
    """Greedy max-margin hierarchy over the dataset. At K = 2 the builder
    skips candidates whose score_bound is below the round's best score; at
    K >= 3 the weights are not antisymmetric, no bound holds, and it
    evaluates every leaf."""

    def evaluate(hierarchy: Hierarchy, leaf: TreeNode) -> Split:
        return split_node(
            leaf.data, ancestor_chain(hierarchy, leaf.id), config.k, config.reg, node_seed(config.seed, leaf.id)
        )

    def bound(hierarchy: Hierarchy, leaf: TreeNode) -> float:
        x = leaf.data.features
        return score_bound(x, Regularizer(config.reg, ancestor_chain(hierarchy, leaf.id), 2, x.shape[1]))

    return grow_tree(dataset, config.k, config.stop, evaluate, bound if config.k == 2 else None)


def global_objective(hierarchy: Hierarchy, dataset: Dataset, reg: RegularizerConfig) -> float:
    """Sum of the per-split objectives over all fitted non-leaf nodes
    (reporting only; the builder never materializes this)."""
    total = 0.0
    for node in hierarchy.non_leaves():
        if node.split is None:
            raise ValidationError(f"non-leaf node {node.id} has no fitted split")
        w = node.split.weights
        regularizer = Regularizer(reg, ancestor_chain(hierarchy, node.id), *w.shape)
        total += node_objective(w, node.split.labels, regularizer, node.data.features)
    return total
