"""Greedy top-down hierarchy construction over one table of the current leaves.

Every round finalizes the leaf with the highest splitting score (ties to the
lowest node id): Hierarchy.add_children records its Split and adds its K
children as new leaves. A leaf of at least K rows is prepared once, when it
is created: the builder's candidate callback reads its rows and returns an
upper bound on its score with a callable that computes its Split, with a
seed derived from the run seed and the node id, so results do not depend on
evaluation order. A leaf is evaluated at most once, and evaluate_leaf alone
decides that it is unsplittable. A round evaluates leaves in decreasing
bound and leaves out those whose bound is below the best score found: a
lazy greedy evaluation that picks the same leaf as evaluating every
candidate, without solving the losers. The max-margin builder bounds a
leaf's score from its rows at every K (split.score_bound), HKM-D by the
score itself; a builder without a bound (math.inf, HKM) evaluates every
splittable leaf. The split objective of a built tree is read from its split
records."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Dataset, Hierarchy, Split, TreeNode, ancestor_chain, distinct
from .errors import ValidationError
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


def evaluate_leaf(split: Callable[[], Split], k: int) -> Split | None:
    """The leaf's Split from its candidate callable, or None when the leaf
    is unsplittable: the split leaves a cluster empty (an empty leaf) or its
    score is not finite."""
    result = split()
    if distinct(result.labels).size < k or not np.isfinite(result.score):
        return None
    return result


def grow_tree(
    dataset: Dataset,
    k: int,
    stop: StoppingCriterion,
    candidate: Callable[[Hierarchy, TreeNode], tuple[float, Callable[[], Split]]],
) -> Hierarchy:
    """Shared greedy builder used by the max-margin method and the k-means
    baselines. `candidate(hierarchy, leaf)`, called once for each leaf of at
    least k rows, returns an upper bound on the leaf's score (math.inf where
    the builder has none) and a callable returning its candidate Split;
    evaluate_leaf decides whether the leaf is splittable. The current leaves
    sit in one table of two dicts keyed by id: `pending` holds the prepared
    leaves not yet evaluated, `splits` the evaluated ones. Each round
    evaluates the pending leaves in decreasing bound (ties to the lowest id)
    and leaves unevaluated every leaf whose bound is below the best score
    found: that leaf cannot win the round, and a later round evaluates it if
    its bound no longer falls short. The chosen leaves are those of
    evaluating every leaf."""
    if dataset.n < k:
        raise ValidationError(f"dataset of {dataset.n} instances cannot be split into {k} clusters")
    hierarchy = Hierarchy.with_root(dataset)
    pending: dict[int, tuple[float, Callable[[], Split]]] = {}
    splits: dict[int, Split | None] = {}  # None: the leaf is unsplittable
    new_leaves = [hierarchy.root]
    round_no = 0
    while not should_stop(hierarchy, stop):
        for leaf in new_leaves:
            if leaf.data.size >= k:
                pending[leaf.id] = candidate(hierarchy, leaf)
        # the best evaluated leaf as (score, -id), so that ties go to the lowest id; (-inf, 0) before one is found
        ranked = [(split.score, -node_id) for node_id, split in splits.items() if split is not None]
        best, minus_id = max(ranked, default=(-math.inf, 0))
        order = sorted(pending, key=lambda node_id: (-pending[node_id][0], node_id))
        for position, node_id in enumerate(order):
            if pending[node_id][0] < best:
                if logger.isEnabledFor(logging.DEBUG):
                    deferred = ", ".join(f"{i} (bound {pending[i][0]:.6e})" for i in order[position:])
                    logger.debug("round %d: deferred leaves %s below the best score %.6e", round_no + 1, deferred, best)
                break
            split = splits[node_id] = evaluate_leaf(pending.pop(node_id)[1], k)
            if split is not None and (split.score, -node_id) > (best, minus_id):
                best, minus_id = split.score, -node_id
        if minus_id == 0:
            hierarchy.incomplete = True
            logger.warning("no splittable leaf remains before the stopping criterion was met")
            break

        node = hierarchy.node(-minus_id)
        hierarchy.add_children(node, splits.pop(node.id))
        new_leaves = [hierarchy.node(child_id) for child_id in node.child_ids]
        round_no += 1
        logger.info("round %d: split node %d (score %.6e), %d leaves", round_no, node.id, best, len(hierarchy.leaves()))
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
