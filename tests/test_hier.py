import numpy as np
import pytest

from margintree import (
    BuildConfig,
    RegularizerConfig,
    SolverConfig,
    StoppingCriterion,
    SyntheticSpec,
    ValidationError,
    build_hierarchy,
    generate_synthetic,
    global_objective,
    leaf_partition,
)
from margintree.core import Hierarchy, ancestor_chain
from margintree.export import hierarchy_to_dict, render_json
from margintree.hier import node_seed, should_stop
from margintree.split import split_node
from helpers import blob_dataset


def planted(seed=0, per_class=12):
    spec = SyntheticSpec(per_class=per_class, seed=seed)
    return generate_synthetic(spec)


def quick_config(stop, seed=0, k=2):
    return BuildConfig(
        k=k,
        stop=stop,
        reg=RegularizerConfig(alpha=1e-2, beta=1e-2),
        solver=SolverConfig(),
        seed=seed,
    )


class TestStoppingCriterion:
    def test_exactly_one_bound(self):
        with pytest.raises(ValidationError):
            StoppingCriterion()
        with pytest.raises(ValidationError):
            StoppingCriterion(max_leaves=2, max_height=3)

    def test_max_leaves(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=4)
        h = Hierarchy.with_root(ds)
        assert should_stop(h, StoppingCriterion(max_leaves=1))
        assert not should_stop(h, StoppingCriterion(max_leaves=2))

    def test_height(self):
        ds, _ = planted()
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_height=2)))
        assert h.height() == 2
        assert should_stop(h, StoppingCriterion(max_height=2))

    def test_min_node_size(self):
        ds, _ = planted()
        h = build_hierarchy(ds, quick_config(StoppingCriterion(min_node_size=30)))
        assert all(leaf.data.size < 30 for leaf in h.leaves())


class TestBuildHierarchy:
    def test_planted_structure(self):
        ds, _ = planted()
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=4)))
        assert len(h.leaves()) == 4
        assert len(h.non_leaves()) == 3
        part = leaf_partition(h)
        assert len(part) == ds.n

    def test_f_one_no_split(self):
        ds, _ = planted()
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=1)))
        assert len(h.nodes) == 1
        assert h.root.is_leaf

    def test_determinism_byte_identical(self):
        ds, _ = planted(seed=3)
        cfg = quick_config(StoppingCriterion(max_leaves=4), seed=11)
        h1 = build_hierarchy(ds, cfg)
        h2 = build_hierarchy(ds, cfg)
        assert render_json(hierarchy_to_dict(h1)) == render_json(hierarchy_to_dict(h2))

    def test_leaf_count_formula(self):
        ds, _ = planted()
        for rounds, leaves in ((1, 2), (2, 3), (3, 4)):
            h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=leaves)))
            assert len(h.leaves()) == leaves
            assert len(h.non_leaves()) == rounds

    def test_negative_alternation_budget_rejected(self):
        with pytest.raises(ValidationError, match="max_alternations must be >= 0"):
            BuildConfig(
                k=2,
                stop=StoppingCriterion(max_leaves=2),
                reg=RegularizerConfig(),
                solver=SolverConfig(),
                max_alternations=-1,
            )

    def test_n_less_than_k_rejected(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=2)
        with pytest.raises(ValidationError):
            build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=4), k=3))

    def test_unsplittable_everywhere_sets_flag(self):
        ds = blob_dataset(0, [[1.0, 0.0], [-1.0, 0.0]], per_blob=2, spread=0.1)
        # 4 points, K=3: root splittable once into 3 leaves of sizes ~1; then nothing
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=9), k=3))
        assert h.incomplete
        assert len(h.leaves()) < 9

    def test_children_partition_parent(self):
        ds, _ = planted(seed=5)
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=4)))
        for node in h.non_leaves():
            member_union = np.concatenate([h.nodes[c].data.indices for c in node.child_ids])
            assert sorted(member_union.tolist()) == sorted(node.data.indices.tolist())

    def test_cache_transparency(self):
        ds, _ = planted(seed=7)
        cfg = quick_config(StoppingCriterion(max_leaves=4), seed=2)
        h = build_hierarchy(ds, cfg)
        for node in h.non_leaves():
            fresh = split_node(
                node.data,
                ancestor_chain(h, node.id),
                cfg.k,
                cfg.reg,
                cfg.solver,
                node_seed(cfg.seed, node.id),
                cfg.max_alternations,
            )
            assert np.array_equal(fresh.labels, node.labels)
            assert np.array_equal(fresh.models.weights, node.models.weights)
            assert fresh.score == node.split_score


class TestGlobalObjective:
    def test_root_only_zero(self):
        ds, _ = planted()
        h = Hierarchy.with_root(ds)
        assert global_objective(h, ds, RegularizerConfig()) == 0.0

    def test_single_split_equals_node_objective(self):
        from margintree.core import EMPTY_CHAIN
        from margintree.objective import Regularizer, node_objective

        ds, _ = planted()
        cfg = quick_config(StoppingCriterion(max_leaves=2))
        h = build_hierarchy(ds, cfg)
        root = h.root
        regularizer = Regularizer(cfg.reg, EMPTY_CHAIN, *root.models.weights.shape)
        expected = node_objective(root.models.weights, root.labels, regularizer, root.data.features)
        assert global_objective(h, ds, cfg.reg) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_finite(self):
        ds, _ = planted(seed=9)
        cfg = quick_config(StoppingCriterion(max_leaves=4))
        h = build_hierarchy(ds, cfg)
        value = global_objective(h, ds, cfg.reg)
        assert np.isfinite(value) and value >= 0.0


class TestNodeSeed:
    def test_stable_and_distinct(self):
        assert node_seed(0, 1) == node_seed(0, 1)
        seen = {node_seed(42, node_id) for node_id in range(1, 50)}
        assert len(seen) == 49
