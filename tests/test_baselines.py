import importlib

import numpy as np
import pytest

from margintree import (
    BuildConfig,
    Dataset,
    RegularizerConfig,
    StoppingCriterion,
    ValidationError,
    build_hierarchy,
    build_hkm,
    build_hkm_d,
    kmeans,
    rand_index,
)
from margintree.baselines import hkm_d_split_score, hkm_split_score
from margintree.export import hierarchy_to_dict
from margintree.metrics import leaf_of
from helpers import blob_dataset


def config(stop, seed=0, k=2):
    return BuildConfig(k=k, stop=stop, reg=RegularizerConfig(), seed=seed)


class TestKMeans:
    def test_splits_blobs(self):
        ds = blob_dataset(0, [[5.0, 0.0], [-5.0, 0.0]], per_blob=10, spread=0.4)
        res = kmeans(ds.features, 2, seed=1)
        assert rand_index(res.labels, ds.labels) == 1.0
        within = ((ds.features - res.centroids[res.labels - 1]) ** 2).sum()
        assert res.inertia == pytest.approx(within)

    def test_k_one_closed_form(self):
        ds = blob_dataset(1, [[2.0, 3.0]], per_blob=9, spread=1.0)
        res = kmeans(ds.features, 1, seed=0)
        assert np.allclose(res.centroids[0], ds.features.mean(axis=0))
        assert res.inertia == pytest.approx(((ds.features - ds.features.mean(axis=0)) ** 2).sum())

    def test_duplicate_rows_zero_inertia(self):
        ds = Dataset(features=np.tile([[1.0, 2.0]], (8, 1)), ids=np.arange(8))
        res = kmeans(ds.features, 2, seed=0)
        assert res.inertia == 0.0

    def test_deterministic(self):
        ds = blob_dataset(2, [[1.0, 0.0], [-1.0, 0.0]], per_blob=15, spread=1.2)
        a = kmeans(ds.features, 3, seed=7)
        b = kmeans(ds.features, 3, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_too_few_points(self):
        ds = blob_dataset(3, [[0.0, 0.0]], per_blob=2)
        with pytest.raises(ValidationError):
            kmeans(ds.features, 3, seed=0)

    def test_inertia_non_increasing_in_budget(self, monkeypatch):
        ds = blob_dataset(4, [[2.0, 0.0], [-2.0, 0.0], [0.0, 3.0]], per_blob=10, spread=1.0)
        inertias = []
        for budget in (1, 2, 3, 5, 10):
            # the package's `kmeans` is the function; the constant is the module's
            monkeypatch.setattr(importlib.import_module("margintree.kmeans"), "MAX_ITERS", budget)
            inertias.append(kmeans(ds.features, 3, seed=5).inertia)
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_inertia_stop_reads_tol(self, monkeypatch):
        # the first iteration has no inertia to compare with, so any tolerance stops at the second
        module = importlib.import_module("margintree.kmeans")
        ds = blob_dataset(4, [[2.0, 0.0], [-2.0, 0.0], [0.0, 3.0]], per_blob=10, spread=1.0)
        assert kmeans(ds.features, 3, seed=5).iterations > 2
        monkeypatch.setattr(module, "TOL", float("inf"))
        loose = kmeans(ds.features, 3, seed=5)
        monkeypatch.undo()
        monkeypatch.setattr(module, "MAX_ITERS", 2)
        budget = kmeans(ds.features, 3, seed=5)
        assert loose.iterations == budget.iterations == 2
        assert np.array_equal(loose.labels, budget.labels) and np.array_equal(loose.centroids, budget.centroids)


class TestScores:
    def test_perfect_blobs_score_zero_is_max(self):
        ds = Dataset(
            features=np.vstack([np.tile([[3.0, 0.0]], (5, 1)), np.tile([[-3.0, 0.0]], (5, 1))]),
            ids=np.arange(10),
        )
        res = kmeans(ds.features, 2, seed=0)
        assert hkm_split_score(res, ds.features) == 0.0

    def test_feature_scaling_doubles_distance(self):
        ds = blob_dataset(5, [[2.0, 0.0], [-2.0, 0.0]], per_blob=8, spread=0.7)
        doubled = Dataset(features=2.0 * ds.features, ids=ds.ids, labels=ds.labels)
        r1 = kmeans(ds.features, 2, seed=1)
        r2 = kmeans(doubled.features, 2, seed=1)
        if np.array_equal(r1.labels, r2.labels):
            assert hkm_split_score(r2, doubled.features) == pytest.approx(
                2.0 * hkm_split_score(r1, ds.features), rel=1e-9
            )

    def test_ordering_prefers_compact(self):
        assert -1.0 > -2.0  # argmax over negated averages picks the compact one

    def test_scatter_zero_on_identical(self):
        ds = Dataset(features=np.ones((6, 2)), ids=np.arange(6))
        assert hkm_d_split_score(ds.features) == 0.0

    def test_scatter_two_points(self):
        ds = Dataset(features=np.array([[0.0, 0.0], [2.0, 0.0]]), ids=np.arange(2))
        assert hkm_d_split_score(ds.features) == pytest.approx(2.0)

    def test_scatter_additive_in_copies(self):
        rng = np.random.default_rng(6)
        cloud = rng.normal(size=(10, 3))
        ds1 = Dataset(features=cloud, ids=np.arange(10))
        ds2 = Dataset(features=np.vstack([cloud, cloud]), ids=np.arange(20))
        assert hkm_d_split_score(ds2.features) == pytest.approx(2.0 * hkm_d_split_score(ds1.features))


class TestBuilders:
    def planted(self, seed=0):
        return blob_dataset(
            seed,
            [[6.0, 6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 0.0, 6.0], [-6.0, 0.0, -6.0]],
            per_blob=10,
            spread=0.8,
        )

    def test_hkm_structure_and_ri(self):
        ds = self.planted()
        h = build_hkm(ds, config(StoppingCriterion(max_leaves=4)))
        assert len(h.leaves()) == 4
        pred = leaf_of(hierarchy_to_dict(h), ds.ids)
        ri = rand_index(pred, ds.labels)  # recorded, not thresholded: greedy HKM
        assert 0.0 <= ri <= 1.0           # may grow a compact leaf first
        union = np.concatenate([leaf.data.indices for leaf in h.leaves()])
        assert sorted(union.tolist()) == list(range(ds.n))

    def test_hkm_d_structure(self):
        ds = self.planted(seed=1)
        h = build_hkm_d(ds, config(StoppingCriterion(max_leaves=4)))
        assert len(h.leaves()) == 4

    def test_f_one_root_only(self):
        ds = self.planted(seed=2)
        for builder in (build_hkm, build_hkm_d):
            h = builder(ds, config(StoppingCriterion(max_leaves=1)))
            assert len(h.nodes) == 1

    def test_single_splittable_leaf_same_tree(self):
        # with F=K exactly one split occurs for every builder
        ds = self.planted(seed=3)
        cfg = config(StoppingCriterion(max_leaves=2), seed=4)
        shapes = []
        for builder in (build_hkm, build_hkm_d):
            h = builder(ds, cfg)
            shapes.append(sorted((n.depth, n.data.size) for n in h.nodes.values()))
        hmmc_cfg = BuildConfig(
            k=2,
            stop=StoppingCriterion(max_leaves=2),
            reg=RegularizerConfig(alpha=1e-3, beta=1e-3),
            seed=4,
        )
        h = build_hierarchy(ds, hmmc_cfg)
        assert len(h.non_leaves()) == 1
        assert shapes[0] == shapes[1]

    def test_hkm_deterministic(self):
        from margintree.export import hierarchy_to_dict, render_json

        ds = self.planted(seed=5)
        cfg = config(StoppingCriterion(max_leaves=4), seed=9)
        assert render_json(hierarchy_to_dict(build_hkm(ds, cfg))) == render_json(
            hierarchy_to_dict(build_hkm(ds, cfg))
        )
