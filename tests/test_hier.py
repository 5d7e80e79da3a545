import json
import logging
import math

import numpy as np
import pytest

from margintree import (
    BuildConfig,
    Dataset,
    RegularizerConfig,
    StoppingCriterion,
    SyntheticSpec,
    ValidationError,
    build_hierarchy,
    build_hkm,
    build_hkm_d,
    generate_synthetic,
    global_objective,
)
import margintree.baselines
import margintree.hier
from margintree.cli import ExperimentSpec, build_method, main, restart_seed
from margintree.core import Hierarchy, NodeData, Split, ancestor_chain, flat_hierarchy
from margintree.export import hierarchy_to_dict, render_json
from margintree.hier import grow_tree, node_seed, should_stop
from margintree.metrics import leaf_of
from margintree.objective import VARIANTS, Regularizer, node_objective
from helpers import blob_dataset, manual_hierarchy, split_rows


def planted(seed=0, per_class=12):
    spec = SyntheticSpec(per_class=per_class, seed=seed)
    return generate_synthetic(spec)


def quick_config(stop, seed=0, k=2):
    return BuildConfig(
        k=k,
        stop=stop,
        reg=RegularizerConfig(alpha=1e-2, beta=1e-2),
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
        part = leaf_of(hierarchy_to_dict(h), ds.ids)
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

    def test_n_less_than_k_rejected(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=2)
        with pytest.raises(ValidationError):
            build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=4), k=3))

    def test_unsplittable_everywhere_sets_flag(self):
        # 4 points, K=3: root splittable once into 3 leaves of sizes ~1; then nothing
        cases = [(build_hierarchy, blob_dataset(0, [[1.0, 0.0], [-1.0, 0.0]], per_blob=2, spread=0.1), 3)]
        # K identical rows: balanced labels force w = 0 (score -inf), and k-means leaves a cluster empty
        def kmeans_flat(ds, config):
            return build_method(ds, ExperimentSpec(input="", method="kmeans_flat", k=config.k), 0)[0]

        for k in (2, 4):
            builds = (build_hierarchy, build_hkm, kmeans_flat)
            cases += [(build, Dataset(features=np.ones((k, 3)), ids=np.arange(k)), k) for build in builds]
        for build, ds, k in cases:
            h = build(ds, quick_config(StoppingCriterion(max_leaves=9), k=k))
            assert h.incomplete
            assert len(h.leaves()) < 9
            assert all(leaf.data.size > 0 for leaf in h.leaves())

    @pytest.mark.parametrize("build", [build_hierarchy, build_hkm, build_hkm_d], ids=["hmmc", "hkm", "hkm_d"])
    def test_k_distinct_rows_split_into_singletons(self, build):
        # n = K: the size bounds are [1, ...], so every cluster takes one row
        for k in (2, 3, 4):
            ds = Dataset(features=np.random.default_rng(k).normal(size=(k, 3)), ids=np.arange(k))
            h = build(ds, quick_config(StoppingCriterion(max_leaves=k), k=k))
            assert not h.incomplete
            assert [leaf.data.size for leaf in h.leaves()] == [1] * k

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "empty, score",
        [(True, 1.0), (False, -math.inf), (False, math.inf), (False, math.nan)],
        ids=["empty-cluster", "minus-inf", "plus-inf", "nan"],
    )
    def test_candidate_with_an_empty_cluster_is_unsplittable(self, k, empty, score):
        # the root's candidate leaves cluster k empty or has a score that is not
        # finite; every other leaf's fills each cluster and scores 1
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=12)

        def candidate(hierarchy, leaf):
            labels = np.arange(leaf.data.size) % (k - 1 if leaf.id == 1 and empty else k) + 1
            return math.inf, lambda: Split(labels, np.eye(k, 2), score if leaf.id == 1 else 1.0)

        h = grow_tree(ds, k, StoppingCriterion(max_leaves=k), candidate)
        assert h.incomplete
        assert h.root.is_leaf

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
            chain = ancestor_chain(h, node.id)
            fresh = split_rows(node.data.features, chain, cfg.k, cfg.reg, node_seed(cfg.seed, node.id))
            assert np.array_equal(fresh.labels, node.split.labels)
            assert np.array_equal(fresh.weights, node.split.weights)
            assert fresh.score == node.split.score

    @pytest.mark.parametrize("k", [2, 3])
    def test_each_node_rows_copied_at_most_once(self, k, monkeypatch):
        # a leaf's bound and its split share one copy of its rows, and
        # global_objective reads the split records, not the rows
        ds, _ = planted(seed=3, per_class=25)
        reads, original = [], NodeData.features
        monkeypatch.setattr(NodeData, "features", property(lambda data: reads.append(data) or original.fget(data)))
        h = build_hierarchy(ds, quick_config(StoppingCriterion(max_leaves=5), k=k))
        node_of = {id(node.data): node.id for node in h.nodes.values()}
        read = [node_of[id(data)] for data in reads]
        assert len(read) == len(set(read))
        assert {node.id for node in h.non_leaves()} <= set(read)
        reads.clear()
        global_objective(h)
        assert reads == []


# the builds whose objective global_objective reads from the split records:
# (SyntheticSpec keywords, K, stopping keywords, variant)
OBJECTIVE_BUILDS = {
    "k2-max-leaves": ({"per_class": 12}, 2, {"max_leaves": 4}, "sparse_group"),
    "k3-min-node-size": ({"per_class": 25}, 3, {"min_node_size": 20}, "sparse_group"),
    "branching4-k4": ({"per_class": 12, "branching": 4}, 4, {"max_leaves": 7}, "sparse_group"),
    "k2-exclusive_only": ({"per_class": 12}, 2, {"max_leaves": 4}, "exclusive_only"),
    "k2-squared_l2": ({"per_class": 12}, 2, {"max_leaves": 4}, "squared_l2"),
}


class TestGlobalObjective:
    def test_root_only_zero(self):
        ds, _ = planted()
        h = Hierarchy.with_root(ds)
        assert global_objective(h) == 0.0

    def test_single_split_equals_node_objective(self):
        ds, _ = planted()
        cfg = quick_config(StoppingCriterion(max_leaves=2))
        h = build_hierarchy(ds, cfg)
        root = h.root
        regularizer = Regularizer(cfg.reg, (), *root.split.weights.shape)
        expected = node_objective(root.split.weights, root.split.labels, regularizer, root.data.features)
        assert global_objective(h) == expected

    @pytest.mark.parametrize("name", sorted(OBJECTIVE_BUILDS))
    def test_equals_trace_and_recomputed_objective(self, name):
        # the sum of each split's last trace entry is the objective recomputed
        # from its rows and the Regularizer of its ancestor chain, bit for bit
        spec, k, stop, variant = OBJECTIVE_BUILDS[name]
        ds, _ = generate_synthetic(SyntheticSpec(seed=1, **spec))
        reg = RegularizerConfig(alpha=1e-2, beta=1e-2, variant=variant)
        h = build_hierarchy(ds, BuildConfig(k=k, stop=StoppingCriterion(**stop), reg=reg))
        assert len(h.non_leaves()) >= 2
        traced, recomputed = 0.0, 0.0
        for node in h.non_leaves():
            w, labels = node.split.weights, node.split.labels
            traced += node.split.trace[-1]
            regularizer = Regularizer(reg, ancestor_chain(h, node.id), *w.shape)
            recomputed += node_objective(w, labels, regularizer, node.data.features)
        assert global_objective(h) == traced == recomputed

    def test_nonnegative_finite(self):
        ds, _ = planted(seed=9)
        cfg = quick_config(StoppingCriterion(max_leaves=4))
        h = build_hierarchy(ds, cfg)
        value = global_objective(h)
        assert np.isfinite(value) and value >= 0.0

    def test_split_without_objective_raises(self):
        # hand-built and flat trees, and k-means splits, carry no split objective
        ds, _ = planted()
        half = ds.n // 2
        trees = [
            manual_hierarchy(ds, {1: [list(range(half)), list(range(half, ds.n))]}),
            flat_hierarchy(ds, np.arange(ds.n) % 2 + 1, np.zeros((2, ds.p))),
            build_hkm(ds, quick_config(StoppingCriterion(max_leaves=3))),
        ]
        for h in trees:
            assert h.non_leaves()
            with pytest.raises(ValidationError, match="has no fitted split objective"):
                global_objective(h)


class TestNodeSeed:
    def test_stable_and_distinct(self):
        assert node_seed(0, 1) == node_seed(0, 1)
        seen = {node_seed(42, node_id) for node_id in range(1, 50)}
        assert len(seen) == 49


class TestBoundedRounds:
    """grow_tree given a bound on each leaf's score splits the leaves that
    evaluating every leaf splits, and evaluates no more of them."""

    STOPS = [StoppingCriterion(max_leaves=12), StoppingCriterion(min_node_size=9), StoppingCriterion(max_height=4)]

    @staticmethod
    def candidates(seed, k, bounded=True):
        """A candidate callback over made-up candidates: integer scores, so
        that scores tie, some unsplittable leaves, and bounds equal to the
        score or above it (math.inf when not bounded). Returns the callback,
        the ids of the evaluated leaves and the unsplittable kinds evaluated:
        0 a cluster left empty, 1-3 a score of -inf, +inf or NaN."""
        evaluated, unsplittable = [], []

        def draw(node_id):
            return np.random.default_rng([seed, node_id])

        def candidate(hierarchy, leaf):
            def split():
                evaluated.append(leaf.id)
                rng = draw(leaf.id)
                score = float(rng.integers(0, 6))
                kind = int(rng.random() / 0.05)  # kinds 4-19 are splittable
                if kind < 4:
                    unsplittable.append(kind)
                labels = np.arange(leaf.data.size) % (k - 1 if kind == 0 else k) + 1
                rng.shuffle(labels)
                return Split(labels, np.eye(k, 2), (-math.inf, math.inf, math.nan)[kind - 1] if 1 <= kind <= 3 else score)

            rng = draw(leaf.id)
            bound = float(rng.integers(0, 6)) + float(rng.choice([0.0, 0.0, 0.5, 3.0], p=[0.4, 0.2, 0.2, 0.2]))
            return (bound if bounded else math.inf), split

        return candidate, evaluated, unsplittable

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("stop", STOPS, ids=["max_leaves", "min_node_size", "max_height"])
    def test_made_up_candidates(self, k, stop):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=64)
        saved, kinds = 0, set()
        for seed in range(40):
            candidate, full, _ = self.candidates(seed, k, bounded=False)
            reference = grow_tree(ds, k, stop, candidate)
            candidate, lazy, unsplittable = self.candidates(seed, k)
            bounded = grow_tree(ds, k, stop, candidate)
            assert render_json(hierarchy_to_dict(bounded)) == render_json(hierarchy_to_dict(reference))
            assert bounded.incomplete == reference.incomplete
            assert len(lazy) == len(set(lazy)) and set(lazy) <= set(full)
            saved += len(full) - len(lazy)
            kinds.update(unsplittable)
        assert saved > 0
        assert kinds == {0, 1, 2, 3}  # the bounded builds evaluated each unsplittable kind

    def test_deferred_leaves_logged_at_debug(self, caplog):
        ds, _ = generate_synthetic(SyntheticSpec(per_class=50, seed=0))
        cfg = quick_config(StoppingCriterion(max_leaves=4))
        with caplog.at_level(logging.DEBUG, logger="margintree.hier"):
            h = build_hierarchy(ds, cfg)
        [message] = [r.getMessage() for r in caplog.records if "deferred" in r.getMessage()]
        # the final round splits node 3 and never evaluates the n=50 leaves 4 and 5
        winner = h.node(h.node(7).parent_id)
        assert message.startswith("round 3: deferred leaves 5 (bound ")
        assert message.endswith(f"below the best score {winner.split.score:.6e}")
        bounds = [float(part.split(")")[0]) for part in message.split("(bound ")[1:]]
        assert ", 4 (bound " in message and bounds == sorted(bounds, reverse=True)
        assert winner.split.score > bounds[0]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="margintree.hier"):
            build_hierarchy(ds, cfg)
        assert caplog.records and not [r for r in caplog.records if "deferred" in r.getMessage()]


# cluster options of the oracle runs: K = 2 and 3, each stopping criterion,
# the variants and restarts
ORACLE_RUNS = {
    "k2-max-leaves": ["--k", "2", "--max-leaves", "4"],
    "k2-min-node-size": ["--k", "2", "--min-node-size", "20"],
    "k2-max-height": ["--k", "2", "--max-height", "3"],
    "k2-restarts": ["--k", "2", "--max-leaves", "4", "--restarts", "2"],
    "k3-max-leaves": ["--k", "3", "--max-leaves", "5"],
    "k3-min-node-size": ["--k", "3", "--min-node-size", "30"],
    "k3-max-height": ["--k", "3", "--max-height", "2"],
    **{f"k2-{v}": ["--k", "2", "--min-node-size", "20", "--variant", v] for v in VARIANTS},
}
# the runs that never evaluate some leaf the reference evaluates; in the
# others every deferred leaf is evaluated in a later round
ORACLE_SAVES = {"k2-max-leaves", "k2-restarts"}


class TestBoundOracle:
    """The max-margin builder with its score bound writes the bytes of the
    reference builder, which evaluates every leaf."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("oracle") / "data.csv"
        assert main(["generate", "--out", str(path), "--per-class", "25", "--seed", "2"]) == 0
        return str(path)

    @staticmethod
    def run(data, options, out):
        out.mkdir()
        argv = ["cluster", "--input", data, "--label-column", *options]
        for flag, name in (("--hierarchy-out", "h.json"), ("--dot-out", "h.dot"), ("--report-out", "r.json")):
            argv += [flag, str(out / name)]
        assert main(argv) == 0
        report = json.loads((out / "r.json").read_text())
        del report["runtime_seconds"], report["outputs"]
        return (out / "h.json").read_text(), (out / "h.dot").read_text(), report

    @pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
    def test_same_bytes_as_evaluating_every_leaf(self, data, tmp_path, monkeypatch, caplog, name):
        splits = []
        split = margintree.hier.split_node
        monkeypatch.setattr(margintree.hier, "split_node", lambda *args: splits.append(1) or split(*args))
        with caplog.at_level(logging.DEBUG, logger="margintree.hier"):
            bounded = self.run(data, ORACLE_RUNS[name], tmp_path / "bounded")
        deferred = [r for r in caplog.records if "deferred" in r.getMessage()]
        lazy, splits[:] = len(splits), []
        grow = margintree.hier.grow_tree

        def unbounded(dataset, k, stop, candidate):
            return grow(dataset, k, stop, lambda hierarchy, leaf: (math.inf, candidate(hierarchy, leaf)[1]))

        monkeypatch.setattr(margintree.hier, "grow_tree", unbounded)
        reference = self.run(data, ORACLE_RUNS[name], tmp_path / "reference")
        assert bounded == reference
        assert not bounded[2]["incomplete"]
        # at K = 2 some leaves wait for a later round, or are never evaluated;
        # at K = 3 on this input no bound falls below a round's best score
        assert bool(deferred) == (ORACLE_RUNS[name][1] == "2")
        assert lazy <= len(splits) and (lazy < len(splits)) == (name in ORACLE_SAVES)


class TestBoundAtEveryK:
    """On the planted-wide shape (K = 4, max-leaves 10), each bounded builder
    writes the payload of the same builder without a bound and solves fewer
    candidates. The data seeds are ones on which the max-margin bound defers
    the four grandchildren of the final round."""

    @staticmethod
    def planted_wide(data_seed):
        # as `generate --branching 4 --per-class 50 --seed s` and `cluster --k 4
        # --max-leaves 10 --seed s` make them
        ds, _ = generate_synthetic(SyntheticSpec(branching=4, per_class=50, seed=data_seed))
        reg = RegularizerConfig(alpha=0.01, beta=0.01)
        return ds, BuildConfig(k=4, stop=StoppingCriterion(max_leaves=10), reg=reg, seed=restart_seed(data_seed, 0))

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(1) or function(*args))
        return calls

    @pytest.mark.parametrize("data_seed", [0, 1, 200])
    def test_hmmc(self, monkeypatch, data_seed):
        ds, config = self.planted_wide(data_seed)
        splits = self.counted(monkeypatch, margintree.hier, "split_node")
        bounded = hierarchy_to_dict(build_hierarchy(ds, config))
        assert len(splits) == 5
        monkeypatch.setattr(margintree.hier, "score_bound", lambda *args: math.inf)
        assert hierarchy_to_dict(build_hierarchy(ds, config)) == bounded
        assert len(splits) == 5 + 9

    @pytest.mark.parametrize("data_seed", [0, 1, 200])
    def test_hkm_d(self, monkeypatch, data_seed):
        ds, config = self.planted_wide(data_seed)
        fits = self.counted(monkeypatch, margintree.baselines, "kmeans")
        bounded = hierarchy_to_dict(build_hkm_d(ds, config))
        assert len(fits) == 3
        grow = margintree.baselines.grow_tree
        bounds_and_scores = []

        def unbounded(dataset, k, stop, candidate):
            def every_leaf(hierarchy, leaf):
                bound, split = candidate(hierarchy, leaf)

                def scored():
                    result = split()
                    bounds_and_scores.append((bound, result.score))
                    return result

                return math.inf, scored

            return grow(dataset, k, stop, every_leaf)

        monkeypatch.setattr(margintree.baselines, "grow_tree", unbounded)
        assert hierarchy_to_dict(build_hkm_d(ds, config)) == bounded
        assert len(fits) == 3 + 9
        # the scatter is each leaf's score and its bound
        assert len(bounds_and_scores) == 9 and all(bound == score for bound, score in bounds_and_scores)
