import dataclasses
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import margintree
from margintree import (
    Dataset,
    RegularizerConfig,
    StoppingCriterion,
    SyntheticSpec,
    export_hierarchy,
    generate_synthetic,
    load_hierarchy_json,
)
from margintree.cli import METHODS, ExperimentSpec, main, run_experiment
from margintree.export import hierarchy_to_dict, render
from margintree.metrics import leaf_of
from helpers import blob_dataset, manual_hierarchy
from oracles import reference_write_csv


@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    data = str(root / "data.csv")
    truth = str(root / "truth.json")
    code = main(
        [
            "generate",
            "--out", data,
            "--truth-out", truth,
            "--per-class", "25",
            "--seed", "0",
        ]
    )
    assert code == 0
    return data, truth


class TestExport:
    def small_hierarchy(self):
        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=8)
        return manual_hierarchy(ds, {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [[0, 1], [2, 3]]})

    def test_root_only_json_and_dot(self, tmp_path):
        from margintree import Hierarchy

        ds = blob_dataset(0, [[0.0, 0.0]], per_blob=3)
        h = Hierarchy.with_root(ds)
        json_path = tmp_path / "h.json"
        dot_path = tmp_path / "h.dot"
        export_hierarchy(h, str(json_path), "json")
        export_hierarchy(h, str(dot_path), "dot")
        payload = json.loads(json_path.read_text())
        assert len(payload["nodes"]) == 1
        assert "->" not in dot_path.read_text()

    def test_dot_counts(self, tmp_path):
        h = self.small_hierarchy()
        # extend to a 3-split binary tree
        ds = h.root.data.parent
        h = manual_hierarchy(ds, {1: [[0, 1, 2, 3], [4, 5, 6, 7]], 2: [[0, 1], [2, 3]], 3: [[4, 5], [6, 7]]})
        path = tmp_path / "h.dot"
        export_hierarchy(h, str(path), "dot")
        text = path.read_text()
        assert text.count("label=") == 7
        assert text.count("->") == 6

    def test_top_features_single_column(self, tmp_path):
        h = self.small_hierarchy()
        w = np.zeros((2, 4))
        w[:, 2] = [1.0, -2.0]
        h.nodes[1].split = dataclasses.replace(h.nodes[1].split, weights=w)
        payload = hierarchy_to_dict(h)
        root_record = next(r for r in payload["nodes"] if r["id"] == 1)
        assert root_record["top_features"][0] == 2

    def test_negative_top_features_rejected(self):
        with pytest.raises(margintree.ValidationError):
            hierarchy_to_dict(self.small_hierarchy(), top_features=-1)

    def test_round_trip(self, tmp_path):
        h = self.small_hierarchy()
        path = tmp_path / "h.json"
        export_hierarchy(h, str(path), "json")
        payload = load_hierarchy_json(str(path))
        assert payload["root"] == 1
        by_id = {r["id"]: r for r in payload["nodes"]}
        for node in h.nodes.values():
            record = by_id[node.id]
            assert record["depth"] == node.depth
            assert record["children"] == node.child_ids
            assert record["size"] == node.data.size
        assert leaf_of(payload, h.root.data.ids).tolist() == [leaf for _, leaf in sorted(
            (int(i), leaf.id) for leaf in h.leaves() for i in leaf.data.ids
        )]


class TestGenerate(object):
    def test_generate_files(self, planted_files):
        data, truth = planted_files
        with open(data) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 100
        assert len(lines[0].split(",")) == 31
        payload = json.loads(open(truth).read())
        assert payload["root"] == "r"

    @pytest.mark.parametrize("shape", [[], ["--branching", "3", "--depth", "1", "--magnitudes", "4", "--noise-scale", "0"]])
    def test_rows_byte_for_byte(self, tmp_path, shape):
        # the rows are the one-float-at-a-time writer's, byte for byte
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        assert main(["generate", "--out", str(path), "--per-class", "30", "--seed", "6", *shape]) == 0
        options = {"branching": 3, "depth": 1, "magnitudes": (4.0,), "noise_scale": 0.0} if shape else {}
        reference_write_csv(generate_synthetic(SyntheticSpec(per_class=30, seed=6, **options))[0], str(reference))
        assert path.read_bytes() == reference.read_bytes()


class TestClusterCommand:
    def test_hmmc_report(self, planted_files, tmp_path):
        data, truth = planted_files
        report_path = tmp_path / "report.json"
        hier_path = tmp_path / "h.json"
        code = main(
            [
                "cluster",
                "--input", data,
                "--label-column",
                "--method", "hmmc",
                "--k", "2",
                "--max-leaves", "4",
                "--alpha", "0.01",
                "--beta", "0.01",
                "--seed", "0",
                "--truth-tree", truth,
                "--hierarchy-out", str(hier_path),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["leaf_count"] == 4
        assert set(report["metrics"]) == {"rand_index", "sp", "ps"}
        assert report["metrics"]["rand_index"] > 0.9

    def test_kmeans_flat_report(self, planted_files, tmp_path):
        data, truth = planted_files
        report_path = tmp_path / "km.json"
        code = main(
            [
                "cluster",
                "--input", data,
                "--label-column",
                "--method", "kmeans_flat",
                "--k", "4",
                "--seed", "0",
                "--truth-tree", truth,
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["leaf_count"] == 4
        # flat similarity convention caps the semantic scores below 1
        assert report["metrics"]["sp"] < 1.0

    def test_reports_byte_identical_modulo_runtime(self, planted_files, tmp_path):
        data, truth = planted_files
        texts = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = main(
                [
                    "cluster",
                    "--input", data,
                    "--label-column",
                    "--method", "hkm",
                    "--k", "2",
                    "--max-leaves", "4",
                    "--seed", "3",
                    "--truth-tree", truth,
                    "--report-out", str(path),
                ]
            )
            assert code == 0
            payload = json.loads(path.read_text())
            payload.pop("runtime_seconds")
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]

    @staticmethod
    def blob_leaves(tmp_path, magnitude):
        """Leaf count, incomplete flag and leaf member sets of a K=2 run on
        two Gaussian blobs scaled by magnitude."""
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(0.0, 1.0, (30, 3)), rng.normal(5.0, 1.0, (30, 3))]) * magnitude
        data = tmp_path / f"blobs_{magnitude:g}.csv"
        np.savetxt(data, rows, delimiter=",")
        report_path, hier_path = tmp_path / "blobs_report.json", tmp_path / "blobs_hier.json"
        argv = ["cluster", "--input", str(data), "--k", "2", "--report-out", str(report_path)]
        assert main(argv + ["--hierarchy-out", str(hier_path)]) == 0
        report = json.loads(report_path.read_text())
        nodes = json.loads(hier_path.read_text())["nodes"]
        leaves = {frozenset(node["members"]) for node in nodes if "members" in node}
        return report["leaf_count"], report["incomplete"], leaves

    @pytest.mark.parametrize("magnitude", [1e3, 1e7])
    def test_large_feature_magnitudes(self, tmp_path, magnitude):
        # the weight update's step comes from the data, so scaled features split
        # into the same two clusters as the unscaled ones
        count, incomplete, leaves = self.blob_leaves(tmp_path, magnitude)
        assert (count, incomplete) == (2, False)
        assert leaves == self.blob_leaves(tmp_path, 1.0)[2]

    def test_pca_dim(self, planted_files, tmp_path, capsys):
        # --pca-dim reduces the features the build sees; --no-standardize acts
        # only together with it
        data, _ = planted_files

        def report(*flags):
            path = tmp_path / "report.json"
            assert main(["cluster", "--input", data, "--label-column", "--k", "2", "--max-leaves", "4",
                         "--report-out", str(path), *flags]) == 0
            payload = json.loads(path.read_text())
            del payload["runtime_seconds"], payload["outputs"]
            return payload

        reduced = report("--pca-dim", "5")
        assert (reduced["n_features"], reduced["params"]["pca_dim"]) == (5, 5)
        raw = report("--pca-dim", "5", "--no-standardize")
        assert raw["n_features"] == 5 and raw["objective"] != reduced["objective"]
        assert report("--no-standardize") == report()
        capsys.readouterr()
        assert main(["cluster", "--input", data, "--label-column", "--pca-dim", "31"]) == 1
        assert "d must lie in [1, min(N, P)] = [1, 30], got 31" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        assert main(["cluster", "--input", missing, "--method", "hmmc"]) == 1

    def test_negative_top_features_exit_code(self, planted_files, tmp_path, capsys):
        data, _ = planted_files
        hier_path = tmp_path / "h.json"
        argv = ["cluster", "--input", data, "--label-column", "--top-features", "-1", "--hierarchy-out", str(hier_path)]
        assert main(argv) == 1
        assert "top_features must be >= 0" in capsys.readouterr().err
        assert not hier_path.exists()

    def test_config_file(self, planted_files, tmp_path):
        data, truth = planted_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = hkm\nk = 2\nmax_leaves = 4\nseed = 5\n")
        report_path = tmp_path / "cfg_report.json"
        code = main(
            [
                "cluster",
                "--config", str(cfg),
                "--input", data,
                "--label-column",
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == "hkm"
        assert report["leaf_count"] == 4
        assert report["params"]["seed"] == 5

    @pytest.mark.parametrize(
        "line, message",
        [
            ("k = abc", "invalid int value: 'abc'"),
            ("alpah = 0.5", "'alpah' is not an option of cluster"),
            ("label_column = maybe", "label_column must be one of"),
            ("command = export", "'command' is not an option of cluster"),
            ("verbose = 1", "'verbose' is not a config key; pass -v or -vv on the command line"),
            ("max_outer_iters = 5", "'max_outer_iters' is not an option of cluster"),
            ("rel_obj_tol = 1e-6", "'rel_obj_tol' is not an option of cluster"),
            ("max_alternations = 9", "'max_alternations' is not an option of cluster"),
        ],
        ids=[
            "bad_int", "unknown_key", "bad_bool", "command_key", "verbose_key",
            "max_outer_iters", "rel_obj_tol", "max_alternations",
        ],
    )
    def test_config_file_errors(self, planted_files, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["cluster", "--config", str(cfg), "--input", planted_files[0], "--label-column"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err

    @pytest.mark.parametrize("raw", ["1", "yes"])
    def test_verbose_config_key_points_to_the_flag(self, tmp_path, capsys, raw):
        # -v counts and takes no value, so no config value can set it
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"verbose = {raw}\n")
        out = tmp_path / "d.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: 'verbose' is not a config key; pass -v or -vv on the command line\n"
        assert not out.exists()


class TestRepeatedMainCalls:
    """main builds its parser once per process, and nothing one call parses
    reaches the next: a plain run after a --config run or after a usage error
    reports what the same run reports in a fresh process."""

    @staticmethod
    def plain_argv(data, report):
        return ["cluster", "--input", data, "--max-leaves", "3", "--report-out", str(report)]

    @staticmethod
    def report(path):
        payload = json.loads(path.read_text())
        payload.pop("runtime_seconds")
        return payload

    def test_parser_is_built_once(self):
        assert margintree.cli._build_parser() is margintree.cli._build_parser()

    def test_type_hints_are_resolved_once(self, tmp_path, monkeypatch):
        # each option table's annotations are resolved on its first use, not on every op
        resolve, resolved = margintree.cli.typing.get_type_hints, []
        monkeypatch.setattr(margintree.cli.typing, "get_type_hints", lambda cls: resolved.append(cls) or resolve(cls))
        margintree.cli._options.cache_clear()
        margintree.cli._build_parser.cache_clear()
        for run in range(2):
            assert main(["generate", "--out", str(tmp_path / f"d{run}.csv"), "--per-class", "5"]) == 0
        # building the parser resolves both tables, and neither generate op resolves one again
        assert sorted(cls.__name__ for cls in resolved) == ["ExperimentSpec", "SyntheticSpec"]

    def test_no_state_between_calls(self, planted_files, tmp_path, capsys):
        data, _ = planted_files
        fresh = tmp_path / "fresh.json"
        src = os.path.dirname(os.path.dirname(margintree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from margintree.cli import main; sys.exit(main(sys.argv[1:]))",
             *self.plain_argv(data, fresh)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        expected = self.report(fresh)

        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = hkm\nk = 3\nseed = 5\nlabel_column = yes\ntop_features = 1\n")
        configured = tmp_path / "configured.json"
        assert main(["cluster", "--config", str(cfg), "--input", data, "--report-out", str(configured)]) == 0
        params = self.report(configured)["params"]
        assert (params["k"], params["seed"]) == (3, 5)
        after_config = tmp_path / "after_config.json"
        assert main(self.plain_argv(data, after_config)) == 0
        assert self.report(after_config) == expected

        capsys.readouterr()
        assert main(["cluster", "--input", data, "--seed", "9", "--label-column", "--k", "abc"]) == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        after_error = tmp_path / "after_error.json"
        assert main(self.plain_argv(data, after_error)) == 0
        assert self.report(after_error) == expected


def node(node_id, *children, **fields):
    """A node record of a hierarchy file: its id, children and fields, size 1
    (a leaf's one member is instance 0)."""
    return {"id": node_id, "children": list(children), "size": 1, **({} if children else {"members": [0]}), **fields}


class TestInputErrors:
    """Unreadable files and bad flags exit 1 with one error line, not a traceback."""

    @staticmethod
    def check(capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["evaluate", "export"])
    @pytest.mark.parametrize("damage", ["truncated", "no_root"])
    def test_damaged_hierarchy(self, planted_files, tmp_path, capsys, command, damage):
        data, _ = planted_files
        hier_path = tmp_path / "h.json"
        argv = ["cluster", "--input", data, "--method", "kmeans_flat", "--hierarchy-out", str(hier_path)]
        assert main(argv) == 0
        capsys.readouterr()
        text = hier_path.read_text()
        if damage == "truncated":
            hier_path.write_text(text[: len(text) // 2])
        else:
            payload = json.loads(text)
            del payload["root"]
            hier_path.write_text(json.dumps(payload))
        tail = ["--input", data, "--label-column"] if command == "evaluate" else ["--out", str(tmp_path / "h.dot")]
        message = "not a json file" if damage == "truncated" else "needs a root"
        self.check(capsys, [command, "--hierarchy", str(hier_path), *tail], message)

    DAMAGED_HIERARCHY = {  # the nodes and root of a margintree-hierarchy file, and the message
        "nodes_not_a_list": (5, 1, "nodes must be a list of objects"),
        "node_not_an_object": ([5], 1, "nodes must be a list of objects"),
        "node_without_children_or_size": ([{"id": 1}], 1, "nodes[0] needs an integer id, a children list and a size"),
        "node_without_id": ([{"children": [], "size": 0}], 1, "nodes[0] needs an integer id"),
        "children_not_a_list": ([{"id": 1, "children": 2, "size": 0}], 1, "nodes[0] needs an integer id, a children list"),
        "unknown_root": ([{"id": 1, "children": [], "size": 0}], 2, "root 2 is not a node id"),
        "unknown_child": ([{"id": 1, "children": [2], "size": 0}], 1, "child 2 of node 1 is not a node id"),
        "list_child": ([{"id": 1, "children": [[2]], "size": 0}], 1, "child [2] of node 1 is not a node id"),
        "members_not_a_list": ([node(1, members=5)], 1, "the members of leaf 1 must be a list of instance ids"),
        "member_not_an_id": ([node(1, members=[0, [1]])], 1, "the members of leaf 1 must be a list of instance ids"),
        "boolean_member": ([node(1, members=[True])], 1, "the members of leaf 1 must be a list of instance ids"),
        "text_split_score": ([node(1, split_score="abc")], 1, "the split_score of node 1 must be a number or null"),
        "boolean_split_score": ([node(1, split_score=True)], 1, "the split_score of node 1 must be a number or null"),
        "text_size": ([node(1, size="abc")], 1, "the size of node 1 must be a non-negative integer"),
        "negative_size": ([node(1, size=-3)], 1, "the size of node 1 must be a non-negative integer"),
        "float_size": ([node(1, size=1.0)], 1, "the size of node 1 must be a non-negative integer"),
        "boolean_size": ([node(1, size=True)], 1, "the size of node 1 must be a non-negative integer"),
        "size_not_members": ([node(1, size=2)], 1, "leaf 1 has size 2 but 1 members"),
        "no_members": ([node(1, members=[])], 1, "leaf 1 has size 1 but 0 members"),
        "boolean_id": ([node(True)], True, "nodes[0] needs an integer id"),
        "boolean_root": ([node(1)], True, "root True is not a node id"),
        "boolean_child": ([node(1, True), node(2)], 1, "child True of node 1 is not a node id"),
        "duplicate_id": ([node(1), node(1)], 1, "node id 1 appears more than once"),
        "cycle_through_the_root": ([node(1, 2, 3), node(2), node(3, 1)], 1, "root 1 is a child of node 3, a cycle"),
        "two_parents": ([node(1, 2, 3), node(2), node(3, 2)], 1, "node 2 is a child of node 1 and of node 3"),
        "unreached_node": ([node(1), node(2)], 1, "node 2 is not reached from root 1"),
        "cycle_off_the_root": ([node(1), node(2, 3), node(3, 2)], 1, "node 2 is not reached from root 1"),
        "size_not_children": ([node(1, 2, 3, size=7), node(2), node(3)], 1, "node 1 has size 7 but its children hold 2"),
        "inner_size_not_children": (
            [node(1, 2, 3, size=2), node(2, 4, 5), node(3), node(4), node(5)],
            1,
            "node 2 has size 1 but its children hold 2",
        ),
    }

    @pytest.mark.parametrize("command", ["evaluate", "export"])
    @pytest.mark.parametrize("damage", sorted(DAMAGED_HIERARCHY))
    def test_malformed_hierarchy_nodes(self, planted_files, tmp_path, capsys, command, damage):
        data, _ = planted_files
        nodes, root, message = self.DAMAGED_HIERARCHY[damage]
        hier_path = tmp_path / "h.json"
        hier_path.write_text(json.dumps({"format": "margintree-hierarchy", "root": root, "nodes": nodes}))
        tail = ["--input", data, "--label-column"] if command == "evaluate" else ["--out", str(tmp_path / "h.dot")]
        self.check(capsys, [command, "--hierarchy", str(hier_path), *tail], f"{hier_path}: {message}")
        assert not (tmp_path / "h.dot").exists()

    @staticmethod
    def flat_hierarchy(data, path):
        assert main(["cluster", "--input", data, "--method", "kmeans_flat", "--hierarchy-out", str(path)]) == 0

    DAMAGED_TRUTH = {  # file text, and the message ({path}: the file's path)
        "truncated": ('{"root": "r", "children": {"r": [', "{path}: not a json file"),
        "no_root": ('{"children": {}}', "{path}: a truth tree needs a root"),
        "children_list": (
            '{"root": "r", "children": [], "leaf_classes": {}}',
            "{path}: a truth tree needs a children object of lists",
        ),
        "nested_node": (  # found by metrics.ClassTree, as for a library caller
            '{"root": "r", "children": {"r": [["a"]]}, "leaf_classes": {}}',
            "class tree nodes and classes must be hashable",
        ),
    }

    @pytest.mark.parametrize("command", ["evaluate", "cluster"])
    @pytest.mark.parametrize("damage", sorted(DAMAGED_TRUTH))
    def test_damaged_truth_tree(self, planted_files, tmp_path, capsys, command, damage):
        data, _ = planted_files
        text, message = self.DAMAGED_TRUTH[damage]
        truth = tmp_path / "truth.json"
        truth.write_text(text)
        hier_path = tmp_path / "h.json"
        if command == "evaluate":
            self.flat_hierarchy(data, hier_path)
            argv = ["evaluate", "--hierarchy", str(hier_path), "--input", data, "--label-column"]
        else:
            argv = ["cluster", "--input", data, "--label-column", "--method", "kmeans_flat"]
        capsys.readouterr()
        self.check(capsys, [*argv, "--truth-tree", str(truth)], message.format(path=truth))

    @pytest.mark.parametrize("damage", sorted(DAMAGED_TRUTH))
    def test_damaged_truth_tree_stops_before_clustering(self, planted_files, tmp_path, capsys, monkeypatch, damage):
        # cluster reads the truth tree with the labels, so a broken one costs no build
        data, _ = planted_files
        text, message = self.DAMAGED_TRUTH[damage]
        truth = tmp_path / "truth.json"
        truth.write_text(text)
        builds, build = [], margintree.cli.build_method
        monkeypatch.setattr(margintree.cli, "build_method", lambda *args: builds.append(args) or build(*args))
        argv = ["cluster", "--input", data, "--label-column", "--truth-tree", str(truth)]
        self.check(capsys, argv, message.format(path=truth))
        assert builds == []

    def test_instance_in_two_leaves(self, planted_files, tmp_path, capsys):
        # evaluate scores each input instance in exactly one leaf: a member copied
        # into a second leaf is named, not silently moved there
        data, _ = planted_files
        hier_path = tmp_path / "h.json"
        self.flat_hierarchy(data, hier_path)
        payload = json.loads(hier_path.read_text())
        first, second = [record for record in payload["nodes"] if not record["children"]][:2]
        copied = first["members"][3]
        second["members"].append(copied)
        second["size"] += 1  # a consistent leaf: the load checks that its size counts its members
        payload["nodes"][0]["size"] += 1  # and that the root's counts its children's
        hier_path.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["evaluate", "--hierarchy", str(hier_path), "--input", data, "--label-column"]
        self.check(capsys, argv, f"instance {copied} is in more than one leaf")

    def test_hierarchy_of_a_larger_input(self, planted_files, tmp_path, capsys):
        # a hierarchy over ids 0..199 scored against the 100 rows of another csv
        # holds every one of them, and names the first id the input lacks
        data, _ = planted_files
        larger, hier_path = str(tmp_path / "larger.csv"), tmp_path / "h.json"
        assert main(["generate", "--out", larger, "--per-class", "50", "--seed", "1"]) == 0
        self.flat_hierarchy(larger, hier_path)
        listed = [m for r in json.loads(hier_path.read_text())["nodes"] if not r["children"] for m in r["members"]]
        outside = next(m for m in listed if m >= 100)
        capsys.readouterr()
        argv = ["evaluate", "--hierarchy", str(hier_path), "--input", data, "--label-column"]
        self.check(capsys, argv, f"instance {outside} of the hierarchy's leaves is not in the input")

    def test_truth_tree_without_labels(self, planted_files, tmp_path, capsys):
        # the truth tree scores against labels: without them cluster stops before clustering
        data, truth = planted_files
        hier_path = tmp_path / "h.json"
        argv = ["cluster", "--input", data, "--truth-tree", truth, "--hierarchy-out", str(hier_path)]
        self.check(capsys, argv, "--truth-tree needs ground-truth labels")
        assert not hier_path.exists()

    def test_input_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["cluster", "--input", str(tmp_path)], "Is a directory")

    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_binary_input(self, tmp_path, capsys, fmt):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(range(256)))
        self.check(capsys, ["cluster", "--input", str(path), "--format", fmt], f"not a {fmt} text file")

    def test_libsvm_row_without_a_label(self, tmp_path, capsys):
        path = tmp_path / "data.libsvm"
        path.write_text("1 1:0.5 2:1.0\n1:0.5 2:1.0\n")
        argv = ["cluster", "--input", str(path), "--format", "libsvm"]
        self.check(capsys, argv, "line 2: expected a label before the index:value pairs, found '1:0.5'")

    def test_bad_flag_value(self, planted_files, capsys):
        self.check(capsys, ["cluster", "--input", planted_files[0], "--k", "abc"], "invalid int value: 'abc'")

    @pytest.mark.parametrize("command", ["cluster", "generate"])
    def test_negative_seed(self, planted_files, tmp_path, capsys, command):
        tail = ["--input", planted_files[0]] if command == "cluster" else ["--out", str(tmp_path / "data.csv")]
        self.check(capsys, [command, "--seed", "-1", *tail], "seed must be >= 0, got -1")
        assert not (tmp_path / "data.csv").exists()

    def test_negative_seed_in_config_file(self, planted_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        argv = ["cluster", "--config", str(cfg), "--input", planted_files[0], "--label-column"]
        self.check(capsys, argv, "seed must be >= 0, got -3")

    @pytest.mark.parametrize("method", METHODS)
    def test_branching_factor_below_two(self, planted_files, capsys, method):
        argv = ["cluster", "--input", planted_files[0], "--method", method, "--k", "1"]
        self.check(capsys, argv, "branching factor must be >= 2, got 1")

    @pytest.mark.parametrize("flag, raw", [("--max-outer-iters", "5"), ("--rel-obj-tol", "1e-6"), ("--max-alternations", "9")])
    def test_solver_budget_flags_are_unknown(self, planted_files, capsys, flag, raw):
        # the weight update's and the split's budgets are module constants, not options
        argv = ["cluster", "--input", planted_files[0], flag, raw]
        self.check(capsys, argv, f"unrecognized arguments: {flag} {raw}")


class TestWeightUpdateBudget:
    """A weight update that ends on its outer budget logs one warning naming
    the budget and the final relative residual; a default build logs none."""

    @staticmethod
    def budget_warnings(caplog, argv):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="margintree.optim"):
            assert main(argv) == 0
        return [r.getMessage() for r in caplog.records if r.name == "margintree.optim" and r.levelno >= logging.WARNING]

    def test_warns_on_budget_and_not_by_default(self, tmp_path, caplog, monkeypatch):
        data = str(tmp_path / "data.csv")
        assert main(["generate", "--out", data, "--per-class", "50", "--seed", "0"]) == 0  # planted-small
        cluster = ["cluster", "--input", data, "--label-column", "--k", "2", "--max-leaves", "4"]
        assert self.budget_warnings(caplog, cluster) == []
        monkeypatch.setattr(margintree.optim, "MAX_OUTER_ITERS", 3)
        messages = self.budget_warnings(caplog, cluster)
        assert messages
        for message in messages:
            assert "budget of 3 outer iterations" in message and "relative residual" in message


def checked_patterns():
    """The stderr texts .github/checked.sh greps for, in its order: that of a
    weight update ending on its budget, then that of an incomplete tree."""
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".github", "checked.sh")
    with open(script) as fh:
        return re.findall(r'grep -q "([^"]*)"', fh.read())


class TestCheckedPatterns:
    """The CI steps run through .github/checked.sh fail on a weight update
    that ends on its budget, or on an incomplete tree, only while the
    warnings contain the text it greps for."""

    def test_warnings_contain_the_grepped_text(self, planted_files, tmp_path, caplog, monkeypatch):
        budget, incomplete = checked_patterns()
        with monkeypatch.context() as patch:
            patch.setattr(margintree.optim, "MAX_OUTER_ITERS", 3)
            messages = TestWeightUpdateBudget.budget_warnings(caplog, ["cluster", "--input", planted_files[0], "--label-column"])
        assert messages and all(budget in message for message in messages)
        data = tmp_path / "identical.csv"
        np.savetxt(data, np.ones((2, 3)), delimiter=",")  # two identical rows: no split at K = 2 has a finite score
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="margintree.hier"):
            assert main(["cluster", "--input", str(data), "--k", "2"]) == 0
        assert any(incomplete in message for message in caplog.messages)


class TestEvaluateAndExport:
    def test_evaluate_round_trip(self, planted_files, tmp_path):
        data, truth = planted_files
        hier_path = tmp_path / "h.json"
        assert (
            main(
                [
                    "cluster",
                    "--input", data,
                    "--label-column",
                    "--method", "hmmc",
                    "--k", "2",
                    "--max-leaves", "4",
                    "--seed", "0",
                    "--hierarchy-out", str(hier_path),
                ]
            )
            == 0
        )
        eval_path = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--hierarchy", str(hier_path),
                "--input", data,
                "--label-column",
                "--truth-tree", truth,
                "--report-out", str(eval_path),
            ]
        )
        assert code == 0
        report = json.loads(eval_path.read_text())
        assert set(report["metrics"]) == {"rand_index", "sp", "ps"}

    @pytest.mark.parametrize("method", METHODS)
    def test_evaluate_equals_cluster_report(self, planted_files, tmp_path, method):
        data, truth = planted_files
        hier_path, report_path, eval_path = tmp_path / "h.json", tmp_path / "r.json", tmp_path / "e.json"
        common = ["--input", data, "--label-column", "--truth-tree", truth]
        assert main(
            ["cluster", *common, "--method", method, "--k", "4" if method.endswith("_flat") else "2",
             "--max-leaves", "4", "--seed", "0", "--hierarchy-out", str(hier_path), "--report-out", str(report_path)]
        ) == 0
        assert main(["evaluate", *common, "--hierarchy", str(hier_path), "--report-out", str(eval_path)]) == 0
        cluster_metrics = json.loads(report_path.read_text())["metrics"]
        assert json.loads(eval_path.read_text())["metrics"] == cluster_metrics
        assert set(cluster_metrics) == {"rand_index", "sp", "ps"}

    def test_byte_order_mark(self, planted_files, tmp_path):
        # input files that start with a UTF-8 byte-order mark (a data csv, a truth
        # tree, a hierarchy json and a config file) read as the same files without one
        data, truth = planted_files
        marked = {}
        for name, path in (("data.csv", data), ("truth.json", truth)):
            marked[name] = tmp_path / name
            marked[name].write_bytes("\ufeff".encode() + open(path, "rb").read())
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("\ufeffk = 2\nmax_leaves = 4\nseed = 0\n".encode())
        hier_path, report_path = tmp_path / "h.json", tmp_path / "r.json"
        common = ["--input", data, "--label-column", "--truth-tree", truth]
        assert main(["cluster", *common, "--config", str(cfg), "--hierarchy-out", str(hier_path),
                     "--report-out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["leaf_count"] == 4
        marked["h.json"] = tmp_path / "bom-h.json"
        marked["h.json"].write_bytes("\ufeff".encode() + hier_path.read_bytes())
        reports = []
        for csv_path, truth_path, hierarchy in ((data, truth, hier_path),
                                                (marked["data.csv"], marked["truth.json"], marked["h.json"])):
            eval_path = tmp_path / f"eval-{len(reports)}.json"
            assert main(["evaluate", "--input", str(csv_path), "--label-column", "--truth-tree", str(truth_path),
                         "--hierarchy", str(hierarchy), "--report-out", str(eval_path)]) == 0
            reports.append(json.loads(eval_path.read_text())["metrics"])
        assert reports[0] == reports[1]
        assert reports[0] == json.loads(report_path.read_text())["metrics"]

    def test_export_to_dot(self, planted_files, tmp_path):
        data, _ = planted_files
        hier_path = tmp_path / "h.json"
        main(
            [
                "cluster",
                "--input", data,
                "--label-column",
                "--method", "hkm",
                "--k", "2",
                "--max-leaves", "4",
                "--seed", "0",
                "--hierarchy-out", str(hier_path),
            ]
        )
        out = tmp_path / "h.dot"
        assert main(["export", "--hierarchy", str(hier_path), "--format", "dot", "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph hierarchy")

    def test_export_dot_matches_direct(self, planted_files, tmp_path):
        data, _ = planted_files
        hier_path = tmp_path / "h.json"
        dot_path = tmp_path / "direct.dot"
        main(
            [
                "cluster",
                "--input", data,
                "--label-column",
                "--method", "hkm",
                "--k", "2",
                "--max-leaves", "4",
                "--seed", "0",
                "--hierarchy-out", str(hier_path),
                "--dot-out", str(dot_path),
            ]
        )
        converted = render(load_hierarchy_json(str(hier_path)), "dot")
        assert converted == dot_path.read_text()


class TestFlatTruth:
    """A flat truth, the default or a depth-1 truth tree, follows the flat
    rule of a flat clustering: a clustering that recovers the two classes
    scores 1 on the Rand index, SP and PS alike."""

    @pytest.fixture(scope="class")
    def depth_one_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("depth-one")
        data, truth = str(root / "data.csv"), str(root / "truth.json")
        argv = ["generate", "--out", data, "--truth-out", truth, "--depth", "1", "--magnitudes", "5"]
        assert main([*argv, "--per-class", "50", "--seed", "0"]) == 0
        return data, truth

    @pytest.mark.parametrize("method", ["kmeans_flat", "mmc_flat", "hmmc"])
    def test_default_truth_equals_depth_one_truth(self, depth_one_files, tmp_path, method):
        data, truth = depth_one_files
        reports = []
        for name, tail in (("default", []), ("depth-one", ["--truth-tree", truth])):
            path = tmp_path / f"{name}.json"
            argv = ["cluster", "--input", data, "--label-column", "--method", method, "--k", "2"]
            assert main([*argv, *tail, "--report-out", str(path)]) == 0
            report = json.loads(path.read_text())
            del report["runtime_seconds"], report["outputs"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["metrics"] == {"rand_index": 1.0, "sp": 1.0, "ps": 1.0}


def degenerate_rows(kind, k):
    rng = np.random.default_rng(1)
    if kind in ("n_equals_k", "n_is_k_plus_1"):  # size bounds [1, 2]: no leaf is empty
        return rng.normal(size=(k + (kind == "n_is_k_plus_1"), 3))
    if kind == "duplicate_rows":  # 5 distinct rows, 8 copies each
        return np.repeat(rng.normal(size=(5, 3)), 8, axis=0)
    if kind == "identical_rows":
        return np.tile(rng.normal(size=(1, 3)), (40, 1))
    rows = rng.normal(size=(40, 3))
    rows[:, 1] = 2.5  # constant column
    return rows


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "kind", ["duplicate_rows", "identical_rows", "constant_column", "n_equals_k", "n_is_k_plus_1"]
    )
    @pytest.mark.parametrize("k", [2, 4])
    def test_cluster_completes(self, tmp_path, kind, k):
        data = tmp_path / "data.csv"
        np.savetxt(data, degenerate_rows(kind, k), delimiter=",")
        report, hierarchy = tmp_path / "report.json", tmp_path / "hierarchy.json"
        src = os.path.dirname(os.path.dirname(margintree.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        # a process of its own, so a solver that never terminates fails on the timeout
        run = subprocess.run(
            [
                sys.executable, "-c", "import sys; from margintree.cli import main; sys.exit(main(sys.argv[1:]))",
                "cluster", "--input", str(data), "--k", str(k), "--report-out", str(report),
                "--hierarchy-out", str(hierarchy),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        payload = json.loads(report.read_text())
        assert payload["incomplete"] is False
        assert payload["leaf_count"] == k
        assert all(node["size"] > 0 for node in json.loads(hierarchy.read_text())["nodes"])


class TestRunExperiment:
    def test_restart_selection_unsupervised(self, planted_files, tmp_path):
        data, truth = planted_files
        spec = ExperimentSpec(
            input=data,
            label_column=True,
            method="hmmc",
            k=2,
            max_leaves=4,
            alpha=0.01,
            beta=0.01,
            seed=1,
            restarts=2,
            truth_tree=truth,
        )
        report = run_experiment(spec)
        assert report["chosen_restart"] in (0, 1)
        assert report["leaf_count"] == 4


def help_flags(capsys, command):
    """The sorted option names `margintree <command> --help` lists."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return sorted(set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out.split("options:")[1])))


CLUSTER_FLAGS = [
    "--alpha", "--beta", "--config", "--dot-out", "--format", "--help", "--hierarchy-out", "--input", "--k",
    "--label-column", "--max-height", "--max-leaves", "--method", "--min-node-size", "--no-standardize", "--pca-dim",
    "--report-out", "--restarts", "--seed", "--top-features", "--truth-tree", "--variant", "--verbose", "-h", "-v",
]
GENERATE_FLAGS = [
    "--branching", "--config", "--depth", "--help", "--informative-dims", "--magnitudes", "--noise-dims",
    "--noise-scale", "--out", "--per-class", "--seed", "--truth-out", "--verbose", "-h", "-v",
]
# Every config key of cluster and generate, a value, and what it must set on
# the ExperimentSpec or SyntheticSpec the command runs. --input and --out are
# also given on the command line, where they are required, and win.
CLUSTER_KEYS = [
    ("input", "other.csv", "input", "data.csv"),
    ("format", "libsvm", "format", "libsvm"),
    ("label_column", "yes", "label_column", True),
    ("method", "hkm_d", "method", "hkm_d"),
    ("k", "3", "k", 3),
    ("max_leaves", "5", "max_leaves", 5),
    ("min_node_size", "7", "min_node_size", 7),
    ("max_height", "2", "max_height", 2),
    ("alpha", "0.5", "alpha", 0.5),
    ("beta", "0.25", "beta", 0.25),
    ("variant", "l1", "variant", "l1"),
    ("seed", "4", "seed", 4),
    ("restarts", "2", "restarts", 2),
    ("pca_dim", "3", "pca_dim", 3),
    ("no_standardize", "yes", "standardize", False),
    ("no_standardize", "no", "standardize", True),
    ("truth_tree", "t.json", "truth_tree", "t.json"),
    ("hierarchy_out", "h.json", "hierarchy_out", "h.json"),
    ("dot_out", "h.dot", "dot_out", "h.dot"),
    ("report_out", "r.json", "report_out", "r.json"),
    ("top_features", "2", "top_features", 2),
]
GENERATE_KEYS = [
    ("depth", "3", "depth", 3),
    ("branching", "3", "branching", 3),
    ("per_class", "4", "per_class", 4),
    ("informative_dims", "5", "informative_dims", 5),
    ("noise_dims", "0", "noise_dims", 0),
    ("magnitudes", "4, 2", "magnitudes", (4.0, 2.0)),
    ("noise_scale", "0.5", "noise_scale", 0.5),
    ("seed", "6", "seed", 6),
]


class TestOptionTables:
    """cluster's options are ExperimentSpec's fields and generate's are
    SyntheticSpec's: the flags, the config keys and what each one sets are
    pinned here, so a change to either table shows."""

    def test_cluster_flags(self, capsys):
        assert help_flags(capsys, "cluster") == CLUSTER_FLAGS

    def test_generate_flags(self, capsys):
        assert help_flags(capsys, "generate") == GENERATE_FLAGS

    def test_no_solver_settings_in_the_library(self):
        assert not hasattr(margintree, "SolverConfig")
        for config in (ExperimentSpec, margintree.BuildConfig):
            assert not {"solver", "max_alternations"} & {f.name for f in dataclasses.fields(config)}

    @staticmethod
    def cluster_spec(monkeypatch, tmp_path, config_text):
        specs = []
        monkeypatch.setattr(margintree.cli, "run_experiment", lambda spec: specs.append(spec) or {})
        argv = ["cluster", "--input", "data.csv"]
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        return specs[0]

    def test_cluster_defaults_are_the_spec_defaults(self, monkeypatch, tmp_path):
        assert self.cluster_spec(monkeypatch, tmp_path, None) == ExperimentSpec(input="data.csv")
        defaults = ExperimentSpec(input="data.csv")
        assert (defaults.alpha, defaults.beta, defaults.variant) == (
            RegularizerConfig.alpha, RegularizerConfig.beta, RegularizerConfig.variant
        )

    @pytest.mark.parametrize("key, raw, attribute, value", CLUSTER_KEYS, ids=[f"{k}={r}" for k, r, _, _ in CLUSTER_KEYS])
    def test_cluster_config_key(self, monkeypatch, tmp_path, key, raw, attribute, value):
        spec = self.cluster_spec(monkeypatch, tmp_path, f"{key} = {raw}\n")
        assert getattr(spec, attribute) == value
        others = {f.name for f in dataclasses.fields(ExperimentSpec)} - {attribute}
        defaults = ExperimentSpec(input="data.csv")
        assert {name: getattr(spec, name) for name in others} == {name: getattr(defaults, name) for name in others}

    @pytest.mark.parametrize("key, raw, attribute, value", GENERATE_KEYS, ids=[k for k, _, _, _ in GENERATE_KEYS])
    def test_generate_config_key(self, monkeypatch, tmp_path, key, raw, attribute, value):
        specs = []
        generate = margintree.cli.generate_synthetic
        monkeypatch.setattr(margintree.cli, "generate_synthetic", lambda spec: specs.append(spec) or generate(spec))
        cfg = tmp_path / "gen.cfg"
        magnitudes = "\nmagnitudes = 4,2,1" if key == "depth" else ""  # one magnitude per level
        cfg.write_text(f"{key} = {raw}{magnitudes}\nout = other.csv\ntruth_out = {tmp_path / 'truth.json'}\n")
        out = tmp_path / "data.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "truth.json").exists()
        expected = {attribute: value, **({"magnitudes": (4.0, 2.0, 1.0)} if key == "depth" else {})}
        assert specs[0] == SyntheticSpec(**expected)
