"""Command-line toolkit: generate synthetic data, cluster, evaluate, export.

Configuration can be loaded from a flat key=value file (--config); explicit
command-line flags override file values. Exit codes: 0 success, 1 invalid
input or configuration, 2 solver or infeasibility failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .baselines import build_hkm, build_hkm_d
from .core import Dataset, Hierarchy, flat_hierarchy
from .data import FORMATS, SyntheticSpec, generate_synthetic, load_dataset, pca_reduce, standardize
from .errors import SolverError, ValidationError
from .export import export_hierarchy, load_hierarchy_json, read_json, render, render_json
from .hier import BuildConfig, StoppingCriterion, build_hierarchy, global_objective
from .kmeans import kmeans
from .metrics import ClassTree, score_hierarchy
from .objective import VARIANTS, RegularizerConfig

logger = logging.getLogger(__name__)

METHODS = ("hmmc", "hkm", "hkm_d", "kmeans_flat", "mmc_flat")


@dataclass
class ExperimentSpec:
    """One `margintree cluster` run; also its option table, one flag per
    field (metadata: extra argparse keywords) in this order. Defaults are
    read from the configs they feed."""

    input: str
    format: str = field(default="csv", metadata={"choices": FORMATS})
    label_column: bool = False
    method: str = field(default="hmmc", metadata={"choices": METHODS})
    k: int = 2
    max_leaves: int | None = None
    min_node_size: int | None = None
    max_height: int | None = None
    alpha: float = RegularizerConfig.alpha
    beta: float = RegularizerConfig.beta
    variant: str = field(default=RegularizerConfig.variant, metadata={"choices": VARIANTS})
    seed: int = 0
    restarts: int = 1
    pca_dim: int | None = None
    standardize: bool = field(default=True, metadata={"help": "skip per-dimension standardization before PCA"})
    truth_tree: str | None = None
    hierarchy_out: str | None = None
    dot_out: str | None = None
    report_out: str | None = None
    top_features: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.k < 2:
            raise ValidationError(f"branching factor must be >= 2, got {self.k}")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.top_features < 0:
            raise ValidationError(f"top_features must be >= 0, got {self.top_features}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def stopping(self) -> StoppingCriterion:
        chosen = {
            "max_leaves": self.max_leaves,
            "min_node_size": self.min_node_size,
            "max_height": self.max_height,
        }
        if all(v is None for v in chosen.values()):
            return StoppingCriterion(max_leaves=self.k)
        return StoppingCriterion(**chosen)


def restart_seed(seed: int, restart: int) -> int:
    return int(np.random.SeedSequence([seed, 7919, restart]).generate_state(1)[0])


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def save_class_tree(tree: ClassTree, path: str) -> None:
    payload = {
        "root": tree.root,
        "children": {str(k): list(v) for k, v in tree.children.items()},
        "leaf_classes": {str(k): v for k, v in tree.leaf_classes.items()},
    }
    _write(path, render_json(payload))


def load_class_tree(path: str) -> ClassTree:
    """The class tree save_class_tree wrote to path."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "root" not in payload:
        raise ValidationError(f"{path}: a truth tree needs a root")
    children, leaf_classes = payload.get("children"), payload.get("leaf_classes")
    if not isinstance(children, dict) or not all(isinstance(kids, list) for kids in children.values()):
        raise ValidationError(f"{path}: a truth tree needs a children object of lists")
    if not isinstance(leaf_classes, dict):
        raise ValidationError(f"{path}: a truth tree needs a leaf_classes object")
    return ClassTree(root=payload["root"], children=children, leaf_classes=leaf_classes)


def _leaf_inertia(hierarchy: Hierarchy) -> float:
    total = 0.0
    for leaf in hierarchy.leaves():
        x = leaf.data.features
        if x.shape[0]:
            total += float(((x - x.mean(axis=0)) ** 2).sum())
    return total


def build_method(dataset: Dataset, spec: ExperimentSpec, seed: int) -> tuple[Hierarchy, float]:
    """One run of spec.method on the dataset with the given seed; returns
    the hierarchy and the method's own selection objective (lower is better,
    never an evaluation metric): the split objective sum of the margin
    methods, the leaf inertia of the k-means ones."""
    if spec.method == "kmeans_flat":
        result = kmeans(dataset.features, spec.k, seed)
        hierarchy = flat_hierarchy(dataset, result.labels, result.centroids)
        return hierarchy, _leaf_inertia(hierarchy) if hierarchy.incomplete else result.inertia
    stop = StoppingCriterion(max_leaves=spec.k) if spec.method == "mmc_flat" else spec.stopping()
    reg = RegularizerConfig(alpha=spec.alpha, beta=spec.beta, variant=spec.variant)
    config = BuildConfig(k=spec.k, stop=stop, reg=reg, seed=seed)
    if spec.method in ("hkm", "hkm_d"):
        hierarchy = (build_hkm if spec.method == "hkm" else build_hkm_d)(dataset, config)
        return hierarchy, _leaf_inertia(hierarchy)
    hierarchy = build_hierarchy(dataset, config)
    return hierarchy, global_objective(hierarchy)


def _evaluate_against_truth(dataset: Dataset, hierarchy, truth: ClassTree | None) -> dict:
    """RI/SP/PS of a built or reloaded hierarchy (see score_hierarchy)
    against the loaded truth tree, or against a flat truth tree over the
    labels when there is none."""
    return score_hierarchy(hierarchy, dataset, truth)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Load and check the inputs (the truth tree too) before any build, run
    the method over its restarts keeping the best run by its own objective,
    score against ground truth when available, and write the outputs."""
    started = time.perf_counter()
    dataset = load_dataset(spec.input, spec.format, spec.label_column)
    if spec.truth_tree and dataset.labels is None:
        raise ValidationError("--truth-tree needs ground-truth labels (--label-column or libsvm labels)")
    truth = load_class_tree(spec.truth_tree) if spec.truth_tree else None
    if spec.pca_dim is not None:
        if spec.standardize:
            dataset = standardize(dataset)
        dataset = pca_reduce(dataset, spec.pca_dim)

    best: tuple[float, int, Hierarchy] | None = None
    for restart in range(spec.restarts):
        hierarchy, objective = build_method(dataset, spec, restart_seed(spec.seed, restart))
        if best is None or objective < best[0]:
            best = (objective, restart, hierarchy)
    objective, chosen_restart, hierarchy = best

    report = {
        "method": spec.method,
        "params": {
            "k": spec.k,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "variant": spec.variant,
            "seed": spec.seed,
            "restarts": spec.restarts,
            "pca_dim": spec.pca_dim,
        },
        "n_instances": dataset.n,
        "n_features": dataset.p,
        "leaf_count": len(hierarchy.leaves()),
        "objective": objective,
        "chosen_restart": chosen_restart,
        "incomplete": hierarchy.incomplete,
    }

    if dataset.labels is not None:
        report["metrics"] = _evaluate_against_truth(dataset, hierarchy, truth)

    outputs = {}
    if spec.hierarchy_out:
        export_hierarchy(hierarchy, spec.hierarchy_out, "json", spec.top_features)
        outputs["hierarchy"] = spec.hierarchy_out
    if spec.dot_out:
        export_hierarchy(hierarchy, spec.dot_out, "dot", spec.top_features)
        outputs["dot"] = spec.dot_out
    report["outputs"] = outputs
    report["runtime_seconds"] = time.perf_counter() - started
    if spec.report_out:
        _write(spec.report_out, render_json(report))
    return report


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path} line {line_no}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input (exit 1), not argparse's exit 2, which
    this tool reserves for solver failures."""

    def error(self, message):
        raise ValidationError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _options(spec_cls) -> typing.Iterator[tuple[dataclasses.Field, type]]:
    """The fields of an option-table dataclass with their resolved types."""
    hints = typing.get_type_hints(spec_cls)
    return ((f, hints[f.name]) for f in dataclasses.fields(spec_cls))


def _add_options(parser: argparse.ArgumentParser, spec_cls) -> None:
    """One flag per field of spec_cls, --name-with-dashes, typed and
    defaulted as the field; a field without a default is required and a
    bool is a switch (--no-name when it defaults to True)."""
    for f, kind in _options(spec_cls):
        flag = "--" + f.name.replace("_", "-")
        if kind is bool:
            parser.add_argument("--no-" + flag[2:] if f.default else flag, action="store_true", **f.metadata)
        elif f.default is dataclasses.MISSING:
            parser.add_argument(flag, required=True, **f.metadata)
        else:
            scalar = next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))
            parser.add_argument(flag, **{"type": scalar, "default": f.default, **f.metadata})


def _spec_from_args(spec_cls, args: argparse.Namespace):
    """The spec_cls instance the flags of _add_options parsed into args."""
    values = {}
    for f, kind in _options(spec_cls):
        if kind is bool and f.default:
            values[f.name] = not getattr(args, "no_" + f.name)
        else:
            values[f.name] = getattr(args, f.name)
    return spec_cls(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was, so
    repeated main calls share it."""
    parser = _Parser(prog="margintree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a planted-hierarchy dataset and its truth tree")
    _add_common(gen)
    gen.add_argument("--out", required=True, help="output csv (features + trailing label column)")
    gen.add_argument("--truth-out", help="output json for the ground-truth class tree")
    _add_options(gen, SyntheticSpec)

    run = sub.add_parser("cluster", help="run a clustering method and write hierarchy/report")
    _add_common(run)
    _add_options(run, ExperimentSpec)

    ev = sub.add_parser("evaluate", help="score an exported hierarchy against ground truth")
    _add_common(ev)
    ev.add_argument("--hierarchy", required=True)
    ev.add_argument("--input", required=True)
    ev.add_argument("--format", choices=FORMATS, default="csv")
    ev.add_argument("--label-column", action="store_true")
    ev.add_argument("--truth-tree")
    ev.add_argument("--report-out")

    ex = sub.add_parser("export", help="convert an exported hierarchy json to dot")
    _add_common(ex)
    ex.add_argument("--hierarchy", required=True)
    ex.add_argument("--format", choices=("json", "dot"), default="dot")
    ex.add_argument("--out", required=True)

    return parser


BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line again with the config file's values as flags
    placed before the explicit ones, so the parser converts and checks them
    and an explicit flag wins."""
    if not args.config:
        return args
    flags = []
    for key, raw in _read_config_file(args.config).items():
        if key == "verbose":
            raise ValidationError(f"{args.config}: 'verbose' is not a config key; pass -v or -vv on the command line")
        if key in ("command", "config") or not hasattr(args, key):
            raise ValidationError(f"{args.config}: {key!r} is not an option of {args.command}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            flags.append(f"{flag}={raw}")
        elif raw.lower() not in BOOLS:
            raise ValidationError(f"{args.config}: {key} must be one of {', '.join(BOOLS)}, got {raw!r}")
        elif BOOLS[raw.lower()]:
            flags.append(flag)
    try:
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    except ValidationError as err:
        raise ValidationError(f"{args.config}: {err}") from None


def _cmd_generate(args) -> int:
    spec = _spec_from_args(SyntheticSpec, args)
    dataset, truth = generate_synthetic(spec)
    with open(args.out, "w") as fh:
        for row, label in zip(dataset.features.tolist(), dataset.labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    if args.truth_out:
        save_class_tree(truth, args.truth_out)
    print(f"wrote {dataset.n} instances x {dataset.p} features ({spec.n_classes} classes) to {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    spec = _spec_from_args(ExperimentSpec, args)
    report = run_experiment(spec)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    payload = load_hierarchy_json(args.hierarchy)
    dataset = load_dataset(args.input, args.format, args.label_column)
    if dataset.labels is None:
        raise ValidationError("evaluate requires ground-truth labels (--label-column or libsvm labels)")
    truth = load_class_tree(args.truth_tree) if args.truth_tree else None
    metrics = _evaluate_against_truth(dataset, payload, truth)
    report = {"hierarchy": args.hierarchy, "input": args.input, "metrics": metrics}
    if args.report_out:
        _write(args.report_out, render_json(report))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    _write(args.out, render(load_hierarchy_json(args.hierarchy), args.format))
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _apply_config(parser.parse_args(argv), parser, argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        handler = {
            "generate": _cmd_generate,
            "cluster": _cmd_cluster,
            "evaluate": _cmd_evaluate,
            "export": _cmd_export,
        }[args.command]
        return handler(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
