#!/usr/bin/env python3
"""Compare all methods on a planted-hierarchy dataset.

Generates synthetic data with a known class tree, runs the hierarchical
max-margin method against the k-means baselines, and prints SP/PS/RI plus
runtimes.

Usage: python scripts/run_planted_experiment.py [--seed 0] [--per-class 50]
"""

import argparse
import time

from margintree import RegularizerConfig, SyntheticSpec, generate_synthetic, score_hierarchy
from margintree.cli import METHODS, ExperimentSpec, build_method


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-class", type=int, default=50)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=RegularizerConfig.alpha)
    parser.add_argument("--beta", type=float, default=RegularizerConfig.beta)
    args = parser.parse_args()

    spec = SyntheticSpec(per_class=args.per_class, seed=args.seed)
    dataset, truth = generate_synthetic(spec)
    n_classes = spec.n_classes
    print(f"planted data: N={dataset.n} P={dataset.p} classes={n_classes}\n")

    print(f"{'method':<12} {'SP':>8} {'PS':>8} {'RI':>8} {'time':>8}")
    for method in METHODS:
        # the hierarchical methods branch K ways down to one leaf per class;
        # the flat ones split the root into one cluster per class
        k = n_classes if method.endswith("_flat") else args.k
        # build_method reads the method options only; the data is in memory
        options = ExperimentSpec(
            input="", method=method, k=k, max_leaves=n_classes, alpha=args.alpha, beta=args.beta
        )
        started = time.perf_counter()
        hierarchy, _ = build_method(dataset, options, args.seed)
        elapsed = time.perf_counter() - started
        scores = score_hierarchy(hierarchy, dataset, truth)
        print(f"{method:<12} {scores['sp']:8.4f} {scores['ps']:8.4f} {scores['rand_index']:8.4f} {elapsed:7.1f}s")


if __name__ == "__main__":
    main()
