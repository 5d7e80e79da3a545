#!/usr/bin/env python3
"""Compare all methods on a planted-hierarchy dataset.

Generates synthetic data with a known class tree, runs the hierarchical
max-margin method against the k-means baselines, and prints SP/PS/RI plus
runtimes.

Usage: python scripts/run_planted_experiment.py [--seed 0] [--per-class 50]
"""

import argparse
import time

from margintree import (
    BuildConfig,
    RegularizerConfig,
    SolverConfig,
    StoppingCriterion,
    SyntheticSpec,
    build_hierarchy,
    build_hkm,
    build_hkm_d,
    flat_hierarchy,
    generate_synthetic,
    kmeans,
    leaf_partition,
    score_leaves,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-class", type=int, default=50)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=1e-2)
    parser.add_argument("--beta", type=float, default=1e-2)
    args = parser.parse_args()

    spec = SyntheticSpec(per_class=args.per_class, seed=args.seed)
    dataset, truth = generate_synthetic(spec)
    n_classes = spec.n_classes
    print(f"planted data: N={dataset.n} P={dataset.p} classes={n_classes}\n")

    reg = RegularizerConfig(alpha=args.alpha, beta=args.beta)
    stop = StoppingCriterion(max_leaves=n_classes)

    def hmmc():
        cfg = BuildConfig(k=args.k, stop=stop, reg=reg, solver=SolverConfig(), seed=args.seed)
        return build_hierarchy(dataset, cfg)

    def hkm():
        cfg = BuildConfig(k=args.k, stop=stop, reg=reg, solver=SolverConfig(), seed=args.seed)
        return build_hkm(dataset, cfg)

    def hkm_d():
        cfg = BuildConfig(k=args.k, stop=stop, reg=reg, solver=SolverConfig(), seed=args.seed)
        return build_hkm_d(dataset, cfg)

    def km_flat():
        result = kmeans(dataset.features, n_classes, seed=args.seed)
        return flat_hierarchy(dataset, result.labels, result.centroids)

    def mmc_flat():
        cfg = BuildConfig(
            k=n_classes, stop=StoppingCriterion(max_leaves=n_classes),
            reg=reg, solver=SolverConfig(), seed=args.seed,
        )
        return build_hierarchy(dataset, cfg)

    print(f"{'method':<12} {'SP':>8} {'PS':>8} {'RI':>8} {'time':>8}")
    for name, builder in (("hmmc", hmmc), ("hkm", hkm), ("hkm_d", hkm_d),
                          ("kmeans_flat", km_flat), ("mmc_flat", mmc_flat)):
        started = time.perf_counter()
        hierarchy = builder()
        elapsed = time.perf_counter() - started
        part = leaf_partition(hierarchy)
        leaf_ids = [part[i] for i in dataset.ids.tolist()]
        scores = score_leaves(leaf_ids, hierarchy.root_id, hierarchy.children_map(), dataset.labels, truth)
        print(f"{name:<12} {scores['sp']:8.4f} {scores['ps']:8.4f} {scores['rand_index']:8.4f} {elapsed:7.1f}s")


if __name__ == "__main__":
    main()
