#!/usr/bin/env python3
"""Grid-sweep the regularization trade-offs on planted data.

Sweeps alpha and beta over {1e-4 .. 1e0}, reporting the split objective sum
(the unsupervised selection criterion), model sparsity, and RI for each
setting.

Usage: python scripts/sweep_regularizers.py [--seed 0] [--variant sparse_group]
"""

import argparse

import numpy as np

from margintree import RegularizerConfig, SyntheticSpec, generate_synthetic, score_hierarchy
from margintree.cli import ExperimentSpec, build_method

GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1e0)


def model_sparsity(hierarchy) -> float:
    weights = np.concatenate([n.split.weights.ravel() for n in hierarchy.non_leaves()])
    return float(np.mean(weights == 0.0))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-class", type=int, default=25)
    parser.add_argument("--variant", default=RegularizerConfig.variant)
    args = parser.parse_args()

    dataset, _ = generate_synthetic(SyntheticSpec(per_class=args.per_class, seed=args.seed))
    print(f"{'alpha':>8} {'beta':>8} {'objective':>12} {'sparsity':>9} {'RI':>7}")
    for alpha in GRID:
        for beta in GRID:
            # build_method reads the method options only; the data is in memory
            options = ExperimentSpec(input="", k=2, max_leaves=4, alpha=alpha, beta=beta, variant=args.variant)
            hierarchy, objective = build_method(dataset, options, args.seed)
            ri = score_hierarchy(hierarchy, dataset)["rand_index"]
            print(f"{alpha:8.0e} {beta:8.0e} {objective:12.6f} {model_sparsity(hierarchy):9.3f} {ri:7.4f}")


if __name__ == "__main__":
    main()
