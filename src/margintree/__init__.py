"""Hierarchical maximum-margin clustering.

Top-down greedy construction of a cluster tree; each node split jointly
optimizes per-cluster linear models (sparse-group regularized squared-hinge
loss, damped proximal Newton) and balanced cluster assignments (min-cost
flow), with taxonomy evaluation metrics and k-means baselines.

This namespace holds what a library user needs: data, the build configs and
builders, scoring and export. Internals are imported from their modules;
`margintree.cli` has `ExperimentSpec` and `build_method`, which run any of
the five methods the way `margintree cluster` does. The solvers' budgets and
tolerances are module constants, not settings: `optim.MAX_OUTER_ITERS` and
`optim.REL_OBJ_TOL` for the weight update, `split.MAX_ALTERNATIONS` for a
split, `kmeans.MAX_ITERS` and `kmeans.TOL` for k-means.
"""

from .baselines import build_hkm, build_hkm_d
from .core import Dataset, Hierarchy, flat_hierarchy
from .data import SyntheticSpec, generate_synthetic, load_dataset, pca_reduce
from .errors import SolverError, ValidationError
from .export import export_hierarchy, load_hierarchy_json
from .hier import BuildConfig, StoppingCriterion, build_hierarchy, global_objective
from .kmeans import kmeans
from .metrics import ClassTree, rand_index, score_hierarchy, score_leaves
from .objective import RegularizerConfig

__version__ = "0.1.0"
