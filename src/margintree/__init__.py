"""Hierarchical maximum-margin clustering.

Top-down greedy construction of a cluster tree; each node split jointly
optimizes per-cluster linear models (sparse-group regularized squared-hinge
loss, damped proximal Newton) and balanced cluster assignments (min-cost
flow), with taxonomy evaluation metrics and k-means baselines.
"""

from .baselines import build_hkm, build_hkm_d, hkm_d_split_score, hkm_split_score
from .core import (
    AncestorChain,
    ClusterModels,
    Dataset,
    Hierarchy,
    NodeData,
    TreeNode,
    ancestor_chain,
    flat_hierarchy,
    leaf_partition,
    subset,
)
from .data import SyntheticSpec, generate_synthetic, load_dataset, pca_reduce
from .errors import (
    ConfigError,
    ParseError,
    SolverError,
    StructureError,
    UnsplittableNodeError,
    ValidationError,
)
from .export import export_hierarchy, hierarchy_to_dict, load_hierarchy_json
from .flow import solve_balanced_assignment
from .hier import BuildConfig, StoppingCriterion, build_hierarchy, global_objective, node_seed, should_stop
from .kmeans import KMeansResult, kmeans
from .metrics import (
    ClassTree,
    path_sharing_similarity,
    rand_index,
    score_leaves,
    semantic_score,
    shortest_path_similarity,
)
from .objective import (
    Regularizer,
    RegularizerConfig,
    cost_matrix,
    exclusive_weights,
    group_reg,
    hinge_grad,
    hinge_loss,
    node_objective,
)
from .optim import SolverConfig, prox_group, prox_sparse_group, prox_weighted_l1, solve_w
from .split import BalanceBounds, SplitResult, balance_bounds, init_assignment, split_node

__version__ = "0.1.0"
