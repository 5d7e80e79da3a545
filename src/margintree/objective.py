"""Scalar terms of the per-node split objective.

A node split with K clusters over data D fits one linear model per cluster.
The loss is the averaged squared hinge over all wrong-cluster margins,

    H(w) = 1/(|D| K) * sum_i sum_{y != y_i} [1 - w_{y_i}.x_i + w_y.x_i]_+^2,

and the regularizers are the column-wise group norm

    G(w) = 1/(P K) * sum_p ||w_{:,p}||_2

and the exclusive overlap with the frozen ancestor-path models

    E(w) = 1/(K |A| P) * sum_k sum_a sum_p |w_{k,p}| * |ancestor_a_p|,

which for fixed ancestors is a weighted l1 norm with per-feature weights
lambda_E. At the root (no ancestors) E and lambda_E are identically zero.

A Regularizer is built once per split: it computes lambda_E from the
ancestor chain (core.ancestor_chain: the ancestors' weight rows on the path)
and the group normalization lambda_G = 1/(P K), and holds the one table of
variants, each with its value and the coefficients of its prox.

Every function here takes arrays: K x P weights w, n x P features x and the
chain's P-vectors; the tree's Split and NodeData stay with its builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VARIANTS = ("sparse_group", "group_only", "exclusive_only", "l1", "squared_l2")


@dataclass(frozen=True)
class RegularizerConfig:
    """Trade-off weights alpha (group/simple term) and beta (exclusive term),
    plus the variant toggle.

    Variants: sparse_group = alpha*G + beta*E; group_only = alpha*G;
    exclusive_only = beta*E; l1 and squared_l2 replace the pair with
    alpha*sum|w|/(K P) and alpha*sum w^2/(K P).
    """

    alpha: float = 0.01
    beta: float = 0.01
    variant: str = "sparse_group"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


def _check_labels(labels, n: int, k: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise ValidationError(f"expected {n} labels, got shape {y.shape}")
    if y.size and (y.min() < 1 or y.max() > k):
        raise ValidationError(f"labels must lie in 1..{k}")
    return y


def _check_dims(w: np.ndarray, x: np.ndarray) -> None:
    if w.shape[1] != x.shape[1]:
        raise ValidationError(f"model dimension {w.shape[1]} != feature dimension {x.shape[1]}")


def cost_matrix(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-instance, per-cluster assignment costs of K x P weights on n x P
    features: cost[i, y] = sum_{y' != y} [1 - w_y.x_i + w_y'.x_i]_+^2."""
    _check_dims(w, x)
    scores = x @ w.T
    margins = 1.0 - scores[:, :, None] + scores[:, None, :]
    k = w.shape[0]
    margins[:, np.arange(k), np.arange(k)] = 0.0
    return (np.maximum(margins, 0.0) ** 2).sum(axis=2)


def rows_of(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """a[mask] along the first axis, or a itself when the mask keeps every
    row of a C-ordered a (as at w = 0, where every margin is positive): the
    same contents, shape and layout, so the same products, without the copy."""
    return a if a.flags.c_contiguous and mask.all() else a[mask]


class Margins:
    """The label margins of K x P weights w on n x P features x under 0-based
    labels y0, from one product x w^T: values[i, y] = 1 - w_{y_i}.x_i +
    w_y.x_i, zero at y = y_i (row i of the cost tensor at the own label), and
    active, the n x K mask of the positive ones (the hinge terms with
    curvature). The loss and gradient at w read this one record."""

    def __init__(self, w: np.ndarray, x: np.ndarray, y0: np.ndarray):
        scores = x @ w.T
        rows = np.arange(x.shape[0])
        values = 1.0 - scores[rows, y0][:, None] + scores
        values[rows, y0] = 0.0
        self.x, self.y0, self.values, self.active = x, y0, values, values > 0.0

    def at(self, w: np.ndarray) -> "Margins":
        return Margins(w, self.x, self.y0)

    def loss(self) -> float:
        return float((np.maximum(self.values, 0.0) ** 2).sum(axis=1).sum() / self.values.size)

    def grad(self) -> np.ndarray:
        return margin_adjoint(2.0 * np.maximum(self.values, 0.0), self.x, self.y0) / self.values.size


def label_margins(w: np.ndarray, x: np.ndarray, labels) -> Margins:
    """The checked Margins record of the K x P weights on the n x P features
    (1-based labels)."""
    _check_dims(w, x)
    return Margins(w, x, _check_labels(labels, x.shape[0], w.shape[0]) - 1)


def hinge_loss(w: np.ndarray, x: np.ndarray, labels) -> float:
    """Averaged squared hinge loss of assigning each instance to its label;
    equals cost_matrix(w, x)[i, y_i] summed over i, over n K."""
    return label_margins(w, x, labels).loss()


def hinge_grad(w: np.ndarray, x: np.ndarray, labels) -> np.ndarray:
    """Exact gradient of hinge_loss with respect to the K x P weights."""
    return label_margins(w, x, labels).grad()


def margin_adjoint(lam: np.ndarray, x: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """K x P adjoint of the margin map, the n x K linear part z_y.x_i -
    z_{y_i}.x_i of the margins at K x P weights z (y0 holds 0-based labels):
    sum_i sum_{y != y_i} lam[i, y] (e_y - e_{y_i}) x_i^T for an n x K array
    lam (its own-label entries are ignored)."""
    rows = np.arange(x.shape[0])
    coef = lam.copy()
    coef[rows, y0] = 0.0
    coef[rows, y0] = -coef.sum(axis=1)
    return coef.T @ x


def column_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each feature column of a real K x P array; the same
    float operations as numpy's vector 2-norm along axis 0, without its
    argument handling."""
    return np.sqrt(np.add.reduce(w * w, axis=0))


def group_reg(w: np.ndarray) -> float:
    """Column-wise group norm G(w) of K x P weights; zero iff w = 0."""
    return float(column_norms(w).sum() / (w.shape[1] * w.shape[0]))


def exclusive_weights(chain: tuple[np.ndarray, ...], k: int, p: int) -> np.ndarray:
    """Read-only per-feature l1 weights lambda_E from the ancestor rows on
    the path, root first; zero at the root."""
    lam = np.zeros(p)
    for row in chain:
        lam += np.abs(row)
    if len(chain):
        lam /= k * len(chain) * p
    lam.setflags(write=False)
    return lam


class Regularizer:
    """The variant-selected regularization term of one split (everything
    except the hinge), for K x P weights under a fixed ancestor chain; built
    once per split.

    lambda_E and lambda_G are computed once, here, and the variant picks one
    row of the table below: its value expression and the coefficients of its
    prox per unit step. The prox with step s soft-thresholds each entry by
    s * l1 (a read-only P-vector), shrinks each column by s * group, and
    rescales by 1/(1 + 2 s quad), the prox of quad * sum w^2. value(w)
    evaluates the term, complexity(w) the G + E denominator of the splitting
    score.
    """

    def __init__(self, config: RegularizerConfig, chain: tuple[np.ndarray, ...], k: int, p: int):
        self.lambda_g = 1.0 / (p * k)
        self.lambda_e = exclusive_weights(chain, k, p)
        self._has_ancestors = len(chain) > 0
        alpha, beta = config.alpha, config.beta
        g, e, none = alpha * self.lambda_g, beta * self.lambda_e, np.zeros(p)

        def group(w, norms):
            return alpha * float((column_norms(w) if norms is None else norms).sum() / (p * k))

        # variant: (value of the K x P weights given their column norms or None, l1, group, quad)
        table = {
            "sparse_group": (lambda w, norms: group(w, norms) + beta * self._exclusive(w), e, g, 0.0),
            "group_only": (group, none, g, 0.0),
            "exclusive_only": (lambda w, norms: beta * self._exclusive(w), e, 0.0, 0.0),
            "l1": (lambda w, norms: alpha * float(np.abs(w).sum()) / (k * p), np.full(p, g), 0.0, 0.0),
            "squared_l2": (lambda w, norms: alpha * float((w**2).sum()) / (k * p), none, 0.0, g),
        }
        self._value, l1, self.group, self.quad = table[config.variant]
        # alpha and beta are finite, but beta * lambda_E can overflow
        coefficients = np.append(l1, (self.group, self.quad))
        if not (np.all(np.isfinite(coefficients)) and np.all(coefficients >= 0)):
            raise ValidationError("prox coefficients must be finite and >= 0")
        l1.setflags(write=False)
        self.l1 = l1

    def _exclusive(self, w: np.ndarray) -> float:
        return float((np.abs(w) * self.lambda_e).sum()) if self._has_ancestors else 0.0

    def complexity(self, w: np.ndarray) -> float:
        """G(w) + E(w), with this split's lambda_E, whatever the variant."""
        return group_reg(w) + self._exclusive(w)

    def value(self, w: np.ndarray, norms: np.ndarray | None = None) -> float:
        """The term at the K x P weights; norms, when given, are their column
        norms (the prox hands on those it shrank), which no variant then recomputes."""
        return self._value(w, norms)


def regularizer_value(w: np.ndarray, chain: tuple[np.ndarray, ...], config: RegularizerConfig) -> float:
    """The variant-selected regularization term (everything except the hinge)."""
    return Regularizer(config, chain, *w.shape).value(w)


def node_objective(w: np.ndarray, labels, regularizer: Regularizer, x: np.ndarray) -> float:
    """Full split objective of K x P weights on n x P features: the split's
    regularizer plus the averaged squared hinge."""
    return regularizer.value(w) + hinge_loss(w, x, labels)
