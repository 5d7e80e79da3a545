"""Data ingestion, PCA preprocessing, and the planted-hierarchy generator.

The generator draws a complete class tree of the requested depth and
branching; tree level l owns its own block of informative feature
dimensions, set per class by the class's ancestor branch at that level
(+/- magnitude for binary branching, seeded sign patterns otherwise), plus
zero-mean noise dimensions. Isotropic Gaussian noise of the given scale is
added everywhere, so the planted tree is recoverable level by level.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset
from .errors import ParseError, ValidationError
from .metrics import ClassTree


FORMATS = ("csv", "libsvm")


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token!r} as a number", line=line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line_no)
    return value


def _parse_row(tokens: list[str], line_no: int) -> list[float]:
    """float() of each token; a row with a bad or non-finite token is parsed
    again token by token for the error of its first bad token."""
    try:
        values = list(map(float, tokens))
        if math.isfinite(sum(values)):  # nan or inf if any value is (or on a harmless overflow)
            return values
    except ValueError:
        pass
    return [_parse_float(tok, line_no) for tok in tokens]


# a line with any of these goes to the row-wise reader: the csv quote, NUL (a
# csv.Error before Python 3.11) and \x1c-\x1f, which loadtxt strips around a
# number as whitespace but float() rejects
_ROW_WISE_ONLY = '"\x00\x1c\x1d\x1e\x1f'


def _read_plain(lines: list[str], label_column: bool) -> Dataset | None:
    """One loadtxt pass over plain csv lines (LF, CRLF or CR ends): unquoted
    and one comma count on every non-blank line. Returns None where the result
    could differ from the row-wise reader's, which then parses the lines."""
    if any(c in line for line in lines for c in _ROW_WISE_ONLY):
        return None
    lines = [line for line in lines if not line.isspace()]
    commas = {line.count(",") for line in lines}
    width = max(commas, default=0) + (0 if label_column else 1)
    if len(commas) != 1 or width == 0 or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        features = np.loadtxt(lines, delimiter=",", usecols=range(width), comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    labels = np.asarray([line.rpartition(",")[2].strip() for line in lines]) if label_column else None
    return Dataset(features=features, ids=np.arange(len(lines)), labels=labels)


def _csv_rows(lines: list[str], label_column: bool):
    """The row-wise csv reader: csv.reader over the lines, one _parse_row per
    record, and a ParseError naming the line its first bad record starts on.
    Yields (label or None, values, None) per record."""
    reader = csv.reader(lines)
    width = None
    start = 1
    for record in reader:
        line_no, start = start, reader.line_num + 1
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        width = width or len(record)
        if len(record) != width:
            raise ParseError(f"expected {width} columns, found {len(record)}", line=line_no)
        label = record.pop().strip() if label_column else None
        if not record:
            raise ParseError("no feature columns", line=line_no)
        yield label, _parse_row(record, line_no), None


def _libsvm_rows(fh):
    """The libsvm reader, one `label idx:val ...` line at a time (# starts a
    comment). Yields (label, values, 0-based columns) per non-blank line."""
    for line_no, line in enumerate(fh, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if ":" in tokens[0]:
            raise ParseError(f"expected a label before the index:value pairs, found {tokens[0]!r}", line=line_no)
        values, cols, seen = [], [], set()
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"expected index:value, found {tok!r}", line=line_no)
            idx_str, val_str = tok.split(":", 1)
            try:
                idx = int(idx_str)
            except ValueError:
                raise ParseError(f"bad feature index {idx_str!r}", line=line_no) from None
            if idx < 1:
                raise ParseError(f"feature indices are 1-based, found {idx}", line=line_no)
            if idx in seen:
                raise ParseError(f"duplicate feature index {idx}", line=line_no)
            seen.add(idx)
            cols.append(idx - 1)
            values.append(_parse_float(val_str, line_no))
        yield tokens[0], values, cols


def _table(rows) -> Dataset:
    """The Dataset of a row reader's (label, values, columns) rows. The values
    are kept in one array of doubles and the features made once from it:
    in place for dense rows (columns None, one width), or densified to the
    largest column for sparse ones."""
    labels, values, cols, counts = [], array("d"), array("q"), []
    for label, row_values, row_cols in rows:
        labels.append(label)
        values.extend(row_values)
        if row_cols is not None:
            cols.extend(row_cols)
            counts.append(len(row_cols))
    if not labels:
        raise ParseError("file contains no data rows", line=1)
    n = len(labels)
    if not counts:
        features = np.frombuffer(values).reshape(n, -1)
    elif not cols:
        raise ParseError("no feature values found", line=1)
    else:
        cols = np.frombuffer(cols, dtype=np.int64)
        features = np.zeros((n, cols.max() + 1))
        features[np.repeat(np.arange(n), counts), cols] = np.frombuffer(values)
    return Dataset(features=features, ids=np.arange(n), labels=None if labels[0] is None else np.asarray(labels))


def load_dataset(path: str, format: str = "csv", label_column: bool = False) -> Dataset:
    """Load a dense dataset from csv (optional trailing label column) or
    libsvm sparse text (label field kept as ground truth), reading it once."""
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected csv or libsvm")
    try:
        if format == "libsvm":
            with open(path) as fh:
                return _table(_libsvm_rows(fh))
        with open(path, newline="") as fh:  # split at LF, CRLF and CR, as csv.reader does
            lines = fh.readlines()
        return _read_plain(lines, label_column) or _table(_csv_rows(lines, label_column))
    except (UnicodeDecodeError, csv.Error) as err:
        raise ParseError(f"{path}: not a {format} text file ({err})") from None


def standardize(dataset: Dataset) -> Dataset:
    """Per-dimension standardization (constant dimensions pass through)."""
    x = dataset.features
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Dataset(features=(x - mean) / std, ids=dataset.ids, labels=dataset.labels)


def pca_reduce(dataset: Dataset, d: int) -> Dataset:
    """Project the centered features onto the top-d principal directions
    (descending variance; each component's largest-magnitude loading is
    made positive)."""
    x = dataset.features
    n, p = x.shape
    if not (1 <= d <= min(n, p)):
        raise ValidationError(f"d must lie in [1, min(N, P)] = [1, {min(n, p)}], got {d}")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:d]
    for row in range(d):
        lead = np.argmax(np.abs(components[row]))
        if components[row, lead] < 0:
            components[row] = -components[row]
    return Dataset(features=centered @ components.T, ids=dataset.ids, labels=dataset.labels)


def float_list(text: str) -> tuple[float, ...]:
    """'5,3' -> (5.0, 3.0): a tuple of floats as written on the command line."""
    return tuple(float(token) for token in text.split(","))


@dataclass(frozen=True)
class SyntheticSpec:
    """The planted tree and its noise; also the option table of `margintree
    generate`, one flag per field (metadata: extra argparse keywords)."""

    depth: int = 2
    branching: int = 2
    per_class: int = 50
    informative_dims: int = 10
    noise_dims: int = 10
    magnitudes: tuple[float, ...] = field(
        default=(5.0, 3.0), metadata={"type": float_list, "help": "comma-separated, one per level"}
    )
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1 or self.branching < 2 or self.per_class < 1:
            raise ValidationError("depth >= 1, branching >= 2 and per_class >= 1 required")
        if self.informative_dims < 1 or self.noise_dims < 0:
            raise ValidationError("informative_dims >= 1 and noise_dims >= 0 required")
        if len(self.magnitudes) != self.depth:
            raise ValidationError("one magnitude per tree level required")
        if any(m <= 0 for m in self.magnitudes):
            raise ValidationError("magnitudes must be positive")
        if self.noise_scale < 0:
            raise ValidationError("noise_scale must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def total_dims(self) -> int:
        return self.depth * self.informative_dims + self.noise_dims

    @property
    def n_classes(self) -> int:
        return self.branching ** self.depth


def _branch_pattern(level: int, branch: int, dims: int, branching: int, seed: int) -> np.ndarray:
    if branching == 2:
        return np.ones(dims) if branch == 0 else -np.ones(dims)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 104729, level, branch]))
    return rng.choice([-1.0, 1.0], size=dims)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, ClassTree]:
    """Planted-hierarchy dataset plus its ground-truth class tree.

    Class c's mean vector sets informative block l to
    magnitude_l * pattern(level l, branch of c at level l); class labels are
    the leaf indices 0..B^depth-1 in lexicographic branch order.
    """
    classes = [()]
    for _ in range(spec.depth):
        classes = [path + (b,) for path in classes for b in range(spec.branching)]

    p = spec.total_dims
    means = np.zeros((len(classes), p))
    for c, path in enumerate(classes):
        for level, branch in enumerate(path):
            lo = level * spec.informative_dims
            pattern = _branch_pattern(level, branch, spec.informative_dims, spec.branching, spec.seed)
            means[c, lo : lo + spec.informative_dims] = spec.magnitudes[level] * pattern

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 15485863]))
    n = len(classes) * spec.per_class
    labels = np.repeat(np.arange(len(classes)), spec.per_class)
    features = means[labels] + rng.normal(0.0, spec.noise_scale, size=(n, p))
    dataset = Dataset(features=features, ids=np.arange(n), labels=labels)

    children: dict = {"r": []}
    leaf_classes = {}
    for c, path in enumerate(classes):
        node = "r"
        for level, branch in enumerate(path):
            child = node + f".{branch}"
            if child not in children.get(node, []):
                children.setdefault(node, []).append(child)
            node = child
        leaf_classes[node] = c
    truth = ClassTree(root="r", children=children, leaf_classes=leaf_classes)
    return dataset, truth
