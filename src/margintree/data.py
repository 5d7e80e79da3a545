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
import io
import math
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


# text with any of these goes to the row-wise reader: the csv quote, CR line
# ends, NUL (a csv.Error before Python 3.11) and \x1c-\x1f, which loadtxt
# strips around a number as whitespace but float() rejects
_ROW_WISE_ONLY = '"\r\x00\x1c\x1d\x1e\x1f'


def _read_csv_plain(text: str, label_column: bool) -> Dataset | None:
    """One loadtxt pass over plain csv text: unquoted, LF line ends and one
    comma count on every non-blank line. Returns None where the result could
    differ from the row-wise reader's, which then parses the text."""
    if any(c in text for c in _ROW_WISE_ONLY):
        return None
    return _read_csv_lines(text.split("\n"), label_column)


def _read_csv_lines(lines: list[str], label_column: bool) -> Dataset | None:
    """_read_csv_plain of the text's LF-split lines, which contain none of
    _ROW_WISE_ONLY."""
    lines = [line for line in lines if line and not line.isspace()]
    commas = {line.count(",") for line in lines}
    if len(commas) != 1 or max(map(len, lines)) > csv.field_size_limit():
        return None
    width = commas.pop() + (0 if label_column else 1)
    if width == 0:
        return None
    try:
        features = np.loadtxt(lines, delimiter=",", usecols=range(width), comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    labels = np.asarray([line.rpartition(",")[2].strip() for line in lines]) if label_column else None
    return Dataset(features=features, ids=np.arange(len(lines)), labels=labels)


def _read_csv_rows(text: str, label_column: bool) -> Dataset:
    """The row-wise reader: csv.reader over the text, one _parse_row per row,
    and a ParseError naming the line of the first bad row."""
    rows = []
    labels = []
    width = None
    for line_no, record in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise ParseError(f"expected {width} columns, found {len(record)}", line=line_no)
        if label_column:
            labels.append(record[-1].strip())
            record = record[:-1]
        if not record:
            raise ParseError("no feature columns", line=line_no)
        rows.append(_parse_row(record, line_no))
    if not rows:
        raise ParseError("file contains no data rows", line=1)
    features = np.asarray(rows, dtype=float)
    ids = np.arange(features.shape[0])
    return Dataset(features=features, ids=ids, labels=np.asarray(labels) if label_column else None)


def _load_csv(path: str, label_column: bool) -> Dataset:
    """The csv file's Dataset, its text held once: plain text is dropped once
    split into lines, which the row-wise fallback joins back into the text."""
    with open(path, newline="") as fh:
        text = fh.read()
    if any(c in text for c in _ROW_WISE_ONLY):
        return _read_csv_rows(text, label_column)
    lines = text.split("\n")
    del text
    plain = _read_csv_lines(lines, label_column)
    return plain if plain is not None else _read_csv_rows("\n".join(lines), label_column)


def _load_libsvm(path: str) -> Dataset:
    labels = []
    entry_rows, entry_cols, entry_values = [], [], []  # one entry per index:value token
    max_index = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            row = len(labels)
            labels.append(tokens[0])
            seen = set()
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
                entry_rows.append(row)
                entry_cols.append(idx - 1)
                entry_values.append(_parse_float(val_str, line_no))
            max_index = max(max_index, max(seen, default=0))
    if not labels:
        raise ParseError("file contains no data rows", line=1)
    if max_index == 0:
        raise ParseError("no feature values found", line=1)
    features = np.zeros((len(labels), max_index))
    features[entry_rows, entry_cols] = entry_values
    return Dataset(features=features, ids=np.arange(len(labels)), labels=np.asarray(labels))


def load_dataset(path: str, format: str = "csv", label_column: bool = False) -> Dataset:
    """Load a dense dataset from csv (optional trailing label column) or
    libsvm sparse text (label field kept as ground truth)."""
    if format not in FORMATS:
        raise ValidationError(f"unknown format {format!r}; expected csv or libsvm")
    try:
        return _load_csv(path, label_column) if format == "csv" else _load_libsvm(path)
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
