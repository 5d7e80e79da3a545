"""The program's own working set: no masked-array module, each input format
loaded at most twice its file size, no row copies while every margin is
positive, at most one row per instance in the margin map, which its Hessian
reads too, and no n x K x P array in the k-means distances or n x P array
in its inertia."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import margintree
import margintree.optim
from margintree import (
    BuildConfig,
    RegularizerConfig,
    StoppingCriterion,
    SyntheticSpec,
    build_hierarchy,
    generate_synthetic,
    load_dataset,
)
from margintree.cli import main, restart_seed
from margintree.kmeans import kmeans, squared_distances, squared_norms
from margintree.objective import Regularizer, label_margins, rows_of
from margintree.optim import _General, _Pair
from oracles import margin_map_loops, squared_distances_tensor

OPS = """
import sys
from margintree.cli import main
runs = [["generate", "--out", "d.csv", "--truth-out", "t.json", "--per-class", "10"]]
for method in ("hmmc", "hkm", "hkm_d", "kmeans_flat", "mmc_flat"):
    runs.append(["cluster", "--input", "d.csv", "--label-column", "--method", method, "--truth-tree", "t.json",
                 "--hierarchy-out", method + ".json", "--dot-out", method + ".dot", "--report-out", method + ".r.json"])
runs.append(["evaluate", "--input", "d.csv", "--label-column", "--hierarchy", "hmmc.json", "--truth-tree", "t.json"])
runs.append(["export", "--hierarchy", "hmmc.json", "--format", "dot", "--out", "e.dot"])
for argv in runs:
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def run_python(code, cwd):
    src = os.path.dirname(os.path.dirname(margintree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_no_masked_array_module(tmp_path):
    if run_python("import sys, numpy; print('numpy.ma' in sys.modules)", tmp_path) == "True":
        pytest.skip("import numpy itself loads numpy.ma")
    assert run_python(OPS, tmp_path) == "False"


def copy_as(text, layout):
    """A generated csv file's text in one of the layouts load_dataset reads,
    and its format: the same rows and labels in each."""
    rows = [line.split(",") for line in text.splitlines()]
    if layout == "lf":
        return text, "csv"
    if layout == "crlf":
        return text.replace("\n", "\r\n"), "csv"
    if layout == "quoted":  # quoted labels: the row-wise reader
        return "".join(",".join(row[:-1]) + f',"{row[-1]}"\n' for row in rows), "csv"
    return "".join(" ".join([row[-1]] + [f"{j}:{v}" for j, v in enumerate(row[:-1], 1)]) + "\n" for row in rows), "libsvm"


@pytest.fixture(scope="module")
def generated_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("load") / "planted.csv"
    assert main(["generate", "--out", str(path), "--per-class", "250", "--seed", "2"]) == 0
    return path


@pytest.mark.parametrize("layout", ["lf", "crlf", "quoted", "libsvm"])
def test_load_peak(tmp_path, generated_csv, layout):
    # the file is read once as lines (csv) or streamed (libsvm), and the
    # values go straight into one array: no load holds the text, the lines and
    # the features at once, or the values as Python float lists
    text, fmt = copy_as(generated_csv.read_text(), layout)
    path = tmp_path / f"planted.{layout}"
    path.write_bytes(text.encode())
    tracemalloc.start()
    try:
        dataset = load_dataset(str(path), fmt, label_column=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.n == 1000
    assert peak <= 2.0 * path.stat().st_size
    lf = load_dataset(str(generated_csv), label_column=True)
    assert dataset.features.tobytes() == lf.features.tobytes()
    assert dataset.labels.tolist() == lf.labels.tolist()


class RowsSpy:
    """rows_of as the module has it, recording each (array, rows) it gives."""

    def __init__(self, monkeypatch, module, copy=False):
        self.calls = []
        monkeypatch.setattr(module, "rows_of", self)
        self.copy = copy

    def __call__(self, a, mask):
        rows = a[mask] if self.copy else rows_of(a, mask)
        self.calls.append((a, rows))
        return rows


def problem(k, n=30, p=6, seed=3):
    rng = np.random.default_rng(seed)
    x, labels = rng.normal(size=(n, p)), np.arange(n) % k + 1
    return x, labels, Regularizer(RegularizerConfig(), (), k, p)


class TestRowsAtZero:
    """At w = 0 every margin is positive: the products read the rows in place,
    with the copy path's bits; one inactive margin brings the copy back."""

    def test_pair_margin_map_and_hessian(self, monkeypatch):
        x, labels, regularizer = problem(2)
        pair = _Pair(label_margins(np.zeros((2, x.shape[1])), x, labels), regularizer)
        origin = pair.origin
        spy = RowsSpy(monkeypatch, margintree.optim)
        a = pair.margin_map(origin)
        hessian = a.hessian()
        assert np.shares_memory(a.a, origin.xhat)
        assert [np.shares_memory(array, rows) for array, rows in spy.calls] == [True]
        RowsSpy(monkeypatch, margintree.optim, copy=True)
        assert np.array_equal(hessian, pair.margin_map(origin).hessian())

    def test_pair_copies_with_an_inactive_margin(self, monkeypatch):
        x, labels, regularizer = problem(2)
        pair = _Pair(label_margins(np.zeros((2, x.shape[1])), x, labels), regularizer)
        xhat = pair.origin.xhat
        margins = pair.origin.at(-2.0 * xhat[0] / (xhat[0] @ xhat[0]))  # instance 0's margin is 1 - 2
        assert not margins.active[0] and margins.active.sum() < x.shape[0]
        spy = RowsSpy(monkeypatch, margintree.optim)
        a = pair.margin_map(margins)
        a.hessian()
        assert not np.shares_memory(a.a, xhat)
        assert np.array_equal(a.a, xhat[margins.active])
        assert [np.shares_memory(array, rows) for array, rows in spy.calls] == [False]

    @pytest.mark.parametrize("k", [3, 4])
    def test_margins_hessian(self, monkeypatch, k):
        x, labels, regularizer = problem(k)
        general = _General(label_margins(np.zeros((k, x.shape[1])), x, labels), regularizer)
        spy = RowsSpy(monkeypatch, margintree.optim)
        hessian = general.margin_map(general.origin).hessian()
        assert len(spy.calls) == 3 and all(np.shares_memory(a, rows) for a, rows in spy.calls)
        assert any(a is x for a, _ in spy.calls)
        RowsSpy(monkeypatch, margintree.optim, copy=True)
        assert np.array_equal(hessian, general.margin_map(general.origin).hessian())

    def test_margins_hessian_copies_with_an_inactive_instance(self, monkeypatch):
        x, labels, regularizer = problem(3)
        w = np.zeros((3, x.shape[1]))
        w[labels[0] - 1] = 2.0 * x[0] / (x[0] @ x[0])  # every margin of instance 0 is 1 - 2
        general = _General(label_margins(np.zeros_like(w), x, labels), regularizer)
        margins = general.origin.at(w)
        assert not margins.active[0].any() and margins.active.any()
        spy = RowsSpy(monkeypatch, margintree.optim)
        hessian = general.margin_map(margins).hessian()
        assert len(spy.calls) == 3 and not any(np.shares_memory(a, rows) for a, rows in spy.calls)
        RowsSpy(monkeypatch, margintree.optim, copy=True)
        assert np.array_equal(hessian, general.margin_map(margins).hessian())

    def test_rows_of_copies_a_strided_array(self):
        x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        rows = rows_of(x, np.ones(4, dtype=bool))
        assert not np.shares_memory(rows, x) and rows.flags.c_contiguous and np.array_equal(rows, x)


def traced_peak(run):
    """run()'s result and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMarginMapRows:
    """At K >= 3 the margin map holds each instance's row at most once: x
    itself while every instance has a positive margin, else the rows of those
    that have one, with the margins read through flat indices."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_x_itself_at_zero(self, k):
        x, labels, regularizer = problem(k)
        general = _General(label_margins(np.zeros((k, x.shape[1])), x, labels), regularizer)
        assert general.margin_map(general.origin).rows is x

    @pytest.mark.parametrize("k", [3, 4])
    def test_one_row_per_instance(self, k):
        # instance 0 has no positive margin and the others some: the map holds
        # one row per instance with one, and applies A and A^T as the loops do
        x, labels, regularizer = problem(k, n=40)
        rng = np.random.default_rng(k)
        w = rng.normal(size=(k, x.shape[1]))
        w[labels[0] - 1] += 40.0 * x[0] / (x[0] @ x[0])
        margins = label_margins(w, x, labels)
        active, rows = margins.active, margins.active.any(axis=1)
        assert not rows[0] and rows.any() and active.sum() > rows.sum()
        a = _General(label_margins(np.zeros_like(w), x, labels), regularizer).margin_map(margins)
        assert a.rows.shape[0] == rows.sum() and np.array_equal(a.rows, x[rows])
        z, lam = rng.normal(size=w.shape), rng.normal(size=a.size)
        forward, adjoint = a(z), a.adjoint(lam)
        assert np.allclose(forward, margin_map_loops(z, x, margins.y0)[active], rtol=0, atol=1e-12)
        full = np.zeros(active.shape)
        full[active] = lam
        expected = np.stack([(margin_map_loops(e.reshape(w.shape), x, margins.y0) * full).sum()
                             for e in np.eye(w.size)]).reshape(w.shape)
        assert np.allclose(adjoint, expected, rtol=0, atol=1e-12)
        assert abs(float(forward @ lam) - float((z * adjoint).sum())) <= 1e-12 * max(1.0, float(np.abs(forward).sum()))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hessian_reads_the_map_rows(self, k):
        # with instance 0 inactive, the Hessian's Gram blocks read the rows the
        # map selected: its peak holds the Hessian twice (the blocks and their
        # scaling) and, at K >= 3, one n_a x P block product at a time, not a
        # second selection of the rows
        x, labels, regularizer = problem(k, n=2000, p=30)
        at_zero = label_margins(np.zeros((k, x.shape[1])), x, labels)
        if k == 2:
            space = _Pair(at_zero, regularizer)
            xhat = space.origin.xhat
            margins = space.origin.at(-2.0 * xhat[0] / (xhat[0] @ xhat[0]))
        else:
            space = _General(at_zero, regularizer)
            w = np.zeros((k, x.shape[1]))
            w[labels[0] - 1] = 2.0 * x[0] / (x[0] @ x[0])  # every margin of instance 0 is 1 - 2
            margins = space.origin.at(w)
        a = space.margin_map(margins)
        rows = a.a if k == 2 else a.rows
        assert rows.shape[0] < x.shape[0]
        hessian, peak = traced_peak(a.hessian)
        assert a.hessian() is hessian
        assert peak < 2 * hessian.nbytes + (0.5 if k == 2 else 1.5) * rows.nbytes


class TestSquaredDistances:
    """kmeans.squared_distances is |x|^2 - 2 x.c + |c|^2 clamped at 0: no
    n x K x P temporary, the difference tensor's values to rounding and the
    same nearest centroids on the planted shapes."""

    def test_peak_below_the_tensor(self):
        n, k, p = 5000, 4, 30
        rng = np.random.default_rng(5)
        x, centroids = rng.normal(size=(n, p)), rng.normal(size=(k, p))
        norms = squared_norms(x)
        distances, peak = traced_peak(lambda: squared_distances(x, centroids, norms))
        assert distances.shape == (n, k)
        assert peak < n * k * p * 8

    @pytest.mark.parametrize("branching, per_class, k", [(2, 50, 2), (2, 400, 2), (4, 50, 4)])
    def test_the_tensor_form(self, branching, per_class, k):
        x = generate_synthetic(SyntheticSpec(branching=branching, per_class=per_class, seed=0))[0].features
        for centroids in (kmeans(x, k, seed=1).centroids, x[:k]):
            ours, tensor = squared_distances(x, centroids, squared_norms(x)), squared_distances_tensor(x, centroids)
            assert ours.min() >= 0.0
            assert np.abs(ours - tensor).max() <= 1e-9 * tensor.max()
            assert np.array_equal(ours.argmin(axis=1), tensor.argmin(axis=1))


def test_kmeans_peak():
    # Lloyd's inertia is read from the n x K distances, so a call holds no n x P
    # array beside x: about 1.1 x.nbytes, 2.1 with the difference form
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5000, 30))
    result, peak = traced_peak(lambda: kmeans(x, 4, seed=1))
    assert result.labels.shape == (5000,)
    assert peak < 1.5 * x.nbytes


def test_planted_wide_build_peak():
    # a K = 4 build of the planted-wide workload's dataset 0, as `cluster --k 4
    # --max-leaves 10 --seed 0` makes it: about 1.1 MB with one row per active
    # instance in the margin maps and n x K k-means distances, 1.6 MB with a
    # row per positive margin and the n x K x P difference tensor
    ds, _ = generate_synthetic(SyntheticSpec(branching=4, per_class=50, seed=0))
    config = BuildConfig(k=4, stop=StoppingCriterion(max_leaves=10), reg=RegularizerConfig(alpha=0.01, beta=0.01),
                         seed=restart_seed(0, 0))
    hierarchy, peak = traced_peak(lambda: build_hierarchy(ds, config))
    assert len(hierarchy.leaves()) == 10
    assert peak < 1.35 * 2**20


def test_planted_large_build_peak():
    # a K = 2 build of the planted-large workload's dataset 0, as `cluster --k 2
    # --max-leaves 4 --seed 0` makes it: about 1.2 MB with the Hessian read from
    # the margin map's rows and the k-means inertia from the n x K distances,
    # 1.45 MB with a second selection of the rows and the n x P differences
    ds, _ = generate_synthetic(SyntheticSpec(branching=2, per_class=400, seed=0))
    config = BuildConfig(k=2, stop=StoppingCriterion(max_leaves=4), reg=RegularizerConfig(alpha=0.01, beta=0.01),
                         seed=restart_seed(0, 0))
    hierarchy, peak = traced_peak(lambda: build_hierarchy(ds, config))
    assert len(hierarchy.leaves()) == 4
    assert peak < 1.3 * 2**20
