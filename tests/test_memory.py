"""The program's own working set: no masked-array module, each input format
loaded at most twice its file size, and no row copies while every margin is
positive."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import margintree
import margintree.objective
import margintree.optim
from margintree import RegularizerConfig, load_dataset
from margintree.cli import main
from margintree.objective import Regularizer, label_margins, rows_of
from margintree.optim import _Pair

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
        assert np.shares_memory(pair.margin_map(origin).a, origin.xhat)
        spy = RowsSpy(monkeypatch, margintree.optim)
        hessian = origin.hessian()
        assert [np.shares_memory(a, rows) for a, rows in spy.calls] == [True]
        RowsSpy(monkeypatch, margintree.optim, copy=True)
        assert np.array_equal(hessian, origin.hessian())

    def test_pair_copies_with_an_inactive_margin(self, monkeypatch):
        x, labels, regularizer = problem(2)
        pair = _Pair(label_margins(np.zeros((2, x.shape[1])), x, labels), regularizer)
        xhat = pair.origin.xhat
        margins = pair.origin.at(-2.0 * xhat[0] / (xhat[0] @ xhat[0]))  # instance 0's margin is 1 - 2
        assert not margins.active[0] and margins.active.sum() < x.shape[0]
        rows = pair.margin_map(margins).a
        assert not np.shares_memory(rows, xhat)
        assert np.array_equal(rows, xhat[margins.active])
        spy = RowsSpy(monkeypatch, margintree.optim)
        margins.hessian()
        assert [np.shares_memory(a, rows) for a, rows in spy.calls] == [False]

    @pytest.mark.parametrize("k", [3, 4])
    def test_margins_hessian(self, monkeypatch, k):
        x, labels, _ = problem(k)
        margins = label_margins(np.zeros((k, x.shape[1])), x, labels)
        spy = RowsSpy(monkeypatch, margintree.objective)
        hessian = margins.hessian()
        assert len(spy.calls) == 3 and all(np.shares_memory(a, rows) for a, rows in spy.calls)
        assert any(a is x for a, _ in spy.calls)
        RowsSpy(monkeypatch, margintree.objective, copy=True)
        assert np.array_equal(hessian, margins.hessian())

    def test_margins_hessian_copies_with_an_inactive_instance(self, monkeypatch):
        x, labels, _ = problem(3)
        w = np.zeros((3, x.shape[1]))
        w[labels[0] - 1] = 2.0 * x[0] / (x[0] @ x[0])  # every margin of instance 0 is 1 - 2
        margins = label_margins(w, x, labels)
        assert not margins.active[0].any() and margins.active.any()
        spy = RowsSpy(monkeypatch, margintree.objective)
        hessian = margins.hessian()
        assert len(spy.calls) == 3 and not any(np.shares_memory(a, rows) for a, rows in spy.calls)
        RowsSpy(monkeypatch, margintree.objective, copy=True)
        assert np.array_equal(hessian, margins.hessian())

    def test_rows_of_copies_a_strided_array(self):
        x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        rows = rows_of(x, np.ones(4, dtype=bool))
        assert not np.shares_memory(rows, x) and rows.flags.c_contiguous and np.array_equal(rows, x)
