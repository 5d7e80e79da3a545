import csv
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margintree.data
from margintree import SyntheticSpec, ValidationError, generate_synthetic, load_dataset, pca_reduce
from margintree.cli import main
from margintree.data import _csv_rows, _read_plain, _table, standardize
from margintree.errors import ParseError
from oracles import reference_parse_csv


@pytest.fixture
def pipe_path():
    """Path of the read end of a pipe that holds the given text; the file
    can be read once and not reopened from the start."""
    fds = []

    def make(text):
        read_fd, write_fd = os.pipe()
        os.write(write_fd, text.encode())
        os.close(write_fd)
        fds.append(read_fd)
        return f"/dev/fd/{read_fd}"

    yield make
    for fd in fds:
        os.close(fd)


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_basic(self, tmp_path):
        ds = load_dataset(self.write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert ds.n == 3 and ds.p == 2
        assert ds.labels is None
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_column(self, tmp_path):
        ds = load_dataset(self.write(tmp_path, "1,2,a\n3,4,b\n"), label_column=True)
        assert ds.p == 2
        assert ds.labels.tolist() == ["a", "b"]

    def test_inf_rejected_with_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(self.write(tmp_path, "1,2\n1,inf\n"))

    def test_bad_token_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(self.write(tmp_path, "1,2\n3,4\nx,6\n"))

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(self.write(tmp_path, "1,2\n3\n"))

    def test_row_order_preserved(self, tmp_path):
        ds = load_dataset(self.write(tmp_path, "9,9\n1,1\n5,5\n"))
        assert ds.features[0, 0] == 9.0 and ds.features[2, 0] == 5.0

    def test_bad_token_after_blank_lines(self, tmp_path):
        # row 2 of the data sits on line 5 of the file
        with pytest.raises(ParseError, match=r"^line 5: cannot parse 'x' as a number$"):
            load_dataset(self.write(tmp_path, "1,2\n\n\n \n3,x\n"))

    @pytest.mark.parametrize("token", ["nan", "-inf", "NaN", "1e999"])
    def test_non_finite_after_blank_lines(self, tmp_path, token):
        with pytest.raises(ParseError, match=rf"^line 4: non-finite value '{token}'$") as err:
            load_dataset(self.write(tmp_path, f"1,2\n\n3,4\n5,{token}\n6,7\n"))
        assert err.value.line == 4

    def test_first_non_finite_token_of_the_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 2: non-finite value 'nan'$"):
            load_dataset(self.write(tmp_path, "1,2,3\n4,nan,-inf\n"))

    def test_non_finite_before_unparsable_token_in_a_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 1: non-finite value 'inf'$"):
            load_dataset(self.write(tmp_path, "inf,x\n"))

    def test_non_finite_reported_before_a_later_ragged_row(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 2: non-finite value '-inf'$"):
            load_dataset(self.write(tmp_path, "1,2\n-inf,3\n4\n"))

    def test_bad_token_with_label_column(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 3: cannot parse 'y' as a number$"):
            load_dataset(self.write(tmp_path, "1,2,a\n\n3,y,b\n"), label_column=True)

    def test_non_finite_with_label_column(self, tmp_path):
        # the label field is never parsed, so a label spelled nan is fine
        ds = load_dataset(self.write(tmp_path, "1,2,nan\n"), label_column=True)
        assert ds.labels.tolist() == ["nan"]
        with pytest.raises(ParseError, match=r"^line 2: non-finite value 'nan'$"):
            load_dataset(self.write(tmp_path, "1,2,a\n3,nan,b\n"), label_column=True)

    def test_finite_values_whose_row_sum_overflows(self, tmp_path):
        ds = load_dataset(self.write(tmp_path, "1e308,1e308\n-1e308,-1e308\n"))
        assert np.array_equal(ds.features, [[1e308, 1e308], [-1e308, -1e308]])

    @pytest.mark.parametrize(
        "text, label_column, message",
        [
            ('1,"a\nb"\nx,c\n', True, "line 3: cannot parse 'x' as a number"),  # record 1 spans lines 1 and 2
            ('1,2\n3,"4\n5",6\n7,8\n', False, "line 2: expected 2 columns, found 3"),  # record 2 ends on line 3
            ('1,"a\r\nb"\r\n\r\ny,c\r\n', True, "line 4: cannot parse 'y' as a number"),
        ],
    )
    def test_error_names_the_line_a_record_starts_on(self, tmp_path, text, label_column, message):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match=f"^{message}$"):
            load_dataset(str(path), label_column=label_column)

    @needs_dev_fd
    def test_non_finite_from_a_pipe(self, pipe_path):
        with pytest.raises(ParseError, match=r"^line 3: non-finite value 'nan'$"):
            load_dataset(pipe_path("1,2\n\n3,nan\n"))
        ds = load_dataset(pipe_path("1,2\n3,4\n"))
        assert np.array_equal(ds.features, [[1, 2], [3, 4]])

    def test_bit_identical_to_per_token_parser(self, tmp_path):
        path = str(tmp_path / "planted.csv")
        assert main(["generate", "--out", path, "--per-class", "40", "--seed", "4"]) == 0
        ds = load_dataset(path, label_column=True)
        reference = reference_parse_csv(path, label_column=True)
        assert ds.features.shape == reference.shape == (160, 30)
        assert ds.features.tobytes() == reference.tobytes()


def read_outcome(read):
    """What a read gives: the features' shape and bytes and the labels, or the
    ParseError's text and line."""
    try:
        ds = read()
    except ParseError as err:
        return "error", str(err), err.line
    return ds.features.shape, ds.features.tobytes(), None if ds.labels is None else ds.labels.tolist()


# text, label column, and whether the plain path reads it (otherwise it leaves
# it to the row-wise reader)
PLAIN_PATH_CASES = {
    "padded tokens": (" 1.5,\x0b1,1\xa0\n2,\t3 ,4\u3000\n", False, True),
    "padded label": ("1,2, a \n3,4,\tb\n", True, True),
    "underscore digits": ("1_0,2\n3,4\n", False, False),
    "arabic-indic digit": ("\u0661,2\n3,4\n", False, False),
    "separator char around a number": ("1,2\n\x1c3,4\n", False, False),
    "Infinity": ("1,2\n3,Infinity\n", False, False),
    "overflow to inf": ("1,2\n1e400,4\n", False, False),
    "nan": ("1,nan,a\n3,4,b\n", True, False),
    "nan label": ("1,2,nan\n", True, True),
    "subnormal, negative zero, underflow": ("4.9e-324,-0.0\n1e-400,-4.9e-324\n", False, True),
    "CRLF": ("1,2,a\r\n3,4,b\r\n", True, True),
    "lone CR": ("1,2\r3,4\r", False, True),
    "CR inside a row": ("1,2\n3\r,4\n", False, False),
    "quoted fields": ('"1",2\n3,"4"\n', False, False),
    "quoted label with a comma": ('1,2,"a,b"\n3,4,c\n', True, False),
    "blank and whitespace-only lines": ("\n1,2\n\n  \n\t\n3,4\n\n", False, True),
    "whitespace between commas": ("1,2\n , \n", False, False),
    "no final newline": ("1,2\n3,4", False, True),
    "one feature column": ("1\n2\n3\n", False, True),
    "one feature column and a label": ("1,a\n2,b\n", True, True),
    "label column only": ("a\nb\n", True, False),
    "extra column": ("1,2\n3,4,5\n6,7\n", False, False),
    "missing column": ("1,2\n3\n", False, False),
    "empty field": ("1,2\n3,\n", False, False),
    "NUL byte": ("1,2\n3,4\x00\n", False, False),
    "NUL byte in a label": ("1,2,a\x00\n", True, False),
    "field over the csv size limit": (f"1,{'0' * csv.field_size_limit()}2\n", False, False),
    "no data rows": ("\n \n", False, False),
}


def lines_of(text):
    """The text's lines as load_dataset reads them from a file: split at LF,
    CRLF and CR, each with its line end."""
    return io.StringIO(text, newline="").readlines()


class TestPlainPath:
    """Plain csv text is read in one loadtxt pass, with the row-wise reader's
    features (to the byte), labels and errors (text and line)."""

    @pytest.mark.parametrize("name", PLAIN_PATH_CASES)
    def test_same_outcome_as_row_wise(self, tmp_path, monkeypatch, name):
        text, label_column, plain = PLAIN_PATH_CASES[name]
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert (_read_plain(lines_of(text), label_column) is not None) == plain
        ours = read_outcome(lambda: load_dataset(str(path), label_column=label_column))
        monkeypatch.setattr(margintree.data, "_read_plain", lambda lines, label_column: None)
        assert ours == read_outcome(lambda: load_dataset(str(path), label_column=label_column))

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3), min_size=1, max_size=6
        ),
        width=st.integers(1, 3),
        fmt=st.sampled_from([repr, "%.17g".__mod__, "%.6e".__mod__]),
        label_column=st.booleans(),
    )
    def test_random_doubles(self, values, width, fmt, label_column):
        rows = [[fmt(v) for v in row[:width]] + ([f"c{i % 2}"] if label_column else []) for i, row in enumerate(values)]
        text = "".join(",".join(row) + "\n" for row in rows)
        plain = _read_plain(lines_of(text), label_column)
        assert plain is not None
        assert read_outcome(lambda: plain) == read_outcome(lambda: _table(_csv_rows(lines_of(text), label_column)))

    @pytest.mark.parametrize("shape", [[], ["--branching", "4", "--per-class", "10", "--noise-dims", "0"]])
    def test_generated_files_skip_the_row_parser(self, tmp_path, monkeypatch, shape):
        path = tmp_path / "planted.csv"
        assert main(["generate", "--out", str(path), "--seed", "5", *shape]) == 0
        rows = []
        parse_row = margintree.data._parse_row
        monkeypatch.setattr(margintree.data, "_parse_row", lambda tokens, line_no: rows.append(line_no) or parse_row(tokens, line_no))
        plain = load_dataset(str(path), label_column=True)
        # the same file with CRLF line ends takes the same path
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        plain_crlf = load_dataset(str(crlf), label_column=True)
        assert rows == []
        # the spy sees the row-wise reader: the same file with quoted labels
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(re.sub(rb",([^,\n]*)\n", rb',"\1"\n', path.read_bytes()))
        row_wise = load_dataset(str(quoted), label_column=True)
        assert rows == list(range(1, plain.n + 1))
        assert read_outcome(lambda: plain) == read_outcome(lambda: plain_crlf) == read_outcome(lambda: row_wise)


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark loads as the same file
    without one, in each reader: the one-pass csv reader (LF and CRLF), the
    row-wise csv reader (quoted labels) and the libsvm reader."""

    @pytest.mark.parametrize("layout", ["lf", "crlf", "quoted", "libsvm"])
    def test_loads_as_without(self, tmp_path, layout):
        plain = tmp_path / "planted.csv"
        assert main(["generate", "--out", str(plain), "--per-class", "5", "--seed", "6"]) == 0
        text = plain.read_bytes()
        fmt = "libsvm" if layout == "libsvm" else "csv"
        if layout == "crlf":
            text = text.replace(b"\n", b"\r\n")
        elif layout == "quoted":
            text = re.sub(rb",([^,\n]*)\n", rb',"\1"\n', text)
        elif layout == "libsvm":
            text = b"".join(
                b" ".join([row[-1]] + [b"%d:%s" % (j, v) for j, v in enumerate(row[:-1], 1)]) + b"\n"
                for row in (line.split(b",") for line in text.splitlines())
            )
        path, marked = tmp_path / f"plain.{layout}", tmp_path / f"bom.{layout}"
        path.write_bytes(text)
        marked.write_bytes(BOM + text)
        ours, expected = (load_dataset(str(f), fmt, label_column=True) for f in (marked, path))
        assert ours.features.tobytes() == expected.features.tobytes()
        assert ours.labels.tolist() == expected.labels.tolist()
        assert "\ufeff" not in "".join(ours.labels.tolist())


class TestLoadLibsvm:
    def write(self, tmp_path, text):
        path = tmp_path / "data.libsvm"
        path.write_text(text)
        return str(path)

    def test_sparse_row(self, tmp_path):
        ds = load_dataset(self.write(tmp_path, "2 1:0.5 3:1.0\n1 2:2.0\n"), format="libsvm")
        assert ds.p == 3
        assert np.array_equal(ds.features, [[0.5, 0.0, 1.0], [0.0, 2.0, 0.0]])
        assert ds.labels.tolist() == ["2", "1"]

    def test_duplicate_index_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(self.write(tmp_path, "1 2:1.0 2:3.0\n"), format="libsvm")

    def test_zero_index_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="1-based"):
            load_dataset(self.write(tmp_path, "1 0:1.0\n"), format="libsvm")

    def test_rows_blank_lines_and_comments(self, tmp_path):
        text = "# header\n1 3:1.5 1:-2\n\n2\n1 2:0.25 # note\n"
        ds = load_dataset(self.write(tmp_path, text), format="libsvm")
        assert np.array_equal(ds.features, [[-2.0, 0.0, 1.5], [0.0, 0.0, 0.0], [0.0, 0.25, 0.0]])
        assert ds.labels.tolist() == ["1", "2", "1"]

    @pytest.mark.parametrize("token", ["nan", "-inf", "inf", "1e999"])
    def test_non_finite_value_line(self, tmp_path, token):
        text = f"1 1:0.5\n\n# comment\n2 1:1.0 2:{token} 3:2.0\n1 1:3.0\n"
        with pytest.raises(ParseError, match=rf"^line 4: non-finite value '{token}'$"):
            load_dataset(self.write(tmp_path, text), format="libsvm")

    def test_unparsable_value_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 3: cannot parse 'abc' as a number$"):
            load_dataset(self.write(tmp_path, "1 1:0.5\n\n2 1:abc\n"), format="libsvm")

    def test_non_finite_reported_before_a_later_bad_token(self, tmp_path):
        with pytest.raises(ParseError, match=r"^line 2: non-finite value 'nan'$"):
            load_dataset(self.write(tmp_path, "1 1:0.5\n2 1:nan 0:1\n1 x\n"), format="libsvm")

    def test_row_without_a_label(self, tmp_path):
        # LIBSVM's own reader rejects it too: the first token is the label
        with pytest.raises(ParseError, match=r"^line 3: expected a label before the index:value pairs, found '1:0.5'$"):
            load_dataset(self.write(tmp_path, "1 1:0.5\n\n1:0.5 2:1.0\n"), format="libsvm")

    @needs_dev_fd
    def test_non_finite_from_a_pipe(self, pipe_path):
        with pytest.raises(ParseError, match=r"^line 3: non-finite value '-inf'$"):
            load_dataset(pipe_path("1 1:0.5\n\n2 1:-inf\n"), format="libsvm")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dataset(self.write(tmp_path, "x"), format="parquet")


class TestPca:
    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(0)
        from margintree import Dataset

        ds = Dataset(features=rng.normal(size=(30, 5)), ids=np.arange(30))
        reduced = pca_reduce(ds, 5)
        orig = np.linalg.norm(ds.features[:, None] - ds.features[None, :], axis=2)
        new = np.linalg.norm(reduced.features[:, None] - reduced.features[None, :], axis=2)
        assert np.abs(orig - new).max() <= 1e-8

    def test_rank_one_exact(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=4)
        coeffs = rng.normal(size=20)
        from margintree import Dataset

        ds = Dataset(features=np.outer(coeffs, direction), ids=np.arange(20))
        reduced = pca_reduce(ds, 1)
        centered = ds.features - ds.features.mean(axis=0)
        assert np.linalg.norm(reduced.features) == pytest.approx(np.linalg.norm(centered), rel=1e-10)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(2)
        from margintree import Dataset

        ds = Dataset(features=rng.normal(size=(40, 6)) * [5, 4, 3, 2, 1, 0.5], ids=np.arange(40))
        reduced = pca_reduce(ds, 6)
        variances = reduced.features.var(axis=0)
        assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))

    def test_d_out_of_range(self):
        from margintree import Dataset

        ds = Dataset(features=np.ones((3, 2)), ids=np.arange(3))
        with pytest.raises(ValidationError):
            pca_reduce(ds, 3)

    def test_standardize(self):
        rng = np.random.default_rng(3)
        from margintree import Dataset

        ds = Dataset(features=rng.normal([5, -3], [2, 7], size=(50, 2)), ids=np.arange(50))
        out = standardize(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)


class TestSynthetic:
    def test_counts(self):
        spec = SyntheticSpec(depth=2, branching=2, per_class=50, informative_dims=10, noise_dims=10,
                             magnitudes=(5.0, 3.0), noise_scale=1.0, seed=0)
        ds, truth = generate_synthetic(spec)
        assert ds.n == 200 and ds.p == 30
        assert len(set(ds.labels.tolist())) == 4
        assert len(truth.class_ids) == 4

    def test_level_one_difference_on_first_block(self):
        spec = SyntheticSpec(seed=1, noise_scale=0.0, per_class=3)
        ds, _ = generate_synthetic(spec)
        class_means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        # classes 0,1 share the level-1 branch; 0,2 differ there
        diff_same_branch = class_means[0] - class_means[1]
        diff_cross_branch = class_means[0] - class_means[2]
        assert np.allclose(diff_same_branch[:10], 0.0)
        assert not np.allclose(diff_cross_branch[:10], 0.0)
        assert np.allclose(diff_cross_branch[10:20], 0.0)
        assert np.allclose(class_means[:, 20:], 0.0)

    def test_separation_exceeds_spread(self):
        gaps, spreads = [], []
        for seed in range(5):
            ds, _ = generate_synthetic(SyntheticSpec(seed=seed, per_class=20))
            means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
            # classes 0 and 2 branch apart at level 1
            gaps.append(np.linalg.norm(means[0] - means[2]))
            spreads.append(
                np.mean([
                    np.linalg.norm(ds.features[ds.labels == c] - means[c], axis=1).mean()
                    for c in range(4)
                ])
            )
        assert np.mean(gaps) > 3 * np.mean(spreads)

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(seed=5))
        b, _ = generate_synthetic(SyntheticSpec(seed=5))
        assert np.array_equal(a.features, b.features)

    def test_truth_tree_depths(self):
        _, truth = generate_synthetic(SyntheticSpec(seed=0, per_class=2))
        sp, i = truth.sp_table(), truth.class_index
        assert sp[i(0), i(1)] == pytest.approx(0.5)
        assert sp[i(0), i(2)] == 0.0

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(depth=2, magnitudes=(1.0,))
        with pytest.raises(ValidationError):
            SyntheticSpec(branching=1)
