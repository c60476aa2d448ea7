import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from probcal import cli
from probcal.core import clip_probabilities, softmax

from conftest import random_simplex
from oracles import sample_labels_from_rows


def write_csv(path, X, prefix="p", labels=None):
    k = X.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"{prefix}_{j}" for j in range(k)]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, row in enumerate(X):
            out = [repr(float(v)) for v in row]
            if labels is not None:
                out.append(str(labels[i]))
            writer.writerow(out)


@pytest.fixture
def prob_file(tmp_path, rng):
    q = random_simplex(rng, 400, 3)
    y = sample_labels_from_rows(rng, q)
    path = tmp_path / "probs.csv"
    write_csv(path, q, labels=y)
    return path, q, y


@pytest.fixture
def four_row_file(tmp_path):
    p = np.array([[0.2, 0.8], [0.4, 0.6], [0.9, 0.1], [0.7, 0.3]])
    y = np.array([1, 1, 0, 0])
    path = tmp_path / "four.csv"
    write_csv(path, p, labels=y)
    return path


class TestReadPredictions:
    def test_probabilities_with_labels(self, prob_file):
        path, q, y = prob_file
        X, kind, raw = cli.read_predictions(path)
        assert kind == "probabilities"
        np.testing.assert_allclose(X, q)
        assert [int(v) for v in raw] == y.tolist()

    def test_logits_without_labels(self, tmp_path, rng):
        z = rng.normal(size=(10, 4))
        path = tmp_path / "z.csv"
        write_csv(path, z, prefix="z")
        X, kind, raw = cli.read_predictions(path)
        assert kind == "logits" and raw is None
        np.testing.assert_allclose(X, z)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ParseError):
            cli.read_predictions(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(cli.ParseError, match="header"):
            cli.read_predictions(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("p_0,p_1\n0.5,0.5\n0.5\n")
        with pytest.raises(cli.ParseError, match="fields"):
            cli.read_predictions(path)


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


# (file name, text, error) of files the exact reader rejects.
PARSE_ERRORS = [
    ("nonnum.csv", "p_0,p_1,label\n0.5,0.5,0\n0.5,abc,1\n",
     "nonnum.csv:3: could not convert string to float: 'abc'"),
    ("blanks.csv", "p_0,p_1,label\n\n0.5,0.5,0\n\n  \n0.25,x,1\n",
     "blanks.csv:6: could not convert string to float: 'x'"),
    ("crlf.csv", "p_0,p_1\r\n0.5,0.5\r\n\r\n0.5,x\r\n",
     "crlf.csv:4: could not convert string to float: 'x'"),
    ("empty_field.csv", "p_0,p_1\n0.5,\n",
     "empty_field.csv:2: could not convert string to float: ''"),
    ("ragged.csv", "p_0,p_1\n0.5,0.5\n0.5\n", "ragged.csv:3: expected 2 fields, got 1"),
    ("long.csv", "p_0,p_1,label\n0.5,0.5,0\n0.5,0.5,1,2\n",
     "long.csv:3: expected 3 fields, got 4"),
    ("header_only.csv", "p_0,p_1,label\n", "header_only.csv: no data rows"),
    ("header_blank.csv", "p_0,p_1,label\n\n\n", "header_blank.csv: no data rows"),
    ("empty.csv", "", "empty.csv: empty file"),
    ("one_col.csv", "p_0,label\n1,0\n", "one_col.csv: need at least columns p_0 and p_1"),
    ("extra.csv", "p_0,p_1,foo\n1,0,0\n",
     "extra.csv: unexpected columns ['foo']; expected only an optional 'label'"),
    ("header.csv", "a,b\n1,2\n", "header.csv: header must start with p_0.. or z_0.. columns"),
]


class TestReadPredictionsExact:
    """Exact values, error texts and line numbers of the CSV reader."""

    @pytest.mark.parametrize("name, text, message", PARSE_ERRORS)
    def test_parse_error_text(self, tmp_path, monkeypatch, name, text, message):
        monkeypatch.chdir(tmp_path)
        write_text(tmp_path / name, text)
        with pytest.raises(cli.ParseError) as info:
            cli.read_predictions(name)
        assert str(info.value) == message

    def test_quoted_string_labels(self, tmp_path):
        path = write_text(tmp_path / "quoted.csv",
                          'p_0,p_1,label\n0.5,0.5,"cat, tabby"\n"0.25",0.75," dog "\n')
        X, kind, labels = cli.read_predictions(path)
        assert kind == "probabilities"
        assert X.dtype == np.float64 and X.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert labels == ["cat, tabby", "dog"]

    def test_tokens_convert_as_python_float(self, tmp_path):
        path = write_text(tmp_path / "tokens.csv",
                          "z_0,z_1,z_2,z_3\n 0.5,nan,1_0,1e400\n-0,-inf,4.9e-324,0.1\n")
        X, kind, labels = cli.read_predictions(path)
        assert kind == "logits" and labels is None
        expected = np.array([[float(v) for v in (" 0.5", "nan", "1_0", "1e400")],
                             [float(v) for v in ("-0", "-inf", "4.9e-324", "0.1")]])
        assert X.shape == (2, 4) and X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 37])
    def test_rows_past_the_initial_buffer(self, tmp_path, monkeypatch, rng, n):
        # With a 4-row first buffer, 5 and 37 rows make the reader grow it.
        monkeypatch.setattr(cli, "_INITIAL_ROWS", 4, raising=False)
        q = random_simplex(rng, n, 3)
        y = rng.integers(0, 3, size=n)
        path = tmp_path / "grow.csv"
        write_csv(path, q, labels=y)
        for read in (cli._read_exact, cli.read_predictions):
            X, kind, labels = read(path)
            assert X.shape == (n, 3) and X.flags.c_contiguous
            assert X.tobytes() == q.tobytes()
            assert labels == [str(v) for v in y]

    def test_cli_exit_code_on_parse_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_text(tmp_path / "nonnum.csv", "p_0,p_1,label\n0.5,0.5,0\n0.5,abc,1\n")
        assert cli.main(["eval", "nonnum.csv", "--resamples", "0"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: nonnum.csv:3: could not convert string to float: 'abc'\n")

    @pytest.mark.parametrize("header, row2", [
        ("p_0,p_1,label", "0.5,0.5,0"),   # reading rows
        ("p_0,q_1,label", "0.5,0.5,0"),   # reading on past a bad header
        ("p_0,p_1,label", "0.5,abc,0"),   # reading on past a bad number
    ])
    def test_oversized_field_is_a_parse_error(self, tmp_path, monkeypatch, capsys, header, row2):
        # A field longer than csv.field_size_limit() on line 3 is reported
        # there, before any format error on an earlier line.
        monkeypatch.chdir(tmp_path)
        write_text(tmp_path / "big.csv", f"{header}\n{row2}\n0.5,0.5,{'x' * 140_000}\n")
        assert cli.main(["eval", "big.csv", "--resamples", "0"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: big.csv:3: field larger than field limit (131072)\n")

    def test_undecodable_byte_outranks_earlier_parse_error(self, tmp_path, monkeypatch, capsys):
        # The whole file is decoded before any row is judged, so a bad byte
        # far past a bad number is the error reported (exit 3, not 2).
        monkeypatch.chdir(tmp_path)
        with open(tmp_path / "bad.csv", "wb") as fh:
            fh.write(b"p_0,p_1\n0.5,x\n" + b"0.5,0.5\n" * 3000 + b"\xff\xfe,1\n")
        assert cli.main(["eval", "bad.csv", "--resamples", "0"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "invalid input: 'utf-8' codec can't decode byte 0xff in position 7630: "
            "invalid start byte\n")


def outcome(read, path):
    """What ``read(path)`` gives: its result, or the type and text of its error."""
    try:
        return read(path)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def assert_same_reading(a, b):
    if isinstance(a[0], np.ndarray) and isinstance(b[0], np.ndarray):
        assert a[0].dtype == b[0].dtype and a[0].shape == b[0].shape
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1:] == b[1:]
    else:
        assert a == b


LONG_FIELD = "0." + "1" * 140_000
# (file name, text, whether numpy's streamed parse may read it) of files
# beyond PARSE_ERRORS that both readers must read the same.
READER_CASES = [
    ("quoted.csv", 'p_0,p_1,label\n0.5,0.5,"cat, tabby"\n"0.25",0.75," dog "\n', False),
    ("underscore.csv", "z_0,z_1,z_2,z_3\n 0.5,nan,1_0,1e400\n-0,-inf,4.9e-324,0.1\n", False),
    ("tokens.csv", "z_0,z_1,z_2,z_3\n 0.5,nan,-nan,1e400\n-0,-inf,4.9e-324,\t0.1 \n"
     "+inf,INFINITY,1e-400,.5\n", True),
    ("whitespace_lines.csv", "p_0,p_1,label\n  \n0.5,0.5,a\n\t\n\n \r\n0.25,0.75,b\n", True),
    ("crlf_ok.csv", "p_0,p_1,label\r\n0.5,0.5,0\r\n\r\n0.25,0.75,1\r\n", True),
    ("cr_only.csv", "p_0,p_1\r0.5,0.5\r0.25,0.75", True),
    ("no_final_newline.csv", "p_0,p_1,label\n0.5,0.5,x\n0.25,0.75,y", True),
    ("hash_label.csv", "p_0,p_1,label\n0.5,0.5,#1\n0.25,0.75,a # b\n", True),
    ("padded_header.csv", " p_0 ,p_1\t, label \n0.5,0.5, a \n", True),
    ("nbsp.csv", "p_0,p_1\n\xa00.5,0.5\u2003\n", True),
    ("long_row.csv", ",".join(f"p_{j}" for j in range(300)) + ",label\n"
     + ",".join(["0.1"] * 299 + ["-1.9e-14", "lbl"]) + "\n", True),
    ("separator_label.csv", "p_0,p_1,label\n0.5,0.5,a\x1cb\n", False),
    ("separator_value.csv", "p_0,p_1\n\x1c0.5,0.5\n", False),
    ("nul.csv", "p_0,p_1\n0.5,0.5\x00\n", False),
    ("huge_field.csv", f"p_0,p_1,label\n0.5,0.5,{LONG_FIELD}\n", False),
    ("huge_value.csv", f"p_0,p_1\n{LONG_FIELD},0.5\n", False),
    ("bom.csv", "\ufeffp_0,p_1\n0.5,0.5\n", False),
    ("digits.csv", "p_0,p_1\n\u0661,0\n", False),
]


class TestReaderParity:
    """numpy's streamed parse and the exact reader agree on every file:
    the streamed result is the exact reader's, bit for bit, or the streamed
    parse declines and ``read_predictions`` returns or raises exactly what
    the exact reader does."""

    @pytest.mark.parametrize("name, text, fast_reads", READER_CASES + [
        (name, text, False) for name, text, _ in PARSE_ERRORS])
    def test_both_readers_agree(self, tmp_path, monkeypatch, name, text, fast_reads):
        monkeypatch.chdir(tmp_path)
        write_text(tmp_path / name, text)
        exact = outcome(cli._read_exact, name)
        fast = cli._read_fast(name)
        assert (fast is not None) == fast_reads
        if fast is not None:
            assert_same_reading(fast, exact)
        assert_same_reading(outcome(cli.read_predictions, name), exact)

    def test_undecodable_byte_declines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"p_0,p_1\n0.5,x\n" + b"0.5,0.5\n" * 3000 + b"\xff\xfe,1\n")
        assert cli._read_fast(path) is None
        assert outcome(cli.read_predictions, path) == outcome(cli._read_exact, path)

    def test_generated_rows(self, tmp_path, rng):
        # repr-written rows as the CLI and the benchmark write them.
        q = random_simplex(rng, 500, 10)
        y = rng.integers(0, 10, size=500)
        path = tmp_path / "gen.csv"
        write_csv(path, q, labels=y)
        fast = cli._read_fast(path)
        assert fast is not None
        assert_same_reading(fast, cli._read_exact(path))
        assert fast[0].tobytes() == q.tobytes()


class TestLabelMapping:
    def test_zero_based(self):
        y, names = cli.build_label_mapping(["0", "2", "1"], 3)
        assert y.tolist() == [0, 2, 1]
        assert names == ["0", "1", "2"]

    def test_one_based(self):
        y, names = cli.build_label_mapping(["1", "3", "2"], 3)
        assert y.tolist() == [0, 2, 1]
        assert names == ["1", "2", "3"]

    def test_strings_sorted(self):
        y, names = cli.build_label_mapping(["cat", "ant", "bee"], 3)
        assert names == ["ant", "bee", "cat"]
        assert y.tolist() == [2, 0, 1]

    def test_explicit_dictionary(self):
        y, names = cli.build_label_mapping(["x", "y", "x"], 2, explicit=["x", "y"])
        assert y.tolist() == [0, 1, 0]

    def test_underdetermined_strings_rejected(self):
        with pytest.raises(ValueError, match="dictionary"):
            cli.build_label_mapping(["a", "a", "b"], 3)

    def test_missing_label_column(self):
        with pytest.raises(cli.ParseError, match="label"):
            cli.build_label_mapping(None, 3)


class TestFitCommand:
    def test_repeated_label_name_rejected(self, tmp_path, rng, capsys):
        # Every label in the file is in the list, so only the repeated name
        # is wrong: it would map to its last position, class 1.
        names = list("abcdefghij")
        q = random_simplex(rng, 200, 10)
        y = sample_labels_from_rows(rng, q)
        path = tmp_path / "k10.csv"
        write_csv(path, q, labels=[names[max(v, 2)] for v in y])
        model = tmp_path / "m.json"
        rc = cli.main(["fit", str(path), "--method", "uncalibrated", "-o", str(model),
                       "--labels", ",".join(["a", "a"] + names[2:])])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "--labels repeats 'a'" in err
        assert not model.exists()

    def test_temperature_three_rows(self, tmp_path):
        z = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        path = tmp_path / "z.csv"
        write_csv(path, z, prefix="z", labels=[0, 1, 1])
        out = tmp_path / "model.json"
        rc = cli.main(["fit", str(path), "--method", "temperature", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "single"
        assert doc["params"]["t"] == pytest.approx(2.0 / np.log(2.0), abs=1e-3)

    def test_dirichlet_l2_fixed_lambda(self, tmp_path, rng):
        q = random_simplex(rng, 1000, 3)
        y = sample_labels_from_rows(rng, q)
        path = tmp_path / "q.csv"
        write_csv(path, q, labels=y)
        out = tmp_path / "m.json"
        rc = cli.main(["fit", str(path), "--method", "dirichlet_l2",
                       "--lambda", "1e-3", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["hyperparams"] == {"lam": 1e-3}

    def test_three_fold_ensemble_is_member_mean(self, tmp_path, prob_file):
        path, q, y = prob_file
        out = tmp_path / "ens.json"
        rc = cli.main(["fit", str(path), "--method", "dirichlet_l2",
                       "--lambda", "1e-3", "--folds", "3", "-o", str(out)])
        assert rc == 0
        model = cli.load_model(out)
        assert len(model.members) == 3
        outputs = np.stack([m.apply(q) for m in model.members])
        expected = outputs.mean(axis=0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.apply(q), expected, atol=1e-12)

    def test_grid_search(self, tmp_path, prob_file):
        path, q, y = prob_file
        out = tmp_path / "g.json"
        rc = cli.main(["fit", str(path), "--method", "ovr_width_bin",
                       "--grid", "bins=5,10", "--folds", "2", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["members"][0]["hyperparams"]["bins"] in (5, 10)

    def test_grid_fit_is_deterministic(self, tmp_path, rng):
        # Each fold's grid runs as a path from the previous point, so the
        # iterates depend on the grid order; two runs must still agree.
        q = random_simplex(rng, 600, 20, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        path = tmp_path / "q20.csv"
        write_csv(path, q, labels=y)
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = cli.main(["fit", str(path), "--method", "dirichlet_odir", "--folds", "3",
                           "--grid", "lambda=1e-4,1e-3,1e-2", "-o", str(out)])
            assert rc == 0
            docs.append(re.sub(r'"created": "[^"]*"', '"created": null', out.read_text()))
        assert docs[0] == docs[1]

    def test_kind_mismatch(self, tmp_path, prob_file):
        path, _, _ = prob_file
        rc = cli.main(["fit", str(path), "--method", "temperature",
                       "-o", str(tmp_path / "x.json")])
        assert rc == 3

    def test_missing_input(self, tmp_path):
        rc = cli.main(["fit", str(tmp_path / "none.csv"), "--method", "temperature",
                       "-o", str(tmp_path / "x.json")])
        assert rc == 2

    def test_more_folds_than_rows(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        write_csv(path, np.array([[0.2, 0.8], [0.6, 0.4], [0.3, 0.7]]), labels=[1, 0, 0])
        rc = cli.main(["fit", str(path), "--method", "dirichlet_l2", "--folds", "5",
                       "-o", str(tmp_path / "x.json")])
        assert rc == 3
        assert "cannot split 3 instances into 5 folds" in capsys.readouterr().err


class TestHyperparameterFlags:
    def _fit(self, tmp_path, path, method, *flags):
        out = tmp_path / "m.json"
        rc = cli.main(["fit", str(path), "--method", method, "-o", str(out), *flags])
        return rc, (json.loads(out.read_text()) if rc == 0 else None)

    @pytest.mark.parametrize("flags, hyper", [
        (["--lambda", "1e-2"], {"lam": 1e-2, "mu": 1e-2}),  # mu follows lambda
        (["--lambda", "1e-2", "--mu", "1e-4"], {"lam": 1e-2, "mu": 1e-4}),
    ])
    def test_odir_lambda_and_mu(self, tmp_path, prob_file, flags, hyper):
        rc, doc = self._fit(tmp_path, prob_file[0], "dirichlet_odir", *flags)
        assert rc == 0
        assert doc["hyperparams"] == hyper

    def test_bin_count(self, tmp_path, prob_file):
        rc, doc = self._fit(tmp_path, prob_file[0], "ovr_width_bin", "--bin-count", "7")
        assert rc == 0
        assert doc["hyperparams"] == {"bins": 7}
        assert all(len(m["edges"]) == 8 for m in doc["params"]["maps"])

    @pytest.mark.parametrize("method, flags, message", [
        ("ovr_isotonic", ["--lambda", "1e-2"], "method ovr_isotonic takes no lambda"),
        ("dirichlet_l2", ["--mu", "1e-2"], "method dirichlet_l2 takes no mu"),
        ("dirichlet_odir", ["--bin-count", "5"], "method dirichlet_odir takes no bin count"),
        # A grid sets every hyperparameter: a fixed value beside it is an error.
        ("dirichlet_odir", ["--folds", "2", "--grid", "lambda=1e-3,1e-2", "--mu", "5"],
         "method dirichlet_odir takes no fixed mu with --grid"),
        ("dirichlet_odir", ["--folds", "2", "--grid", "lambda=1e-3,1e-2", "--lambda", "7"],
         "method dirichlet_odir takes no fixed lambda with --grid"),
        ("ovr_width_bin", ["--folds", "2", "--grid", "default", "--bin-count", "3"],
         "method ovr_width_bin takes no fixed bin count with --grid"),
        ("dirichlet_l2", ["--folds", "2", "--grid", "lambda=1e-3", "--decouple-mu"],
         "method dirichlet_l2 takes no mu"),
        ("dirichlet_l2", ["--folds", "2", "--grid", "default", "--decouple-mu"],
         "method dirichlet_l2 takes no mu"),
        ("dirichlet_odir", ["--decouple-mu"], "--decouple-mu needs --grid"),
    ])
    def test_flag_the_method_lacks(self, tmp_path, prob_file, capsys, method, flags, message):
        rc, _ = self._fit(tmp_path, prob_file[0], method, *flags)
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_default_grid(self, tmp_path, prob_file):
        from probcal.harness import LAMBDA_GRID

        rc, doc = self._fit(tmp_path, prob_file[0], "dirichlet_l2", "--grid", "default",
                            "--folds", "2")
        assert rc == 0
        assert doc["members"][0]["hyperparams"]["lam"] in LAMBDA_GRID

    def test_grid_with_mu(self, tmp_path, prob_file):
        rc, doc = self._fit(tmp_path, prob_file[0], "dirichlet_odir", "--folds", "2",
                            "--grid", "lambda=1e-3,1e-2;mu=1e-4")
        assert rc == 0
        hyper = doc["members"][0]["hyperparams"]
        assert hyper["lam"] in (1e-3, 1e-2) and hyper["mu"] == 1e-4

    def test_grid_with_decoupled_mu(self, tmp_path, prob_file, monkeypatch):
        grids = []
        real = cli.cross_val_fit

        def spy(*args, grid=None, **kwargs):
            grids.append(grid)
            return real(*args, grid=grid, **kwargs)

        monkeypatch.setattr(cli, "cross_val_fit", spy)
        rc, doc = self._fit(tmp_path, prob_file[0], "dirichlet_odir", "--folds", "2",
                            "--grid", "lambda=1e-3,1e-2", "--decouple-mu")
        assert rc == 0
        assert grids == [cli.HyperGrid(lambdas=(1e-3, 1e-2), mus=(1e-3, 1e-2))]
        hyper = doc["members"][0]["hyperparams"]
        assert hyper["lam"] in (1e-3, 1e-2) and hyper["mu"] in (1e-3, 1e-2)

    @pytest.mark.parametrize("decouple", [False, True])
    def test_default_grid_spec(self, decouple):
        from probcal.harness import LAMBDA_GRID

        grid = cli._parse_grid("default", decouple)
        assert grid == cli.HyperGrid(mus=LAMBDA_GRID if decouple else ())

    @pytest.mark.parametrize("spec, message", [
        ("lambda", "bad --grid component 'lambda'"),
        ("sigma=1", "unknown --grid name 'sigma'"),
        (" ; ", "empty --grid specification"),
        ("lambda=a", "could not convert string to float"),
        ("bins=1.5", "invalid literal for int()"),
        ("bins=5", "method dirichlet_l2 takes no bin count in --grid"),
    ])
    def test_malformed_grid(self, tmp_path, prob_file, capsys, spec, message):
        rc, _ = self._fit(tmp_path, prob_file[0], "dirichlet_l2", "--grid", spec, "--folds", "2")
        assert rc == 3
        assert message in capsys.readouterr().err


class TestWriteProbabilities:
    def test_bytes_match_csv_writer(self, tmp_path, rng):
        P = rng.random((6, 4))
        P[0] = [np.nan, np.inf, -np.inf, -0.0]
        P[1, :3] = [5e-324, 1.0, 0.0]
        path = tmp_path / "out.csv"
        cli.write_probabilities(path, P)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow([f"p_{j}" for j in range(4)])
        for row in P:
            writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


class TestApplyCommand:
    def test_uncalibrated_identity(self, tmp_path, prob_file):
        path, q, _ = prob_file
        model_path = tmp_path / "uncal.json"
        cli.main(["fit", str(path), "--method", "uncalibrated", "-o", str(model_path)])
        out = tmp_path / "out.csv"
        rc = cli.main(["apply", str(model_path), str(path), "-o", str(out)])
        assert rc == 0
        X, kind, _ = cli.read_predictions(out)
        assert kind == "probabilities"
        np.testing.assert_allclose(X, clip_probabilities(q), atol=0)

    def test_temperature_one_is_softmax(self, tmp_path, rng):
        z = rng.normal(size=(50, 3))
        z_path = tmp_path / "z.csv"
        write_csv(z_path, z, prefix="z")
        model_path = tmp_path / "t1.json"
        from probcal.models import CalibratorModel
        from probcal.scaling import TemperatureParams

        model = CalibratorModel(method="temperature", k=3,
                                params=TemperatureParams(1.0))
        cli.save_model(model_path, model)
        out = tmp_path / "p.csv"
        rc = cli.main(["apply", str(model_path), str(z_path), "-o", str(out)])
        assert rc == 0
        X, _, _ = cli.read_predictions(out)
        np.testing.assert_allclose(X, softmax(z, axis=1), atol=1e-15)

    def test_fit_then_apply_reduces_log_loss(self, tmp_path, rng):
        from oracles import sample_from_generative
        from probcal.metrics import log_loss

        alpha = np.array([[4.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 2.0, 4.0]])
        q, y = sample_from_generative(rng, alpha, np.full(3, 1 / 3), 1500)
        data_path = tmp_path / "gen.csv"
        write_csv(data_path, q, labels=y)
        model_path = tmp_path / "dir.json"
        cli.main(["fit", str(data_path), "--method", "dirichlet_l2",
                  "--lambda", "1e-7", "-o", str(model_path)])
        out = tmp_path / "cal.csv"
        cli.main(["apply", str(model_path), str(data_path), "-o", str(out)])
        calibrated, _, _ = cli.read_predictions(out)
        assert log_loss(calibrated, y) < log_loss(q, y)

    def test_ovr_beta_fits_and_applies_at_the_clip_floor(self, tmp_path, rng):
        # Exact 0s and 1s are clipped to the model's floor in the beta maps'
        # features, in the fit and in the apply.
        from probcal.ovr import BetaParams, fit_beta

        q = random_simplex(rng, 300, 3)
        y = sample_labels_from_rows(rng, q)
        q[::4, 0] = 0.0
        q[::5] = np.eye(3)[y[::5]]
        q /= q.sum(axis=1, keepdims=True)
        data_path = tmp_path / "sparse.csv"
        write_csv(data_path, q, labels=y)
        X, _, _ = cli.read_predictions(data_path)
        model_path = tmp_path / "beta.json"
        rc = cli.main(["fit", str(data_path), "--method", "ovr_beta", "--clip-floor", "1e-12",
                       "-o", str(model_path)])
        assert rc == 0
        maps = json.loads(model_path.read_text())["params"]["maps"]
        want = [fit_beta(X[:, j], (y == j).astype(float), floor=1e-12) for j in range(3)]
        assert [(m["a"], m["b"], m["c"]) for m in maps] == [(w.a, w.b, w.c) for w in want]
        default = fit_beta(X[:, 0], (y == 0).astype(float))
        assert abs(default.a - want[0].a) > 1e-3
        out = tmp_path / "cal.csv"
        assert cli.main(["apply", str(model_path), str(data_path), "-o", str(out)]) == 0
        calibrated, _, _ = cli.read_predictions(out)
        cols = np.column_stack([w.predict(X[:, j], 1e-12) for j, w in enumerate(want)])
        np.testing.assert_allclose(calibrated, cols / cols.sum(axis=1, keepdims=True),
                                   rtol=0, atol=1e-15)
        assert not np.allclose(cols[:, 0], BetaParams(want[0].a, want[0].b, want[0].c)
                               .predict(X[:, 0]))

    def test_kind_mismatch(self, tmp_path, prob_file):
        path, _, _ = prob_file
        model_path = tmp_path / "t.json"
        from probcal.models import CalibratorModel
        from probcal.scaling import TemperatureParams

        cli.save_model(model_path, CalibratorModel(method="temperature", k=3,
                                                   params=TemperatureParams(2.0)))
        rc = cli.main(["apply", str(model_path), str(path), "-o", str(path) + ".out"])
        assert rc == 3

    def test_k_mismatch(self, tmp_path, prob_file, capsys):
        path, _, _ = prob_file
        model_path = tmp_path / "k4.json"
        from probcal.models import CalibratorModel
        from probcal.scaling import TemperatureParams

        cli.save_model(model_path, CalibratorModel(method="temperature", k=4,
                                                   params=TemperatureParams(2.0)))
        z_path = tmp_path / "z3.csv"
        write_csv(z_path, np.zeros((5, 3)), prefix="z")
        rc = cli.main(["apply", str(model_path), str(z_path), "-o", str(z_path) + ".out"])
        assert rc == 3
        assert "model expects 4 classes, input has 3" in capsys.readouterr().err

    def test_row_sum_error_names_the_worst_row_of_the_file(self, tmp_path, capsys):
        # n = 10^4, k = 100 spans many row chunks; the worst row is in the
        # last of them, a lesser one in the first.
        from probcal.models import CalibratorModel

        q = np.full((10_000, 100), 0.01)
        q[5, 0] += 2e-9
        q[9500, 0] += 5e-9
        data_path = tmp_path / "off.csv"
        write_csv(data_path, q)
        model_path = tmp_path / "uncal.json"
        cli.save_model(model_path, CalibratorModel(method="uncalibrated", k=100, params=None))
        out = tmp_path / "out.csv"
        rc = cli.main(["apply", str(model_path), str(data_path), "-o", str(out)])
        assert rc == 3
        assert "worst deviation 5e-09" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_model_file(self, tmp_path, prob_file):
        path, _, _ = prob_file
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["apply", str(bad), str(path), "-o", str(tmp_path / "o.csv")])
        assert rc == 2

    @staticmethod
    def apply_file(tmp_path, prob_file, capsys, method, params):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "schema": "probcal-model-v1", "type": "single", "method": method, "k": 3,
            "params": params}))
        out_path = tmp_path / "o.csv"
        rc = cli.main(["apply", str(model_path), str(prob_file[0]), "-o", str(out_path)])
        out, err = capsys.readouterr()
        assert (rc, out, out_path.exists()) == (2, "", False)
        return err

    @pytest.mark.parametrize("method,kind,entry,text", [
        ("ovr_beta", "beta", {"type": "isotonic", "breakpoints": [0.0, 0.5], "values": [0.2, 0.8]},
         "beta one-vs-rest maps must be BetaParams"),
        ("ovr_isotonic", "isotonic", {"type": "beta", "a": 1.0, "b": 1.0, "c": 0.0},
         "isotonic one-vs-rest maps must be IsotonicMap"),
        ("ovr_isotonic", "beta", {"type": "beta", "a": 1.0, "b": 1.0, "c": 0.0},
         "ovr_isotonic model holds beta one-vs-rest maps"),
    ])
    def test_maps_kind_and_method_must_agree(self, tmp_path, prob_file, capsys, method, kind,
                                             entry, text):
        err = self.apply_file(tmp_path, prob_file, capsys, method,
                              {"kind": kind, "maps": [entry] * 3})
        assert f"invalid model file: {text}" in err

    @pytest.mark.parametrize("method,params,text", [
        # The kind is read before the maps.
        ("ovr_isotonic", {"maps": [{"type": "spline"}] * 3}, "'kind'"),
        ("dirichlet_l2", {"b": [0.0, 0.0, 0.0]}, "'W'"),
        ("ovr_isotonic", {"kind": "isotonic", "maps": [{"type": "spline"}] * 3},
         "unknown binary calibrator type 'spline'"),
    ])
    def test_malformed_params_texts(self, tmp_path, prob_file, capsys, method, params, text):
        err = self.apply_file(tmp_path, prob_file, capsys, method, params)
        assert err.rstrip().endswith(f"invalid model file: {text}")


class TestEvalCommand:
    def test_hand_dataset(self, four_row_file, capsys):
        rc = cli.main(["eval", str(four_row_file), "--bins", "2", "--resamples", "0",
                       "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["conf_ece"] == pytest.approx(0.25)
        assert rec["cw_ece"] == pytest.approx(0.25)
        assert rec["accuracy"] == 1.0

    def test_perfect_predictions(self, tmp_path, capsys):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "perfect.csv"
        write_csv(path, p, labels=[0, 1])
        rc = cli.main(["eval", str(path), "--resamples", "0", "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["conf_ece"] == 0.0
        assert rec["cw_ece"] == 0.0
        assert rec["brier"] == 0.0
        assert rec["accuracy"] == 1.0

    def test_mocked_resample_counts_give_0017(self, four_row_file, capsys, monkeypatch):
        from probcal import stattest

        def fake_resampled(binning, draw, n_resamples, seed):
            # 170 of 10000 strictly above any observed statistic in [0, 1].
            return np.concatenate([np.full(170, 2.0), np.full(9830, -1.0)])

        monkeypatch.setattr(stattest, "_resampled_statistics", fake_resampled)
        rc = cli.main(["eval", str(four_row_file), "--bins", "2",
                       "--resamples", "10000", "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["p_conf_ece"] == 0.017
        assert rec["p_cw_ece"] == 0.017

    @pytest.mark.parametrize("resamples", ["-5", "-1"])
    def test_negative_resamples_rejected(self, four_row_file, capsys, resamples):
        rc = cli.main(["eval", str(four_row_file), "--bins", "2", "--resamples", resamples])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "n_resamples must be at least 1" in err

    def test_text_format(self, four_row_file, capsys):
        rc = cli.main(["eval", str(four_row_file), "--bins", "2", "--resamples", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conf_ece" in out and "p_cw_ece" in out

    def test_csv_format(self, four_row_file, capsys):
        rc = cli.main(["eval", str(four_row_file), "--bins", "2", "--resamples", "0",
                       "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert dict(zip(header, row))["accuracy"] == "1.0"


class TestDiagramCommand:
    def test_calibrated_constant_zero_gaps(self, tmp_path, capsys):
        p = np.tile([0.75, 0.25], (8, 1))
        y = [0, 0, 0, 0, 0, 0, 1, 1]
        path = tmp_path / "cal.csv"
        write_csv(path, p, labels=y)
        out = tmp_path / "d.svg"
        rc = cli.main(["diagram", str(path), "--bins", "2", "-o", str(out)])
        assert rc == 0
        svg = out.read_text()
        # gap rects are 4 units wide with zero height here
        assert 'width="4.0000" height="0.0000"' in svg

    def test_four_row_upper_bin_full_height(self, four_row_file, tmp_path):
        out = tmp_path / "four.svg"
        rc = cli.main(["diagram", str(four_row_file), "--bins", "2", "-o", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.count('<g class="chart"') == 1
        table = (tmp_path / "four.csv").read_text().splitlines()
        assert table[0] == "mode,class,bin_low,bin_high,count,mean_predicted,empirical_frequency"
        upper = table[2].split(",")
        assert upper[4] == "4" and float(upper[5]) == 0.75 and float(upper[6]) == 1.0

    def test_classwise_three_charts(self, tmp_path, rng):
        q = random_simplex(rng, 60, 3)
        y = sample_labels_from_rows(rng, q)
        path = tmp_path / "p3.csv"
        write_csv(path, q, labels=y)
        out = tmp_path / "cw.svg"
        rc = cli.main(["diagram", str(path), "--mode", "classwise", "-o", str(out)])
        assert rc == 0
        assert out.read_text().count('<g class="chart"') == 3

    def test_byte_deterministic(self, four_row_file, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        cli.main(["diagram", str(four_row_file), "--bins", "2", "-o", str(out1)])
        cli.main(["diagram", str(four_row_file), "--bins", "2", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path(self, four_row_file, tmp_path):
        rc = cli.main(["diagram", str(four_row_file), "-o",
                       str(tmp_path / "missing_dir" / "x.svg")])
        assert rc == 2

    def test_table_beside_extensionless_output_in_dotted_dir(self, four_row_file, tmp_path,
                                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.d").mkdir()
        rc = cli.main(["diagram", str(four_row_file), "--bins", "2", "-o", "out.d/chart"])
        assert rc == 0
        assert "<svg" in (tmp_path / "out.d" / "chart").read_text()
        assert (tmp_path / "out.d" / "chart.csv").read_text().startswith("mode,class,")
        assert not (tmp_path / "out.csv").exists()

    def test_csv_output_rejected(self, four_row_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["diagram", str(four_row_file), "--bins", "2", "-o", str(out)])
        assert rc == 3
        assert "overwrite" in capsys.readouterr().err
        assert not out.exists()


class TestTestCommand:
    def test_output_fields(self, prob_file, capsys):
        path, _, _ = prob_file
        rc = cli.main(["test", str(path), "--statistic", "cw_ece", "--resamples", "200",
                       "--seed", "3", "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["statistic"] == "cw_ece"
        assert rec["resamples"] == 200
        assert rec["decision"] in ("accept", "reject")
        assert 0.0 <= rec["p_value"] <= 1.0

    @pytest.mark.parametrize("bins", ["0", "-1"])
    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_bin_count_below_one(self, prob_file, capsys, bins, statistic):
        path, _, _ = prob_file
        rc = cli.main(["test", str(path), "--statistic", statistic, "--bins", bins,
                       "--resamples", "20"])
        assert rc == 3
        assert "bin count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5"])
    def test_alpha_outside_unit_interval(self, prob_file, capsys, alpha):
        path, _, _ = prob_file
        rc = cli.main(["test", str(path), "--resamples", "20", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "alpha must lie in (0, 1)" in err

    @pytest.mark.parametrize("alpha", ["2", "0"])
    def test_bad_alpha_reaches_no_resample(self, prob_file, capsys, monkeypatch, alpha):
        def no_test(*args, **kwargs):
            raise AssertionError("calibration_test called despite a bad alpha")

        monkeypatch.setattr(cli, "calibration_test", no_test)
        path, _, _ = prob_file
        rc = cli.main(["test", str(path), "--resamples", "20000", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "alpha must lie in (0, 1)" in err

    @pytest.mark.parametrize("alpha, decision", [("0.017", "reject"), ("0.0169", "accept")])
    def test_decision_is_p_strictly_above_alpha(self, four_row_file, capsys, monkeypatch,
                                                alpha, decision):
        from probcal import stattest

        def fake_resampled(binning, draw, n_resamples, seed):
            return np.concatenate([np.full(170, 2.0), np.full(9830, -1.0)])

        monkeypatch.setattr(stattest, "_resampled_statistics", fake_resampled)
        rc = cli.main(["test", str(four_row_file), "--bins", "2", "--alpha", alpha,
                       "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["p_value"] == 0.017
        assert rec["decision"] == decision


class TestCompareCommand:
    def test_deterministic_tables(self, prob_file, capsys):
        path, _, _ = prob_file
        args = ["compare", str(path), "--methods", "uncalibrated,dirichlet_l2",
                "--repeats", "1", "--folds", "2", "--inner-folds", "2",
                "--resamples", "40", "--seed", "5", "--format", "csv"]
        rc = cli.main(args)
        assert rc == 0
        first = capsys.readouterr().out
        rc = cli.main(args)
        assert rc == 0
        second = capsys.readouterr().out
        assert first == second
        rows = list(csv.DictReader(first.strip().splitlines()))
        assert [r["method"] for r in rows] == ["uncalibrated", "dirichlet_l2"]

    @pytest.mark.parametrize("alpha", ["1.5", "0"])
    def test_bad_alpha_reaches_no_fit_or_resample(self, prob_file, capsys, monkeypatch, alpha):
        from probcal import harness

        def no_call(*args, **kwargs):
            raise AssertionError("fold work done despite a bad alpha")

        monkeypatch.setattr(harness, "calibration_test", no_call)
        monkeypatch.setattr(harness, "cross_val_fit", no_call)
        path, _, _ = prob_file
        rc = cli.main(["compare", str(path), "--methods", "uncalibrated", "--repeats", "1",
                       "--folds", "2", "--resamples", "10", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "alpha must lie in (0, 1)" in err

    def test_decouple_mu_needs_grid(self, prob_file, capsys):
        path, _, _ = prob_file
        rc = cli.main(["compare", str(path), "--methods", "dirichlet_l2,dirichlet_odir",
                       "--repeats", "1", "--folds", "2", "--inner-folds", "2",
                       "--resamples", "10", "--decouple-mu"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert "--decouple-mu needs --grid" in err

    def test_unknown_method(self, prob_file, capsys):
        path, _, _ = prob_file
        rc = cli.main(["compare", str(path), "--methods", "magic", "--repeats", "1",
                       "--folds", "2", "--resamples", "10"])
        assert rc == 3
        assert "unknown method 'magic'" in capsys.readouterr().err

    def test_grid(self, prob_file, capsys):
        path, _, _ = prob_file
        rc = cli.main(["compare", str(path), "--methods", "uncalibrated,ovr_width_bin",
                       "--grid", "bins=5,10", "--repeats", "1", "--folds", "2",
                       "--inner-folds", "2", "--resamples", "10", "--format", "json-lines"])
        assert rc == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["method"] for r in records] == ["uncalibrated", "ovr_width_bin"]

    def test_default_methods_on_probabilities(self, tmp_path, rng, capsys):
        from probcal.models import METHOD_INPUT

        q = random_simplex(rng, 120, 3)
        path = tmp_path / "q.csv"
        write_csv(path, q, labels=sample_labels_from_rows(rng, q))
        rc = cli.main(["compare", str(path), "--repeats", "1", "--folds", "2",
                       "--inner-folds", "2", "--resamples", "10", "--format", "csv"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["method"] for r in rows] == [
            m for m, kind in METHOD_INPUT.items() if kind == "probabilities"]


class TestInspectCommand:
    def test_temperature_model(self, tmp_path, capsys):
        from probcal.models import CalibratorModel
        from probcal.scaling import TemperatureParams

        model_path = tmp_path / "t2.json"
        cli.save_model(model_path, CalibratorModel(method="temperature", k=2,
                                                   params=TemperatureParams(2.0)))
        rc = cli.main(["inspect", str(model_path), "--format", "json-lines"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip())
        np.testing.assert_allclose(rec["A"], 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(rec["c"], [0.5, 0.5], atol=1e-12)
        assert len(rec["interpretation_points"]) == 3

    def test_dirichlet_model_text(self, tmp_path, prob_file, capsys):
        path, _, _ = prob_file
        model_path = tmp_path / "d.json"
        cli.main(["fit", str(path), "--method", "dirichlet_l2", "--lambda", "1e-3",
                  "-o", str(model_path)])
        capsys.readouterr()
        rc = cli.main(["inspect", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A (rows):" in out and "interpretation points" in out

    @pytest.mark.parametrize("method", [
        "dirichlet_l2", "dirichlet_odir", "temperature", "vector_scaling", "matrix_odir",
        "ovr_isotonic", "ovr_width_bin", "ovr_freq_bin", "ovr_beta", "uncalibrated",
    ])
    def test_exit_code_per_method(self, tmp_path, rng, capsys, method):
        from probcal.models import METHOD_INPUT, fit_calibrator

        q = random_simplex(rng, 60, 3)
        y = sample_labels_from_rows(rng, q)
        X = np.log(q) if METHOD_INPUT[method] == "logits" else q
        model_path = tmp_path / "m.json"
        cli.save_model(model_path, fit_calibrator(method, X, y, {"lam": 1e-3, "mu": 1e-3, "bins": 5}))
        rc = cli.main(["inspect", str(model_path), "--format", "json-lines"])
        out, err = capsys.readouterr()
        if method in ("dirichlet_l2", "dirichlet_odir", "temperature"):
            assert rc == 0
            assert json.loads(out)["method"] == method
        else:
            assert rc == 3
            assert out == ""
            assert "inspect supports dirichlet_l2, dirichlet_odir and temperature" in err

    def test_params_for_another_k_rejected(self, tmp_path, capsys):
        model_path = tmp_path / "k3.json"
        model_path.write_text(json.dumps({
            "schema": "probcal-model-v1", "type": "single", "method": "dirichlet_l2", "k": 3,
            "params": {"W": np.eye(2).tolist(), "b": [0.0, 0.0]}}))
        rc = cli.main(["inspect", str(model_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "invalid model file" in err

    @pytest.mark.parametrize("command", ["apply", "inspect"])
    @pytest.mark.parametrize("member", ["x", 1, None, ["schema"]])
    def test_non_object_ensemble_member(self, tmp_path, prob_file, capsys, command, member):
        model_path = tmp_path / "ens.json"
        model_path.write_text(json.dumps({
            "schema": "probcal-model-v1", "type": "ensemble", "method": "dirichlet_l2",
            "k": 3, "members": [member]}))
        argv = {"apply": ["apply", str(model_path), str(prob_file[0]),
                          "-o", str(tmp_path / "o.csv")],
                "inspect": ["inspect", str(model_path)]}[command]
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "invalid model file: not a calibrator model document" in err

    @pytest.mark.parametrize("k", [2, 40])
    def test_closed_stdout_ends_quietly(self, tmp_path, k):
        # With stdout block-buffered, k = 40 writes about 48 KB, so the pipe
        # breaks inside the command; k = 2 fits in the buffer, so it breaks
        # at the flush after the command.
        from probcal.dirichlet import LinearParams
        from probcal.models import CalibratorModel

        model_path = tmp_path / "m.json"
        cli.save_model(model_path, CalibratorModel(
            method="dirichlet_l2", k=k, params=LinearParams(W=2.0 * np.eye(k), b=np.zeros(k))))
        env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "probcal", "inspect", str(model_path)],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_non_dirichlet_rejected(self, tmp_path, prob_file, capsys):
        path, _, _ = prob_file
        model_path = tmp_path / "iso.json"
        cli.main(["fit", str(path), "--method", "ovr_isotonic", "-o", str(model_path)])
        rc = cli.main(["inspect", str(model_path)])
        assert rc == 3


class TestRoundTripsAndDeterminism:
    def test_fit_serialize_apply_bit_stable(self, tmp_path, prob_file):
        path, _, _ = prob_file
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for tag in ("a", "b"):
            cli.main(["fit", str(path), "--method", "dirichlet_l2", "--lambda", "1e-3",
                      "--folds", "3", "--seed", "17", "-o", str(tmp_path / f"{tag}.json")])
            cli.main(["apply", str(tmp_path / f"{tag}.json"), str(path),
                      "-o", str(tmp_path / f"{tag}.out.csv")])
        assert (tmp_path / "a.out.csv").read_bytes() == (tmp_path / "b.out.csv").read_bytes()

    def test_model_file_roundtrip_within_1e15(self, tmp_path, prob_file):
        path, q, _ = prob_file
        model_path = tmp_path / "m.json"
        cli.main(["fit", str(path), "--method", "dirichlet_l2", "--lambda", "1e-3",
                  "-o", str(model_path)])
        model = cli.load_model(model_path)
        second_path = tmp_path / "m2.json"
        cli.save_model(second_path, model)
        model2 = cli.load_model(second_path)
        np.testing.assert_allclose(model2.apply(q), model.apply(q), rtol=0, atol=1e-15)


def test_compare_defaults_match_protocol():
    parser = cli.build_parser()
    args = parser.parse_args(["compare", "x.csv"])
    assert args.repeats == 5
    assert args.folds == 5
    assert args.inner_folds == 3
    assert args.alpha == 0.05
    assert args.resamples == 10000


def test_eval_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["eval", "x.csv"])
    assert args.bins == 15
    assert args.resamples == 10000
    assert args.clip_floor == 2.2e-308


def test_fit_method_choices_are_all_methods():
    from probcal.models import METHODS

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    method = next(a for a in sub.choices["fit"]._actions if a.dest == "method")
    assert tuple(method.choices) == METHODS
    assert len(METHODS) == 10


def test_module_entrypoint_smoke(four_row_file):
    proc = subprocess.run(
        [sys.executable, "-m", "probcal", "eval", str(four_row_file),
         "--bins", "2", "--resamples", "0", "--format", "json-lines"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip())
    assert rec["accuracy"] == 1.0
