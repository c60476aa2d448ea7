"""Check that two probcal source trees write the same outputs.

Runs the CLI of each tree on the same seeded inputs and compares:

- stdout of ``eval`` (text, json-lines), ``test`` (text, json-lines),
  ``compare`` (text, json-lines, csv) and ``inspect`` (text, json-lines),
  byte for byte, ``eval`` and ``test`` also at n = 10^4, k = 100;
- one model file per method tag, byte for byte apart from ``created``,
  and the CSV that ``apply`` writes with it, plus ``ovr_isotonic``,
  ``ovr_width_bin``, ``ovr_freq_bin`` and ``uncalibrated`` models and
  outputs at n = 10^4, k = 100, a
  ``dirichlet_l2`` model fitted at n = 2000, k = 100 and applied at
  n = 10^4 (its matrix product over many row chunks), larger
  Newton-CG fits (``dirichlet_l2`` and ``dirichlet_odir`` at k = 30,
  ``matrix_odir`` at k = 20) and a small one (``dirichlet_odir`` at k = 3),
  each once and by a 3-fold two-point lambda grid, ``ovr_beta`` at clip
  floor 1e-12 on rows with exact zeros and ones, applied to those rows and
  to the n = 10^4, k = 100 file, and fits whose features
  make the curvature at the start near 0: ``dirichlet_odir`` on k = 10
  rows with an exact-zero column (ln q = -708 at the default floor) and
  ``matrix_odir`` on k = 10 logits with a margin of 200;
- every p-value, bit for bit (``float.hex``).

Usage, with the other commit checked out elsewhere (by ``git clone``)::

    python3 tools/compare_outputs.py --base /path/to/other/src

``--head`` defaults to this checkout's ``src``. Exits 1 if any output
differs and prints one line per comparison. A line for an output that
differs also gives the largest absolute difference between corresponding
numbers of the two trees' stdout and files, or "structure differs" where
their text apart from the numbers is not the same. Stderr is not compared:
a fit that stops short warns there and is compared by its outputs.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import datagen  # noqa: E402
import numpy as np  # noqa: E402

METHODS = ("dirichlet_l2", "dirichlet_odir", "temperature", "vector_scaling", "matrix_odir",
           "ovr_isotonic", "ovr_width_bin", "ovr_freq_bin", "ovr_beta", "uncalibrated")
LOGIT_METHODS = ("temperature", "vector_scaling", "matrix_odir")
P_VALUE_KEYS = ("p_value", "p_conf_ece", "p_cw_ece")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def run(src, workdir, argv):
    """Run ``python -m probcal argv`` on the tree ``src``; returns stdout bytes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "probcal", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: probcal {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode()}")
    return proc.stdout


def sparse_rows(seed, n, k):
    """``datagen.dirichlet_rows`` with every third column zero and every
    fifth row one-hot on its most probable class."""
    p, y = datagen.dirichlet_rows(seed, n, k, 2.0)
    p[:, ::3] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    hot = p[::5].argmax(axis=1)
    p[::5] = 0.0
    p[np.arange(0, n, 5), hot] = 1.0
    return p, y


def zero_column_rows(seed, n, k):
    """``datagen.dirichlet_rows`` with column 0 set to 0, renormalised."""
    p, y = datagen.dirichlet_rows(seed, n, k, 2.0)
    p[:, 0] = 0.0
    return p / p.sum(axis=1, keepdims=True), y


def confident_logits(n, k, margin):
    """Rows of one logit at ``margin`` above k - 1 zeros, in turn at each
    class, labelled with that class but for the last row."""
    z = np.zeros((n, k))
    z[np.arange(n), np.arange(n) % k] = margin
    y = np.arange(n) % k
    y[-1] = (y[-1] + 1) % k
    return z, y


def inputs(workdir, seed):
    """Seeded prediction files: probabilities at k = 3, 10, 30, 100 and 300,
    a k = 100 file with zero columns and one-hot rows, a k = 10 file with a
    zero column, logits at k = 10 and 20 and confident ones at k = 10, and
    probabilities at the paper's size, n = 10^4 and k = 100.
    At n = 2000 the k = 100 files take resample blocks below 256. The
    k = 300 file's pseudo-labels pass 255, so its guide table holds two-byte
    counts; the sparse file repeats cumulative sums, so many draws fall in
    buckets that hold several of them and take the bisection."""
    cases = {
        "p3.csv": (datagen.dirichlet_rows(seed, 600, 3, 2.0), "p_"),
        "p10.csv": (datagen.dirichlet_rows(seed, 1000, 10, 2.0), "p_"),
        "p30.csv": (datagen.dirichlet_rows(seed, 1500, 30, 2.0), "p_"),
        "p100.csv": (datagen.dirichlet_rows(seed, 2000, 100, 2.0), "p_"),
        "p100sparse.csv": (sparse_rows(seed, 2000, 100), "p_"),
        "p10zero.csv": (zero_column_rows(seed, 600, 10), "p_"),
        "p300.csv": (datagen.dirichlet_rows(seed, 1000, 300, 2.0), "p_"),
        "z10.csv": (datagen.gaussian_logits(seed, 1000, 10, 0.6), "z_"),
        "z20.csv": (datagen.gaussian_logits(seed, 1500, 20, 0.6), "z_"),
        "z10confident.csv": (confident_logits(1001, 10, 200.0), "z_"),
        "p100n10000.csv": (datagen.dirichlet_rows(seed, 10000, 100, 2.0), "p_"),
    }
    for name, ((X, y), prefix) in cases.items():
        datagen.write_csv(workdir / name, X, y, prefix)


def jobs(seed):
    """(name, argv, files written) of every run; stdout is always compared."""
    out = []
    # At the paper's size, n = 10^4, the resampling tests split the rows
    # over several tiles.
    for data in ("p3.csv", "p10.csv", "p100.csv", "p100sparse.csv", "p300.csv",
                 "p100n10000.csv"):
        for fmt in ("text", "json-lines"):
            out.append((f"eval {data} {fmt}", ["eval", data, "--resamples", "300", "--seed",
                                                str(seed), "--format", fmt], []))
            for stat in ("conf_ece", "cw_ece"):
                out.append((f"test {data} {stat} {fmt}",
                            ["test", data, "--statistic", stat, "--resamples", "300",
                             "--seed", str(seed), "--format", fmt], []))
    for data, methods in (("p10.csv", None), ("z10.csv", ",".join(METHODS))):
        for fmt in ("text", "json-lines", "csv"):
            argv = ["compare", data, "--repeats", "1", "--folds", "3", "--inner-folds", "2",
                    "--resamples", "100", "--seed", str(seed), "--format", fmt]
            out.append((f"compare {data} {fmt}", argv + (["--methods", methods] if methods else []),
                        []))
    # (method, input of the fit, label, flags of every fit, flags of the
    # 3-fold fit, inputs of the applies when not that of the fit)
    cases = [(m, "z10.csv" if m in LOGIT_METHODS else "p10.csv", m, [], []) for m in METHODS]
    # At the paper's size the applies' working arrays are largest, and they
    # run over many row chunks.
    cases += [(m, "p100n10000.csv", f"{m} k100", [], [])
              for m in ("ovr_isotonic", "ovr_width_bin", "ovr_freq_bin", "uncalibrated")]
    cases += [("dirichlet_l2", "p100.csv", "dirichlet_l2 k100", [], [], "p100n10000.csv")]
    # Every full-W fit solves its Newton steps by CG, from k = 3 (12
    # parameters) to k = 30 (930).
    lambdas = ["--grid", "lambda=1e-3,1e-1"]
    cases += [(m, "p30.csv", f"{m} k30", [], lambdas) for m in ("dirichlet_l2", "dirichlet_odir")]
    cases += [("matrix_odir", "z20.csv", "matrix_odir k20", [], lambdas),
              ("dirichlet_odir", "p3.csv", "dirichlet_odir k3", [], lambdas)]
    # Beta maps clip their features at the model's floor; the exact zeros
    # and ones of the sparse file meet it.
    cases += [("ovr_beta", "p100sparse.csv", "ovr_beta k100 floor", ["--clip-floor", "1e-12"], [],
               "p100sparse.csv", "p100n10000.csv")]
    # Near-zero curvature at the identity start.
    cases += [("dirichlet_odir", "p10zero.csv", "dirichlet_odir k10 zero column", [], []),
              ("matrix_odir", "z10confident.csv", "matrix_odir k10 confident", [], [])]
    for method, data, label, flags, grid, *applied in cases:
        for folds in ("1", "3"):
            stem = f"{label.replace(' ', '-')}-{folds}"
            model = f"{stem}.json"
            out.append((f"fit {label} folds {folds}",
                        ["fit", data, "--method", method, "--folds", folds, "--seed", str(seed),
                         "-o", model] + flags + (grid if folds == "3" else []), [model]))
            for target in applied or [data]:
                written = f"{stem}-{Path(target).stem}.out.csv"
                out.append((f"apply {label} folds {folds} to {target}",
                            ["apply", model, target, "-o", written], [written]))
            if method in ("dirichlet_l2", "dirichlet_odir", "temperature"):
                for fmt in ("text", "json-lines"):
                    out.append((f"inspect {label} folds {folds} {fmt}",
                                ["inspect", model, "--format", fmt], []))
    return out


def p_values(stdout):
    """float.hex of every p-value in json-lines output (empty for other formats)."""
    found = []
    for line in stdout.decode().splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            found += [float(rec[key]).hex() for key in P_VALUE_KEYS if key in rec]
    return found


def without_created(data):
    return re.sub(rb'"created": "[^"]*"', b'"created": null', data)


def largest_difference(base, head):
    """The largest absolute difference between corresponding numbers of two
    outputs, or None where their text apart from the numbers differs."""
    if NUMBER.split(base) != NUMBER.split(head):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(base), NUMBER.findall(head)):
        if a != b:
            diff = abs(float(a) - float(b))
            worst = max(worst, diff if diff == diff else float("inf"))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="src directory of one tree")
    parser.add_argument("--head", type=Path, default=ROOT / "src",
                        help="src directory of the other tree (default: this checkout)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    runs = jobs(args.seed)
    differ = 0
    checked_p = 0
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("base", "head")}
        for side, workdir in dirs.items():
            workdir.mkdir()
            inputs(workdir, args.seed)
        for name, argv, files in runs:
            outs = {side: run(getattr(args, side), dirs[side], argv) for side in dirs}
            pairs = [(outs["base"], outs["head"])]
            pairs += [tuple(without_created((dirs[side] / f).read_bytes()) for side in dirs)
                      for f in files]
            pv = {side: p_values(out) for side, out in outs.items()}
            same = all(a == b for a, b in pairs) and pv["base"] == pv["head"]
            checked_p += len(pv["head"])
            differ += not same
            if same:
                print(f"same   {name}")
                continue
            diffs = [largest_difference(a, b) for a, b in pairs]
            gap = ("structure differs" if None in diffs
                   else f"largest absolute difference {max(diffs):.3g}")
            print(f"DIFFER {name}: {gap}")
    print(f"{differ} of {len(runs)} outputs differ; {checked_p} p-values compared")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
