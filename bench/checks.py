"""Checks of probcal's outputs made from outside the program.

Each check returns a list of problems; an empty list means the output
passed. The measures are recomputed here with the benchmark's own numpy
code, so a check does not trust the code it checks.
"""

import json
import math

import numpy as np

#: Stated accuracy of a Dirichlet fit: the library's default ``tol``.
FIT_GRAD_TOL = 1e-8
#: Agreement required between a reported measure and its recomputation.
MEASURE_TOL = 1e-9
#: The CLI's default clipping floor and bin count.
CLIP_FLOOR = 2.2e-308
BINS = 15


def read_json_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _bin_gaps(x, hits, m):
    """Count-weighted |mean(hits) - mean(x)| summed over equal-width bins."""
    edges = np.arange(m + 1) / m
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, m - 1)
    total = 0.0
    for b in range(m):
        sel = idx == b
        if sel.any():
            total += sel.sum() / x.size * abs(hits[sel].mean() - x[sel].mean())
    return total


def expected_ece(p, y, m=BINS):
    """(confidence ECE, classwise ECE) recomputed from the inputs."""
    conf_ece = _bin_gaps(p.max(axis=1), (p.argmax(axis=1) == y).astype(float), m)
    cw = [_bin_gaps(p[:, j], (y == j).astype(float), m) for j in range(p.shape[1])]
    return float(conf_ece), float(np.mean(cw))


def check_eval(records, p, y):
    if len(records) != 1:
        return [f"eval printed {len(records)} records, expected 1"]
    rec = records[0]
    problems = []
    conf_ece, cw_ece = expected_ece(p, y)
    for key, want in (("conf_ece", conf_ece), ("cw_ece", cw_ece)):
        got = rec.get(key)
        if not isinstance(got, float) or abs(got - want) > MEASURE_TOL:
            problems.append(f"eval {key}={got!r}, recomputed {want!r}")
    for key in ("p_conf_ece", "p_cw_ece"):
        got = rec.get(key)
        if not isinstance(got, (int, float)) or not 0.0 <= got <= 1.0:
            problems.append(f"eval {key}={got!r} is not a p-value")
    return problems


def _clip(p, floor=CLIP_FLOOR):
    below = p < floor
    scale = (1.0 - below.sum(axis=1) * floor) / np.where(below, 0.0, p).sum(axis=1)
    out = p * scale[:, None]
    out[below] = floor
    return out


def odir_gradient_norm(W, b, p, y, lam, mu):
    """Infinity-norm of the gradient of the ODIR-penalised mean log-loss.

    Objective: mean -log softmax(W ln q + b)[y]
    + lam / (k(k-1)) * sum of squared off-diagonal W + mu / k * sum b^2.
    """
    n, k = p.shape
    feats = np.log(_clip(p))
    scores = feats @ W.T + b
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), y] -= 1.0
    resid = probs / n
    off = 1.0 - np.eye(k)
    grad_w = resid.T @ feats + 2.0 * lam / (k * (k - 1)) * off * W
    grad_b = resid.sum(axis=0) + 2.0 * mu / k * b
    return float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))


def check_dirichlet_fit(model_path, p, y, folds, seed, stratified_folds):
    """Every member's gradient norm on its own training rows is within tol."""
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    members = doc["members"] if doc.get("type") == "ensemble" else [doc]
    if len(members) != max(folds, 1):
        return [f"model has {len(members)} members, expected {max(folds, 1)}"]
    assignment = stratified_folds(y, folds, seed) if folds > 1 else None
    problems = []
    for f, member in enumerate(members):
        train = slice(None) if assignment is None else assignment != f
        hyper = member["hyperparams"]
        gnorm = odir_gradient_norm(np.array(member["params"]["W"]),
                                   np.array(member["params"]["b"]),
                                   p[train], y[train], hyper["lam"], hyper["mu"])
        if not gnorm <= FIT_GRAD_TOL:
            problems.append(f"k={p.shape[1]} member {f}: gradient norm {gnorm:.3g} "
                            f"above {FIT_GRAD_TOL:g}")
    return problems


def read_probability_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def check_apply(out_path, model, X):
    """Output rows lie on the simplex and equal ``model.apply(X)`` in-process."""
    header, P = read_probability_csv(out_path)
    if header != [f"p_{j}" for j in range(X.shape[1])] or P.shape != X.shape:
        return [f"apply output has header {header[:3]}... and shape {P.shape}"]
    problems = []
    if not np.all(np.isfinite(P)) or P.min() < 0.0 or P.max() > 1.0:
        problems.append("apply output has entries outside [0, 1]")
    worst = float(np.abs(P.sum(axis=1) - 1.0).max())
    if worst > MEASURE_TOL:
        problems.append(f"apply output rows miss the simplex by {worst:.3g}")
    expected = model.apply(X)
    if not np.array_equal(P, expected):
        diff = float(np.abs(P - expected).max())
        problems.append(f"apply output differs from the in-process result by {diff:.3g}")
    return problems


#: Range of each measure in a compare row.
COMPARE_RANGES = {
    "accuracy": (0.0, 1.0), "error_rate": (0.0, 1.0), "log_loss": (0.0, math.inf),
    "brier": (0.0, 2.0), "conf_ece": (0.0, 1.0), "cw_ece": (0.0, 1.0), "mce": (0.0, 1.0),
    "p_conf_ece": (0.0, 1.0), "p_cw_ece": (0.0, 1.0),
}


def check_compare(records, n_methods):
    methods = [r.get("method") for r in records]
    if len(records) != n_methods or len(set(methods)) != n_methods:
        return [f"compare printed methods {methods}, expected {n_methods} distinct rows"]
    problems = []
    for rec in records:
        for key, (lo, hi) in COMPARE_RANGES.items():
            v = rec.get(key)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or not lo <= v <= hi:
                problems.append(f"compare {rec['method']} {key}={v!r} out of [{lo}, {hi}]")
    return problems
