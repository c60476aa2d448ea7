"""Seeded synthetic prediction files for the benchmark workloads.

Only the standard library and numpy are used. Every array is a pure
function of the seed and the case parameters, so the same seed always
writes byte-identical CSV files.
"""

import hashlib

import numpy as np


def _rng(seed, *tags):
    """Generator keyed by the workload seed and the case parameters."""
    return np.random.default_rng([seed, *tags])


def _sharpened_labels(rng, p, power):
    """Labels drawn from p ** power, renormalised per row."""
    q = p ** power
    q /= q.sum(axis=1, keepdims=True)
    cum = np.cumsum(q, axis=1)
    u = rng.random(p.shape[0]) * cum[:, -1]
    return np.minimum((u[:, None] >= cum).sum(axis=1), p.shape[1] - 1)


def dirichlet_rows(seed, n, k, sharpen):
    """Dirichlet probability rows peaked on a random class, with labels.

    ``sharpen`` = 1 draws labels from the rows themselves (a calibrated
    model); a larger power draws them from a sharpened copy, so the rows
    are under-confident and a calibration map has work to do.
    """
    rng = _rng(seed, n, k, 1)
    alpha = np.full((n, k), 0.5)
    alpha[np.arange(n), rng.integers(0, k, size=n)] += 0.25 * k
    p = rng.gamma(alpha)
    p /= p.sum(axis=1, keepdims=True)
    return p, _sharpened_labels(rng, p, sharpen)


def gaussian_logits(seed, n, k, sharpen):
    """Gaussian logits with a boosted random class; labels from softmax(sharpen * z)."""
    rng = _rng(seed, n, k, 2)
    z = rng.normal(0.0, 1.5, size=(n, k))
    z[np.arange(n), rng.integers(0, k, size=n)] += 2.0
    p = np.exp(sharpen * (z - z.max(axis=1, keepdims=True)))
    p /= p.sum(axis=1, keepdims=True)
    return z, _sharpened_labels(rng, p, 1.0)


def write_csv(path, X, y, prefix):
    """Write ``prefix0..`` columns plus a label column; returns the sha256."""
    k = X.shape[1]
    header = ",".join([f"{prefix}{j}" for j in range(k)] + ["label"])
    fmt = ",".join(["%r"] * k) + ",%d"
    lines = [header]
    for row, label in zip(X.tolist(), y.tolist()):
        lines.append(fmt % (*row, label))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
