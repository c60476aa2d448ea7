"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: pure-Python double loops, the
min-max characterization of monotone least squares, pool-adjacent-violators
in exact rational arithmetic, and central finite differences. None of it
shares code with the library paths it checks.
"""

from fractions import Fraction

import numpy as np


def brute_confidence_ece(p, y, m):
    """Double loop over bins with naive filtering; edges at i/m."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y)
    n = p.shape[0]
    conf = [max(row) for row in p]
    pred = [int(np.argmax(row)) for row in p]
    edges = [i / m for i in range(m + 1)]
    total = 0.0
    for b in range(m):
        lo, hi = edges[b], edges[b + 1]
        if b == m - 1:
            members = [i for i in range(n) if lo <= conf[i] <= hi]
        else:
            members = [i for i in range(n) if lo <= conf[i] < hi]
        if not members:
            continue
        acc = sum(1.0 for i in members if pred[i] == y[i]) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg_conf)
    return total


def brute_classwise_ece(p, y, m):
    """Per-class version of the same naive loop; returns (mean, per-class)."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y)
    n, k = p.shape
    edges = [i / m for i in range(m + 1)]
    per_class = []
    for j in range(k):
        total = 0.0
        for b in range(m):
            lo, hi = edges[b], edges[b + 1]
            if b == m - 1:
                members = [i for i in range(n) if lo <= p[i, j] <= hi]
            else:
                members = [i for i in range(n) if lo <= p[i, j] < hi]
            if not members:
                continue
            freq = sum(1.0 for i in members if y[i] == j) / len(members)
            avg = sum(p[i, j] for i in members) / len(members)
            total += len(members) / n * abs(freq - avg)
        per_class.append(total)
    return sum(per_class) / k, per_class


def brute_isotonic(scores, labels):
    """Monotone least squares via the max-min mean characterization.

    Ties are pooled first (tied scores must share a fitted value); the
    fitted value at pooled position i is
    max over j <= i of min over l >= i of the weighted mean of y[j..l].
    Returns (unique_scores, fitted_values).
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(labels, dtype=float)
    order = np.argsort(s, kind="stable")
    s, t = s[order], t[order]
    uniq = []
    sums = []
    weights = []
    for score, label in zip(s, t):
        if uniq and score == uniq[-1]:
            sums[-1] += label
            weights[-1] += 1.0
        else:
            uniq.append(score)
            sums.append(label)
            weights.append(1.0)
    n = len(uniq)
    fitted = []
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            worst = np.inf
            for l in range(i, n):
                seg = sum(sums[j : l + 1]) / sum(weights[j : l + 1])
                worst = min(worst, seg)
            best = max(best, worst)
        fitted.append(best)
    return np.array(uniq), np.array(fitted)


def exact_isotonic(scores, labels):
    """Monotone least squares by pool-adjacent-violators in exact rationals.

    Ties are pooled first; every block mean is a ``Fraction`` and is
    rounded to float once, at the end. Returns (unique_scores,
    fitted_values), each value the correctly rounded exact solution.
    """
    pairs = sorted(zip((float(v) for v in scores), (int(v) for v in labels)))
    uniq = []
    groups = []
    for score, label in pairs:
        if uniq and score == uniq[-1]:
            groups[-1][0] += label
            groups[-1][1] += 1
        else:
            uniq.append(score)
            groups.append([label, 1])
    blocks = []  # [mean, weight, number of distinct scores]
    for total, weight in groups:
        blocks.append([Fraction(total, weight), weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, weight, size = blocks.pop()
            prev = blocks[-1]
            prev[0] = (prev[0] * prev[1] + mean * weight) / (prev[1] + weight)
            prev[1] += weight
            prev[2] += size
    fitted = [float(mean) for mean, _, size in blocks for _ in range(size)]
    return np.array(uniq), np.array(fitted)


def central_difference(f, theta, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h * (1.0 + abs(theta[i]))
        grad[i] = (f(theta + step) - f(theta - step)) / (2.0 * step[i])
    return grad


def sample_from_generative(rng, alpha, pi, n):
    """Draw (q, y): class y ~ pi, then q | y ~ Dirichlet(alpha[y])."""
    alpha = np.asarray(alpha, dtype=float)
    pi = np.asarray(pi, dtype=float)
    k = pi.size
    y = rng.choice(k, size=n, p=pi)
    q = np.empty((n, k))
    for j in range(k):
        rows = y == j
        if rows.any():
            q[rows] = rng.dirichlet(alpha[j], size=int(rows.sum()))
    return q, y


def sample_labels_from_rows(rng, q):
    """One categorical label per row, drawn from the row itself."""
    q = np.asarray(q, dtype=float)
    u = rng.random(q.shape[0])
    return np.minimum((u[:, None] > np.cumsum(q, axis=1)).sum(axis=1), q.shape[1] - 1)
