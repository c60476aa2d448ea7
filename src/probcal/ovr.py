"""Binary calibrators and the one-vs-rest multiclass wrapper.

Four binary score-to-probability maps (isotonic regression via
pool-adjacent-violators, equal-width and equal-frequency binning, and the
beta family, which for two classes is the same family as the Dirichlet
maps), plus a wrapper that fits one binary map per class against the rest
and renormalizes the per-class outputs at prediction time.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CLIP_FLOOR, as_label_vector, as_probability_matrix, clip_probabilities,
                   step_index)
from .dirichlet import L2Config, fit_multinomial


@dataclass(frozen=True)
class IsotonicMap:
    """Stepwise-constant non-decreasing map learned from scored labels."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.shape != v.shape or bp.size == 0:
            raise ValueError("breakpoints and values must be matching nonempty vectors")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("values must be non-decreasing")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("values must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", v)

    def predict(self, scores) -> np.ndarray:
        """Value of the block at the nearest breakpoint at or below the score."""
        return self.values[step_index(self.breakpoints, scores, self.values.size)]


@dataclass(frozen=True)
class BinningMap:
    """Per-bin empirical label frequency over [0, 1]."""

    edges: np.ndarray
    bin_values: np.ndarray
    scheme: str

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        vals = np.asarray(self.bin_values, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or vals.shape != (edges.size - 1,):
            raise ValueError("need m+1 edges and m bin values")
        if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must increase strictly from 0 to 1")
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("bin values must lie in [0, 1]")
        if self.scheme not in ("equal-width", "equal-frequency"):
            raise ValueError(f"unknown binning scheme {self.scheme!r}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "bin_values", vals)

    def predict(self, scores) -> np.ndarray:
        return self.bin_values[step_index(self.edges, scores, self.bin_values.size)]


@dataclass(frozen=True)
class BetaParams:
    """Binary map p -> sigmoid(a ln p - b ln(1-p) + c)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError("beta parameters must be finite")

    def predict(self, scores, floor: float = DEFAULT_CLIP_FLOOR) -> np.ndarray:
        """The two-class Dirichlet map on the features of the fit, scores in [0, 1]."""
        return _beta_map(scores, self.a, self.b, self.c, floor)


def _beta_features(scores, floor):
    """ln of the clipped rows (1 - s, s): a beta map's features, fitted and applied."""
    s = np.ravel(scores)
    return np.log(clip_probabilities(np.column_stack([1.0 - s, s]), floor))


def _beta_map(scores, a, b, c, floor):
    """sigmoid(a ln s - b ln(1-s) + c) of every score s, on the clipped
    features of the fit; a, b and c broadcast against the scores' last axis."""
    s = np.asarray(scores, dtype=float)
    x = _beta_features(s, floor).reshape(s.shape + (2,))
    u = a * x[..., 1] - b * x[..., 0] + c
    with np.errstate(over="ignore"):  # exp(-u) = inf: a probability below 1e-308
        return 1.0 / (1.0 + np.exp(-u))


@dataclass(frozen=True)
class OneVsRestModel:
    """One fitted binary calibrator per class, all of the same kind."""

    kind: str
    maps: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown one-vs-rest kind {self.kind!r}")
        if len(self.maps) < 2:
            raise ValueError("need one calibrator per class, k >= 2")
        map_type = _KINDS[self.kind][0]
        if not all(isinstance(m, map_type) for m in self.maps):
            raise ValueError(f"{self.kind} one-vs-rest maps must be {map_type.__name__}")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def k(self) -> int:
        return len(self.maps)


def _binary_inputs(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.ndim != 1 or s.shape != y.shape or s.size == 0:
        raise ValueError("scores and labels must be matching nonempty vectors")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ValueError("labels must be binary (0/1)")
    return s, y


def fit_isotonic(scores, labels) -> IsotonicMap:
    """Monotone least-squares fit by pool-adjacent-violators.

    Tied scores are pooled first, so the map has one value per distinct
    score. Neighbours with exactly equal label means are then pooled into
    runs (collinear points of the cumulative-sum diagram, where its convex
    minorant cannot bend), and the sweep runs over the runs on integer label
    sums and counts; each value is its block's exact mean, correctly rounded.
    """
    s, y = _binary_inputs(scores, labels)
    order = np.argsort(s, kind="stable")
    s, y = s[order], y[order].astype(np.int64)
    start = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    counts = np.diff(start, append=s.size)
    sums = np.add.reduceat(y, start)
    run = np.flatnonzero(np.append(True, sums[1:] * counts[:-1] != sums[:-1] * counts[1:]))
    blocks = []  # (label sum, row count, distinct scores pooled), means increasing
    for total, count, size in zip(np.add.reduceat(sums, run).tolist(),
                                  np.add.reduceat(counts, run).tolist(),
                                  np.diff(run, append=start.size).tolist()):
        while blocks and blocks[-1][0] * count > total * blocks[-1][1]:
            t, c, z = blocks.pop()
            total, count, size = total + t, count + c, size + z
        blocks.append((total, count, size))
    total, count, size = np.array(blocks).T
    return IsotonicMap(breakpoints=s[start], values=np.repeat(total / count, size))


def fit_binning(scores, labels, m: int, scheme: str = "equal-width") -> BinningMap:
    """Empirical frequency per bin; equal-width or equal-frequency edges.

    Equal-frequency edges are the m-quantiles of the scores with duplicate
    edges merged; both schemes force the outer edges to 0 and 1. Empty
    bins fall back to the overall label frequency.
    """
    s, y = _binary_inputs(scores, labels)
    if m < 1:
        raise ValueError("bin count must be at least 1")
    if scheme == "equal-width":
        edges = np.arange(m + 1) / m
    elif scheme == "equal-frequency":
        edges = np.quantile(s, np.arange(m + 1) / m)
        edges[0], edges[-1] = 0.0, 1.0
        edges = np.unique(np.clip(edges, 0.0, 1.0))
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    idx = step_index(edges, s, edges.size - 1)
    counts = np.bincount(idx, minlength=edges.size - 1).astype(float)
    sums = np.bincount(idx, weights=y, minlength=edges.size - 1)
    base_rate = y.mean()
    with np.errstate(invalid="ignore"):
        vals = np.where(counts > 0, sums / np.maximum(counts, 1.0), base_rate)
    return BinningMap(edges=edges, bin_values=vals, scheme=scheme)


def fit_beta(scores, labels, lam: float = 1e-10,
             floor: float = DEFAULT_CLIP_FLOOR) -> BetaParams:
    """Fit the beta family by a two-class Dirichlet fit on (1-s, s) rows.

    With two classes the score difference (W10 - W00) ln(1-s) + (W11 - W01)
    ln s + (b1 - b0) has three free coefficients whether W is full or
    diagonal, so the fit is two-class vector scaling on the clipped log
    features (diagonal W, dense Hessian). It is unconstrained
    (coefficients may come out negative, the linear family is the
    superset); the reduction to (a, b, c) follows from the score difference.
    """
    s, y = _binary_inputs(scores, labels)
    if np.unique(y).size < 2:
        raise ValueError("labels contain a single class; nothing to fit")
    linear = fit_multinomial(_beta_features(s, floor), y.astype(np.int64), L2Config(lam),
                             diagonal=True)
    W, b = linear.W, linear.b
    # Positive-class score difference: s1 - s0 = a ln s - b ln(1-s) + c.
    return BetaParams(
        a=float(W[1, 1] - W[0, 1]),
        b=float(W[0, 0] - W[1, 0]),
        c=float(b[1] - b[0]),
    )


def _isotonic_runs(scores, labels) -> IsotonicMap:
    """``fit_isotonic`` with one (breakpoint, value) pair per run of equal
    values (a PAV block). ``predict`` reads the value at the last breakpoint
    at or below the score, so the breakpoints inside a run change no
    prediction."""
    fitted = fit_isotonic(scores, labels)
    run = np.concatenate(([True], np.diff(fitted.values) != 0.0))
    return IsotonicMap(breakpoints=fitted.breakpoints[run], values=fitted.values[run])


#: one-vs-rest kind -> (type of its binary maps, their fitter).
_KINDS = {
    "isotonic": (IsotonicMap, lambda s, y, floor, cfg: _isotonic_runs(s, y)),
    "width_bin": (BinningMap,
                  lambda s, y, floor, cfg: fit_binning(s, y, cfg["bins"], "equal-width")),
    "freq_bin": (BinningMap,
                 lambda s, y, floor, cfg: fit_binning(s, y, cfg["bins"], "equal-frequency")),
    "beta": (BetaParams, lambda s, y, floor, cfg: fit_beta(s, y, floor=floor)),
}


def fit_ovr(probs, labels, kind: str, floor: float = DEFAULT_CLIP_FLOOR,
            **config) -> OneVsRestModel:
    """Fit one binary calibrator per class on column j vs indicator(y == j).

    Isotonic maps are kept in run form: one (breakpoint, value) pair per
    pool-adjacent-violators block, which predicts the same as the
    per-score map ``fit_isotonic`` returns and is the form model files
    store. Beta maps are fitted on features clipped at ``floor``.
    """
    p = as_probability_matrix(probs)
    y = as_label_vector(labels, p.shape[1], p.shape[0])
    if kind not in _KINDS:
        raise ValueError(f"unknown one-vs-rest kind {kind!r}")
    fitter = _KINDS[kind][1]
    maps = [fitter(p[:, j], (y == j).astype(float), floor, config) for j in range(p.shape[1])]
    return OneVsRestModel(kind=kind, maps=tuple(maps))


def apply_ovr(q, model: OneVsRestModel, floor: float = DEFAULT_CLIP_FLOOR) -> np.ndarray:
    """Apply the per-class maps coordinate-wise and renormalize.

    Beta maps predict on features clipped at ``floor``, the floor of their
    fit, all classes at once from one clip of the n k rows (1 - s, s); the
    other maps predict each class column into one (n, k) output. The output
    is then renormalized in place. If every coordinate maps to zero the row
    falls back to uniform.
    """
    single = np.asarray(q).ndim == 1
    p = as_probability_matrix(q)
    if p.shape[1] != model.k:
        raise ValueError(f"expected {model.k} classes, got {p.shape[1]}")
    if model.kind == "beta":
        a, b, c = np.array([(m.a, m.b, m.c) for m in model.maps], dtype=float).T
        out = _beta_map(p, a, b, c, floor)
    else:
        out = np.empty_like(p)
        for j, m in enumerate(model.maps):
            out[:, j] = m.predict(p[:, j])
    totals = out.sum(axis=1, keepdims=True)
    nonzero = totals > 0.0
    np.divide(out, totals, out=out, where=nonzero)
    out[~nonzero[:, 0]] = 1.0 / model.k
    return out[0] if single else out
