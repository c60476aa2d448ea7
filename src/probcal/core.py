"""Simplex-valued data handling shared by every calibration method.

Probability matrices, logit matrices and label vectors are plain float64 /
int64 numpy arrays; the ``as_*`` validators below check the invariants and
return normalized copies. All operations are pure functions.
"""

from dataclasses import dataclass

import numpy as np

#: Row sums of a probability matrix must match 1 within this tolerance.
ROW_SUM_TOL = 1e-9

#: Default clipping floor: the smallest positive normal float64.
DEFAULT_CLIP_FLOOR = 2.2e-308

PROBABILITIES = "probabilities"
LOGITS = "logits"


def as_probability_matrix(values) -> np.ndarray:
    """Validate an (n, k) matrix of class probabilities.

    Accepts a single row (1-d) or a matrix (2-d); always returns a 2-d
    float64 array. Entries must lie in [0, 1] and every row must sum to 1
    within ``ROW_SUM_TOL``.
    """
    p = np.asarray(values, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError("probability matrix must be (n, k) with k >= 2")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability matrix contains non-finite entries")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    row_sums = p.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL} (worst deviation {worst:.3g})")
    return p


def as_logit_matrix(values) -> np.ndarray:
    """Validate an (n, k) matrix of unconstrained logits."""
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("logit matrix must be (n, k) with k >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError("logit matrix contains non-finite entries")
    return z


def as_label_vector(labels, k: int, n: int | None = None) -> np.ndarray:
    """Validate a vector of integer class indices in {0, ..., k-1}."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError("labels must be a 1-d sequence")
    if y.size and not np.issubdtype(y.dtype, np.integer):
        rounded = np.asarray(y, dtype=float)
        if not np.all(rounded == np.floor(rounded)):
            raise ValueError("labels must be integers")
        y = rounded.astype(np.int64)
    y = y.astype(np.int64)
    if n is not None and y.shape[0] != n:
        raise ValueError(f"label count {y.shape[0]} does not match row count {n}")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"labels must lie in [0, {k - 1}]")
    return y


@dataclass(frozen=True)
class CalibrationDataset:
    """Predictions (probabilities or logits) paired with integer labels."""

    predictions: np.ndarray
    labels: np.ndarray
    kind: str = PROBABILITIES

    def __post_init__(self):
        if self.kind not in (PROBABILITIES, LOGITS):
            raise ValueError(f"unknown prediction kind {self.kind!r}")
        if self.kind == PROBABILITIES:
            pred = as_probability_matrix(self.predictions)
        else:
            pred = as_logit_matrix(self.predictions)
        y = as_label_vector(self.labels, pred.shape[1], pred.shape[0])
        if np.unique(y).size < 2:
            raise ValueError("dataset must contain at least 2 distinct labels")
        object.__setattr__(self, "predictions", pred)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.predictions.shape[0]

    @property
    def k(self) -> int:
        return self.predictions.shape[1]


def clip_probabilities(p, floor: float = DEFAULT_CLIP_FLOOR) -> np.ndarray:
    """Raise sub-floor entries to ``floor`` and renormalize each row.

    Entries below ``floor`` are set to exactly ``floor``; the remaining
    entries of the row are rescaled so the row sums to 1 again. Entries
    already at or above the floor therefore change only through that
    rescaling, every output entry is >= ``floor``, and the operation is
    idempotent.

    Parameters
    ----------
    p : array_like, shape (n, k) or (k,)
        Probability rows (validated).
    floor : float
        Must satisfy 0 < floor < 1/k.
    """
    single_row = np.asarray(p).ndim == 1
    p = as_probability_matrix(p)
    k = p.shape[1]
    if not (0.0 < floor < 1.0 / k):
        raise ValueError(f"floor must lie in (0, 1/k); got {floor} for k={k}")
    below = p < floor
    clipped_mass = below.sum(axis=1) * floor
    kept_sum = np.where(below, 0.0, p).sum(axis=1)
    if np.any(kept_sum <= 0.0):
        raise ValueError("cannot clip: a row has no mass above the floor")
    scale = (1.0 - clipped_mass) / kept_sum
    out = p * scale[:, None]
    out[below] = floor
    return out[0] if single_row else out


def softmax(v, axis: int = -1, out=None) -> np.ndarray:
    """Overflow-safe softmax along ``axis`` (max is subtracted first), into
    ``out`` if given, which may be v itself."""
    v = np.asarray(v, dtype=float)
    e = np.subtract(v, np.max(v, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_transform(p) -> np.ndarray:
    """Element-wise natural log of a strictly positive probability matrix.

    Raises if any entry is zero; callers must clip_probabilities first.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("input contains non-finite entries")
    if np.any(p <= 0.0):
        raise ValueError("input contains zero entries; apply clip_probabilities first")
    return np.log(p)
