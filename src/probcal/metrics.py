"""Calibration and accuracy measures plus reliability-diagram data.

Confidence measures bin rows by their maximum predicted probability and
compare bin accuracy against bin confidence; classwise measures do the
same per class using that class's predicted probability against its
empirical frequency. Bins are equal-width over [0, 1], half-open
[lo, hi) with the final bin closed; argmax ties break to the lowest class
index everywhere.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DEFAULT_CLIP_FLOOR, as_label_vector, as_probability_matrix, clip_probabilities

#: Default equal-width bin count for ECE / MCE / reliability diagrams.
DEFAULT_BINS = 15


def _bin_edges(m: int) -> np.ndarray:
    return np.arange(m + 1) / m


def _bin_index(x: np.ndarray, m: int) -> np.ndarray:
    """Equal-width bin of each value; the last bin includes 1.0."""
    idx = np.digitize(x, _bin_edges(m)) - 1
    return np.clip(idx, 0, m - 1)


@dataclass
class ReliabilityBins:
    """Per-bin counts, mean predicted probability, and observed frequency."""

    edges: np.ndarray
    counts: np.ndarray
    mean_predicted: np.ndarray
    empirical_frequency: np.ndarray
    mode: str = "confidence"
    class_index: Optional[int] = None

    @property
    def gaps(self) -> np.ndarray:
        """Absolute gap per nonempty bin (0 where the bin is empty)."""
        return np.where(
            self.counts > 0,
            np.abs(self.empirical_frequency - self.mean_predicted),
            0.0,
        )

    def to_table(self):
        """Plain rows (bin_low, bin_high, count, mean_predicted, empirical_frequency)."""
        rows = []
        for i in range(self.counts.size):
            rows.append(
                (
                    float(self.edges[i]),
                    float(self.edges[i + 1]),
                    int(self.counts[i]),
                    float(self.mean_predicted[i]),
                    float(self.empirical_frequency[i]),
                )
            )
        return rows


def _binned(x: np.ndarray, hits: np.ndarray, m: int):
    idx = _bin_index(x, m)
    counts = np.bincount(idx, minlength=m).astype(np.int64)
    sums_x = np.bincount(idx, weights=x, minlength=m)
    sums_h = np.bincount(idx, weights=hits, minlength=m)
    with np.errstate(invalid="ignore"):
        mean_x = np.where(counts > 0, sums_x / np.maximum(counts, 1), np.nan)
        freq = np.where(counts > 0, sums_h / np.maximum(counts, 1), np.nan)
    return counts, mean_x, freq


def _checked(p, y):
    """Validated (probability matrix, label vector) pair."""
    p = as_probability_matrix(p)
    return p, as_label_vector(y, p.shape[1], p.shape[0])


# The underscored helpers below take already-validated arrays; the public
# measures validate their inputs and delegate to them.

def _confidence_bins(p, y, m: int) -> ReliabilityBins:
    if m < 1:
        raise ValueError("bin count must be at least 1")
    conf = p.max(axis=1)
    hits = (p.argmax(axis=1) == y).astype(float)
    counts, mean_conf, acc = _binned(conf, hits, m)
    return ReliabilityBins(
        edges=_bin_edges(m),
        counts=counts,
        mean_predicted=mean_conf,
        empirical_frequency=acc,
        mode="confidence",
    )


def _classwise_bins(p, y, j: int, m: int) -> ReliabilityBins:
    if m < 1:
        raise ValueError("bin count must be at least 1")
    counts, mean_pred, freq = _binned(p[:, j], (y == j).astype(float), m)
    return ReliabilityBins(
        edges=_bin_edges(m),
        counts=counts,
        mean_predicted=mean_pred,
        empirical_frequency=freq,
        mode="classwise",
        class_index=j,
    )


def _weighted_gap(bins: ReliabilityBins, n: int) -> float:
    return float((bins.counts / n * bins.gaps).sum())


def _max_gap(bins: ReliabilityBins) -> float:
    gaps = bins.gaps[bins.counts > 0]
    return float(gaps.max()) if gaps.size else 0.0


def _classwise_ece(p, y, m: int):
    n, k = p.shape
    per_class = np.array([_weighted_gap(_classwise_bins(p, y, j, m), n) for j in range(k)])
    return float(per_class.mean()), per_class


def _brier(p, y) -> float:
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), y] = 1.0
    return float(((p - onehot) ** 2).sum(axis=1).mean())


def _log_loss(p, y, floor: float) -> float:
    p = clip_probabilities(p, floor)
    return float(-np.log(p[np.arange(p.shape[0]), y]).mean())


def _accuracy(p, y) -> float:
    return float((p.argmax(axis=1) == y).mean())


def confidence_reliability(p, y, m: int = DEFAULT_BINS) -> ReliabilityBins:
    """Bin rows by confidence (max probability); record accuracy per bin."""
    return _confidence_bins(*_checked(p, y), m)


def classwise_reliability(p, y, j: int, m: int = DEFAULT_BINS) -> ReliabilityBins:
    """Bin rows by class-j predicted probability; record class-j frequency."""
    p, y = _checked(p, y)
    if not 0 <= j < p.shape[1]:
        raise ValueError(f"class index {j} out of range")
    return _classwise_bins(p, y, j, m)


def confidence_ece(p, y, m: int = DEFAULT_BINS) -> float:
    """Count-weighted mean |accuracy - confidence| over nonempty bins."""
    bins = confidence_reliability(p, y, m)
    return _weighted_gap(bins, int(bins.counts.sum()))


def classwise_ece(p, y, m: int = DEFAULT_BINS):
    """Classwise calibration error.

    Returns ``(cw_ece, per_class)`` where ``per_class[j]`` is the
    count-weighted gap between observed class-j frequency and mean
    predicted class-j probability over class-j bins, and ``cw_ece`` is
    the average over classes.
    """
    return _classwise_ece(*_checked(p, y), m)


def mce(p, y, m: int = DEFAULT_BINS) -> float:
    """Maximum |accuracy - confidence| over nonempty confidence bins."""
    return _max_gap(confidence_reliability(p, y, m))


def brier(p, y) -> float:
    """Mean squared distance between rows and one-hot labels (sums over classes)."""
    return _brier(*_checked(p, y))


def log_loss(p, y, floor: float = DEFAULT_CLIP_FLOOR) -> float:
    """Mean negative log probability of the true label, clipped so it is finite."""
    return _log_loss(*_checked(p, y), floor)


def accuracy(p, y) -> float:
    return _accuracy(*_checked(p, y))


def error_rate(p, y) -> float:
    return 1.0 - accuracy(p, y)


def confusion_matrix(p, y) -> np.ndarray:
    """Counts with true class on rows and argmax-predicted class on columns."""
    p, y = _checked(p, y)
    k = p.shape[1]
    pred = p.argmax(axis=1)
    counts = np.bincount(y * k + pred, minlength=k * k)
    return counts.reshape(k, k)


def confusion_delta(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Signed change after - before between two confusion matrices."""
    before = np.asarray(before, dtype=np.int64)
    after = np.asarray(after, dtype=np.int64)
    if before.shape != after.shape:
        raise ValueError("confusion matrices must have the same shape")
    return after - before


@dataclass
class EvalReport:
    """The standard measure bundle for one prediction set."""

    accuracy: float
    error_rate: float
    log_loss: float
    brier: float
    conf_ece: float
    cw_ece: float
    per_class_ece: np.ndarray
    mce: float
    p_conf_ece: Optional[float] = None
    p_cw_ece: Optional[float] = None
    bins: int = DEFAULT_BINS
    n: int = 0
    k: int = 0
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "bins": self.bins,
            "accuracy": self.accuracy,
            "error_rate": self.error_rate,
            "log_loss": self.log_loss,
            "brier": self.brier,
            "conf_ece": self.conf_ece,
            "cw_ece": self.cw_ece,
            "per_class_ece": [float(v) for v in self.per_class_ece],
            "mce": self.mce,
        }
        if self.p_conf_ece is not None:
            out["p_conf_ece"] = self.p_conf_ece
        if self.p_cw_ece is not None:
            out["p_cw_ece"] = self.p_cw_ece
        out.update(self.extras)
        return out


def evaluate(p, y, m: int = DEFAULT_BINS, floor: float = DEFAULT_CLIP_FLOOR) -> EvalReport:
    """Compute the full measure bundle (significance p-values not included)."""
    p, y = _checked(p, y)
    acc = _accuracy(p, y)
    cw, per_class = _classwise_ece(p, y, m)
    conf_bins = _confidence_bins(p, y, m)
    return EvalReport(
        accuracy=acc,
        error_rate=1.0 - acc,
        log_loss=_log_loss(p, y, floor),
        brier=_brier(p, y),
        conf_ece=_weighted_gap(conf_bins, p.shape[0]),
        cw_ece=cw,
        per_class_ece=per_class,
        mce=_max_gap(conf_bins),
        bins=m,
        n=p.shape[0],
        k=p.shape[1],
    )
