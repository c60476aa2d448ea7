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
#: Elements of the (n, k) predictions handled at a time where a measure
#: needs a full-size temporary: about 512 KB of float64.
_CHUNK_ELEMENTS = 1 << 16


def _chunks(length: int, width: int) -> list:
    """Slices covering ``range(length)``, each of about ``_CHUNK_ELEMENTS``
    elements of an array with ``width`` elements per index."""
    step = max(1, _CHUNK_ELEMENTS // max(1, width))
    return [slice(start, min(start + step, length)) for start in range(0, length, step)]


def _bin_edges(m: int) -> np.ndarray:
    return np.arange(m + 1) / m


def _bin_index(x: np.ndarray, m: int) -> np.ndarray:
    """Equal-width bin of each value, the last bin including 1.0, in place
    in the one index array ``digitize`` returns."""
    idx = np.digitize(x, _bin_edges(m))
    return np.clip(np.subtract(idx, 1, out=idx), 0, m - 1, out=idx)


@dataclass
class ReliabilityBins:
    """Per-bin counts, mean predicted probability, and observed frequency."""

    edges: np.ndarray
    counts: np.ndarray
    mean_predicted: np.ndarray
    empirical_frequency: np.ndarray
    mode: str = "confidence"
    class_index: Optional[int] = None

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


class _Binning:
    """Equal-width bins of fixed predictions, against which hits are counted.

    Column j of ``x`` (n, c) holds one predicted probability per row, binned
    into ``m`` bins. Each bin keeps its row count and mean prediction; what
    varies is only which rows are hits, so the gaps are functions of hit
    counts per (hit set, column, bin). ``hits`` counts a block of R hit
    sets, shape (t, R), over a slice of t rows; counts of several row
    slices add up to those of all rows.

    Each prediction's bin is kept per (row, column) in the narrowest
    unsigned type that holds m - 1. A block of integer labels, where label
    l in row i is a hit for column l, is counted by one ``np.add.at`` over
    the key (hit set, l, bin of (i, l)). When ``x`` has one column, a block
    may instead be a boolean mask of the rows that are hits, counted per
    bin by one matrix product of the rows' bin indicators and the mask.
    """

    def __init__(self, x: np.ndarray, m: int):
        if m < 1:
            raise ValueError("bin count must be at least 1")
        n, c = x.shape
        self.n, self.m = n, m
        self.bins = np.empty((n, c), dtype=np.min_scalar_type(m - 1))
        counts = np.zeros(c * m, dtype=np.intp)
        sums = np.zeros(c * m)
        # A row chunk at a time; ``add.at`` adds each prediction to its bin's
        # sum in row order, starting from 0, as one bincount of all rows does.
        for rows in _chunks(n, c):
            keys = _bin_index(x[rows], m)
            self.bins[rows] = keys
            keys += m * np.arange(c)
            counts += np.bincount(keys.ravel(), minlength=c * m)
            np.add.at(sums, keys.ravel(), x[rows].ravel())
        self.counts = counts.reshape(c, m)
        with np.errstate(invalid="ignore"):
            self.mean = np.where(self.counts > 0, sums.reshape(c, m) / np.maximum(self.counts, 1),
                                 np.nan)

    def hits(self, block: np.ndarray, rows: slice = slice(None), out=None) -> np.ndarray:
        """Hit counts of shape (R, c, m) for a label block or hit mask (t, R)
        of the rows ``rows``, added to ``out`` if given."""
        bins = self.bins[rows]
        t, c = bins.shape
        n_sets = block.shape[1]
        if out is None:
            out = np.zeros((n_sets, c, self.m), dtype=np.intp)
        if block.dtype == bool:
            # Sums of 0/1 over at most t rows are exact in float32 below 2^24.
            dtype = np.float32 if t < 1 << 24 else float
            member = (bins[:, 0] == np.arange(self.m)[:, None]).astype(dtype)
            out[:, 0] += (member @ block.astype(dtype)).T.astype(np.intp)
            return out
        keys = block + (c * np.arange(t))[:, None]
        in_bin = bins.ravel()[keys]
        np.multiply(block, self.m, out=keys, dtype=np.intp)
        keys += in_bin
        keys += c * self.m * np.arange(n_sets)
        np.add.at(out.reshape(-1), keys.ravel(), 1)
        return out

    def bin_gaps(self, hits: np.ndarray) -> np.ndarray:
        """|hit frequency - mean prediction| per hit set, prediction column
        and bin, 0 where the bin is empty, from hit counts (R, c, m)."""
        gaps = hits / np.maximum(self.counts, 1)
        gaps -= self.mean
        np.abs(gaps, out=gaps)
        np.copyto(gaps, 0.0, where=self.counts == 0)
        return gaps

    def gaps(self, hits: np.ndarray) -> np.ndarray:
        """Count-weighted sum of ``bin_gaps`` over the bins: shape (R, c)."""
        weighted = self.bin_gaps(hits)
        weighted *= self.counts / self.n
        return weighted.sum(axis=-1)

    def reliability(self, hit: np.ndarray, mode: str, class_index=None) -> ReliabilityBins:
        """Reliability bins of the single prediction column against the
        boolean hit vector ``hit`` (n,)."""
        counts = self.counts[0]
        with np.errstate(invalid="ignore"):
            freq = np.where(counts > 0, self.hits(hit[:, None])[0, 0] / np.maximum(counts, 1),
                            np.nan)
        return ReliabilityBins(edges=_bin_edges(self.m), counts=counts,
                               mean_predicted=self.mean[0], empirical_frequency=freq,
                               mode=mode, class_index=class_index)


def _confidence_binning(p, m: int) -> _Binning:
    """Rows binned by confidence; a row is a hit when its label is its argmax."""
    return _Binning(p.max(axis=1)[:, None], m)


def _correct(p, y) -> np.ndarray:
    """Rows whose label is the argmax: the hits of the confidence binning."""
    return p.argmax(axis=1) == y


def _checked(p, y):
    """Validated (probability matrix, label vector) pair."""
    p = as_probability_matrix(p)
    return p, as_label_vector(y, p.shape[1], p.shape[0])


# The underscored helpers below take already-validated arrays; the public
# measures validate their inputs and delegate to them.

def _classwise_ece(binning: _Binning, y):
    per_class = binning.gaps(binning.hits(y[:, None]))[0]
    return float(per_class.mean()), per_class


# The losses work a row chunk at a time: each row's sum has the same bits
# whichever rows share its chunk, and the mean is taken over all n rows.

def _brier(p, y) -> float:
    per_row = np.empty(p.shape[0])
    for rows in _chunks(*p.shape):
        d = p[rows].copy()
        d[np.arange(d.shape[0]), y[rows]] -= 1.0
        d *= d
        per_row[rows] = d.sum(axis=1)
    return float(per_row.mean())


def _log_loss(p, y, floor: float) -> float:
    per_row = np.empty(p.shape[0])
    for rows in _chunks(*p.shape):
        q = clip_probabilities(p[rows], floor)
        per_row[rows] = -np.log(q[np.arange(q.shape[0]), y[rows]])
    return float(per_row.mean())


def _accuracy(p, y) -> float:
    return float(_correct(p, y).mean())


def confidence_reliability(p, y, m: int = DEFAULT_BINS) -> ReliabilityBins:
    """Bin rows by confidence (max probability); record accuracy per bin."""
    p, y = _checked(p, y)
    return _confidence_binning(p, m).reliability(_correct(p, y), "confidence")


def classwise_reliability(p, y, j: int, m: int = DEFAULT_BINS) -> ReliabilityBins:
    """Bin rows by class-j predicted probability; record class-j frequency."""
    p, y = _checked(p, y)
    if not 0 <= j < p.shape[1]:
        raise ValueError(f"class index {j} out of range")
    return _Binning(p[:, j:j + 1], m).reliability(y == j, "classwise", j)


def confidence_ece(p, y, m: int = DEFAULT_BINS) -> float:
    """Count-weighted mean |accuracy - confidence| over nonempty bins."""
    p, y = _checked(p, y)
    binning = _confidence_binning(p, m)
    return float(binning.gaps(binning.hits(_correct(p, y)[:, None]))[0, 0])


def classwise_ece(p, y, m: int = DEFAULT_BINS):
    """Classwise calibration error.

    Returns ``(cw_ece, per_class)`` where ``per_class[j]`` is the
    count-weighted gap between observed class-j frequency and mean
    predicted class-j probability over class-j bins, and ``cw_ece`` is
    the average over classes.
    """
    p, y = _checked(p, y)
    return _classwise_ece(_Binning(p, m), y)


def mce(p, y, m: int = DEFAULT_BINS) -> float:
    """Maximum |accuracy - confidence| over nonempty confidence bins."""
    p, y = _checked(p, y)
    binning = _confidence_binning(p, m)
    return float(binning.bin_gaps(binning.hits(_correct(p, y)[:, None])).max())


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


def evaluate(p, y, m: int = DEFAULT_BINS, floor: float = DEFAULT_CLIP_FLOOR, *,
             _binnings=None) -> EvalReport:
    """Compute the full measure bundle (significance p-values not included).

    ``_binnings``, the classwise ``_Binning`` of ``p`` and its confidence
    binning, both with ``m`` bins, saves building them here.
    """
    p, y = _checked(p, y)
    classwise, conf = _binnings or (_Binning(p, m), _confidence_binning(p, m))
    correct = _correct(p, y)
    acc = float(correct.mean())
    conf_hits = conf.hits(correct[:, None])
    cw, per_class = _classwise_ece(classwise, y)
    return EvalReport(
        accuracy=acc,
        error_rate=1.0 - acc,
        log_loss=_log_loss(p, y, floor),
        brier=_brier(p, y),
        conf_ece=float(conf.gaps(conf_hits)[0, 0]),
        cw_ece=cw,
        per_class_ece=per_class,
        mce=float(conf.bin_gaps(conf_hits).max()),
        bins=m,
        n=p.shape[0],
        k=p.shape[1],
    )
