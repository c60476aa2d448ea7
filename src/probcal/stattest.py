"""Resampling significance test of calibration.

The null hypothesis is that the model is calibrated, in which case the
calibration error against the actual labels is in expectation equal to the
error against pseudo-labels drawn from the predicted distributions
themselves. The test draws ``n_resamples`` pseudo-label sets, recomputes
the chosen statistic for each, and reports the fraction of resampled
statistics strictly greater than the observed one.

Pseudo-labels are generated with a counter-based generator: the uniform
for (resample r, row i) is derived from the 64-bit splitmix mix of
``seed``, then ``r``, then ``i``. No generator state is carried between
draws, so results are bit-identical across runs, platforms, block sizes
and any parallel execution order.

Resamples are drawn in blocks of about ``_BLOCK_ELEMENTS`` (row,
resample) pairs, at most 256 and at least one resample, so a block's
temporaries stay a few MB whatever n is; only per-row data, built once
per test, grows with n. The classwise statistic draws each
pseudo-label by bisection over a table of the rows' cumulative
probabilities, built once per test. The confidence statistic needs only
whether each pseudo-label is the row's argmax, which two comparisons of
the uniform against the row's cumulative probabilities decide, so it
draws no labels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_label_vector, as_probability_matrix
from .metrics import DEFAULT_BINS, _Binning, _confidence_binning, _correct

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: Element budget of one resample block (rows x resamples): a block holds
#: min(256, budget // n) resamples, at least one, so each (n, R) temporary
#: stays near 2 MB of float64 however large n is, and n <= 1024 keeps
#: blocks of 256. Chosen at n = 10^4, k = 100, R = 1000 on one core of a
#: 2-vCPU x86-64 host: the classwise test's tracemalloc peak (R = 300) is
#: 25 MB at 2^16-2^18, 30 MB at 2^19 and 43 MB at 2^20, while its time
#: (median of 5) falls from 1.00 s at 2^16 to 0.84 s at 2^18 and no
#: further; the confidence test takes 0.22-0.31 s at every budget.
_BLOCK_ELEMENTS = 1 << 18
#: Elements per slice of ``counter_uniforms``: 2^15 uint64 values (256 KB).
_TILE = 1 << 15


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array (modular 2^64)."""
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _mix64(x):
    """splitmix64 finalizer of a copy of x: uint64 scalar or array."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))[()]


def counter_uniforms(seed: int, resample_indices, row_indices) -> np.ndarray:
    """Uniforms in [0, 1) indexed by (resample, row); broadcasting inputs.

    Deterministic pure function of (seed, resample index, row index).
    """
    s = np.uint64(seed % (1 << 64))
    r = _mix64(_mix64(s) + np.asarray(resample_indices, dtype=np.uint64))
    r, i = np.broadcast_arrays(r, np.asarray(row_indices, dtype=np.uint64))
    out = np.empty(r.shape)
    # The hash makes about a dozen passes over its buffer, so it runs on
    # slices along the first axis small enough to stay in cache.
    r_rows, i_rows, out_rows = np.atleast_1d(r, i, out)
    step = max(1, _TILE // max(1, math.prod(r.shape[1:])))
    for start in range(0, out_rows.shape[0], step):
        rows = slice(start, start + step)
        h = _mix64_inplace(r_rows[rows] + i_rows[rows])
        h >>= np.uint64(11)
        np.multiply(h, 2.0**-53, out=out_rows[rows])
    return out[()]


@dataclass
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    observed_statistic: float
    resampled_statistics: np.ndarray
    p_value: float
    n_resamples: int
    seed: int

    @classmethod
    def from_statistics(cls, observed: float, resampled, seed: int,
                        plus_one: bool = False) -> "TestResult":
        resampled = np.asarray(resampled, dtype=float)
        n = resampled.size
        if n < 1:
            raise ValueError("need at least one resampled statistic")
        greater = int((resampled > observed).sum())
        p = (greater + 1) / (n + 1) if plus_one else greater / n
        return cls(
            observed_statistic=float(observed),
            resampled_statistics=resampled,
            p_value=float(p),
            n_resamples=n,
            seed=seed,
        )


def _pseudo_labels(cum: np.ndarray):
    """Pseudo-label draw: a function from a uniform block (n, R) to labels.

    The label of row i for uniform u is the number of entries of
    ``cum[i, :k-1]`` below u, i.e. the count of ``cum[i]`` below it
    clipped to k - 1. Rows of ``cum`` are non-decreasing, so a branchless
    lower-bound bisection finds it in ceil(log2 k) gathers from the row
    padded with +inf to a power-of-two width. The padded table is built
    here, once; each row's resamples sit together, so the gathers stay
    local.
    """
    n, k = cum.shape
    width = 1 << (k - 1).bit_length()
    table = np.full((n, width), np.inf)
    table[:, :k - 1] = cum[:, :k - 1]
    flat = table.ravel()
    row_start = (np.arange(n) * width)[:, None]

    def draw(u: np.ndarray) -> np.ndarray:
        step = width // 2
        # probe = row_start + (count found so far) + step - 1; where the
        # probed entry is below u the count grows by step, then step halves.
        probe = np.repeat(row_start + (step - 1), u.shape[1], axis=1)
        while step:
            probe += (flat[probe] < u) * step - step // 2
            step //= 2
        probe -= row_start
        return probe

    return draw


def _argmax_hits(p: np.ndarray):
    """Confidence hits: a function from a uniform block (n, R) to the mask
    of draws whose pseudo-label is the row's argmax a (lowest index on ties).

    The draw counts the entries of ``cum[i, :k-1]`` strictly below u, and
    rows of ``cum`` are non-decreasing, so the label is a exactly when
    ``cum[i, a-1] < u`` (or a = 0) and ``u <= cum[i, a]`` (or a = k - 1).
    """
    n, k = p.shape
    cum = np.cumsum(p, axis=1)
    a = p.argmax(axis=1)
    rows = np.arange(n)
    lo = np.where(a > 0, cum[rows, a - 1], -np.inf)[:, None]
    hi = np.where(a < k - 1, cum[rows, a], np.inf)[:, None]

    def draw(u: np.ndarray) -> np.ndarray:
        hit = lo < u
        hit &= u <= hi
        return hit

    return draw


def _resampled_statistics(n: int, statistic_fn, n_resamples: int, seed: int) -> np.ndarray:
    """Statistic value against pseudo-labels for each resample index.

    ``statistic_fn`` maps the uniforms of a block, shape (n, R), to R
    values. Blocks hold ``min(256, _BLOCK_ELEMENTS // n)`` resamples (at
    least one), so the block temporaries stay near ``_BLOCK_ELEMENTS``
    elements whatever n is. Each uniform depends only on (seed, resample,
    row), so the values do not depend on the block size.
    """
    per_block = min(256, max(1, _BLOCK_ELEMENTS // n))
    rows = np.arange(n)[:, None]
    out = np.empty(n_resamples)
    for start in range(0, n_resamples, per_block):
        block = np.arange(start, min(start + per_block, n_resamples))
        out[block] = statistic_fn(counter_uniforms(seed, block[None, :], rows))
    return out


def calibration_test(p, y, statistic: str = "conf_ece", m: int = DEFAULT_BINS,
                     n_resamples: int = 10000, seed: int = 0,
                     plus_one: bool = False) -> TestResult:
    """Resampling test of the hypothesis that predictions are calibrated.

    Parameters
    ----------
    p, y : predictions and labels.
    statistic : {"conf_ece", "cw_ece"}
        Calibration error to compare against its pseudo-label distribution.
    m : int
        Equal-width bin count for the statistic.
    n_resamples : int
        Number of pseudo-label sets drawn.
    seed : int
        Seed of the counter-based generator.
    plus_one : bool
        When set, report (count + 1) / (N + 1) instead of count / N, which
        never returns an exact zero. Off by default: the plain fraction of
        resamples strictly greater than the observed statistic.
    """
    p = as_probability_matrix(p)
    y = as_label_vector(y, p.shape[1], p.shape[0])
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    if statistic == "conf_ece":
        binning = _confidence_binning(p, m)
        observed_hits = _correct(p, y)[:, None]
        draw = _argmax_hits(p)
    elif statistic == "cw_ece":
        binning = _Binning(p, m)
        observed_hits = y[:, None]
        draw = _pseudo_labels(np.cumsum(p, axis=1))
    else:
        raise ValueError(f"unknown statistic {statistic!r}; use 'conf_ece' or 'cw_ece'")

    observed = float(binning.gaps(observed_hits).mean(axis=1)[0])
    resampled = _resampled_statistics(
        p.shape[0], lambda u: binning.gaps(draw(u)).mean(axis=1), n_resamples, seed)
    return TestResult.from_statistics(observed, resampled, seed, plus_one=plus_one)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the significance level lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def acceptance_rate(results, alpha: float = 0.05) -> float:
    """Fraction of test results whose p-value exceeds alpha."""
    results = list(results)
    if not results:
        raise ValueError("need at least one test result")
    check_alpha(alpha)
    return float(np.mean([r.p_value > alpha for r in results]))
