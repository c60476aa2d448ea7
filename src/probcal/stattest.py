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
pseudo-label from a guide table of the rows' cumulative probabilities,
built once per test, which settles most draws with one lookup and the
rest by a bisection over the few entries that share the uniform's
bucket. The confidence statistic needs only
whether each pseudo-label is the row's argmax, which two comparisons of
the uniform against the row's cumulative probabilities decide, so it
draws no labels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import DEFAULT_BINS, _Binning, _checked, _confidence_binning, _correct

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
    clipped to k - 1. Rows of ``cum`` are non-negative and non-decreasing.

    The draw reads a guide table (the cutpoint method of Chen & Asau,
    1974), built here once: for a power of two W, ``guide[i, g]`` counts
    the entries of ``cum[i, :k-1]`` below g / W, for g = 0..W. u * W and
    cum * W are exact, so for g = floor(u * W) the label lies in
    [guide[i, g], guide[i, g + 1]]. Where the two bounds are equal, that
    is the label; the other draws count the entries of ``cum[i]`` below u
    between the bounds by a bisection over that range alone. Each row's
    resamples sit together, so the gathers stay local. The table holds
    counts in the narrowest unsigned type that holds k - 1, which is also
    the type of the labels.

    W is the power of two at or above 4k, and at least 64. With about
    four buckets per entry, the bounds agree for about 85% of the draws
    at k = 100, for a table of n x 513 bytes. Below k = 16 the floor of
    64 leaves about 4% of the draws to the bisection, against 16% with
    16 buckets, whose draw took 1.6 times as long at k = 4, n = 2000.
    """
    n, k = cum.shape
    width = 1 << max(6, (4 * k - 1).bit_length())
    guide = np.empty((n, width + 1), dtype=np.min_scalar_type(k - 1))
    # Row i's entry j counts towards guide[i, g] for every g above
    # cum * W: from bucket floor(cum * W) + 1 on. The table is built
    # from a bincount of those buckets, about _BLOCK_ELEMENTS table
    # entries at a time.
    per_chunk = max(1, _BLOCK_ELEMENTS // (width + 2))
    for start in range(0, n, per_chunk):
        chunk = cum[start:start + per_chunk, :k - 1]
        rows = chunk.shape[0]
        first = np.empty(chunk.shape, dtype=np.intp)
        np.multiply(chunk, width, out=first, casting="unsafe")
        np.minimum(first, width, out=first)
        first += 1 + (width + 2) * np.arange(rows)[:, None]
        counts = np.bincount(first.ravel(), minlength=rows * (width + 2))
        np.cumsum(counts.reshape(rows, width + 2)[:, :width + 1], axis=1,
                  dtype=guide.dtype, out=guide[start:start + rows])
    flat_guide = guide.ravel()
    # upper[j] is guide[i, g + 1] where flat_guide[j] is guide[i, g].
    upper = flat_guide[1:]
    flat_cum = cum.ravel()
    row_start = (np.arange(n) * (width + 1))[:, None]

    def draw(u: np.ndarray) -> np.ndarray:
        # The product is cast to integers (floor, as u >= 0) on its way
        # out, with no float temporary.
        bucket = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, width, out=bucket, casting="unsafe")
        bucket += row_start
        labels = flat_guide[bucket]
        # Draws whose bucket holds entries of cum: the label is lo plus
        # the count of cum[i, lo:hi] below u, found as pos in [lo, hi]
        # with every entry before pos below u, by halving steps.
        open_ = np.flatnonzero(labels != upper[bucket])
        base = open_ // u.shape[1] * k
        pos = base + labels.ravel()[open_]
        end = base + upper[bucket.ravel()[open_]]
        u_open = u.ravel()[open_]
        step = 1 << (int((end - pos).max(initial=1)).bit_length() - 1)
        while step:
            probe = np.minimum(pos + step, end)
            np.copyto(pos, probe, where=flat_cum[probe - 1] < u_open)
            step //= 2
        np.put(labels, open_, pos - base)
        return labels

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
                     plus_one: bool = False, *, _binning=None) -> TestResult:
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
    _binning : the statistic's binning of ``p`` with ``m`` bins, if already
        built: the confidence binning or the classwise ``_Binning``.
    """
    p, y = _checked(p, y)
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    if statistic == "conf_ece":
        binning = _confidence_binning(p, m) if _binning is None else _binning
        observed_hits = _correct(p, y)[:, None]
        draw = _argmax_hits(p)
    elif statistic == "cw_ece":
        binning = _Binning(p, m) if _binning is None else _binning
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
