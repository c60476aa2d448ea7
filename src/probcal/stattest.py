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

Resamples are taken in blocks, and each block is drawn and counted in
tiles of (row slice x block), sized by ``_BLOCK_ELEMENTS``: a block's
integer hit counts per (resample, column, bin) add up over its tiles, so
only per-row data, built once per test, grows with n. The classwise
statistic draws each pseudo-label from a guide table of the rows'
cumulative probabilities, built once per test, which settles most draws
with one lookup and the rest by a bisection over the few entries that
share the uniform's bucket, on the cumulative sums of the tile's rows
alone. The confidence statistic needs only whether each pseudo-label is
the row's argmax, which two comparisons of the uniform against the row's
cumulative probabilities decide, so it draws no labels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import DEFAULT_BINS, _Binning, _checked, _chunks, _confidence_binning, _correct

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: Element budget of the resampling tiles: a block holds at most 256
#: resamples and about this many (resample, column, bin) hit counts, and a
#: tile about this many (row, resample) draws plus the c values per row its
#: draw reads; a test of 600 rows, k = 10 and R = 200 is one tile. Chosen at
#: n = 10^4, k = 100 on one core of a 2-vCPU x86-64 host, against the
#: budget 2^18 of whole-row blocks with the full cumsum (23.7 MiB peak):
#: the classwise test's tracemalloc peak (R = 300) is 7.3 MiB at 2^16,
#: 8.8 MiB at 2^17, 10.3 MiB at 3 x 2^16 and 12.0 MiB at 2^18, while its
#: CPU time at R = 1000 (median of 9, alternating with the old test) is
#: 1.22, 0.96, 0.88 and 0.85 times the old one's. The confidence test
#: takes 0.80-0.83 times at every budget.
_BLOCK_ELEMENTS = 1 << 17
#: Elements per slice of ``counter_uniforms``: 2^15 uint64 values (256 KB).
_HASH_SLICE = 1 << 15


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
    step = max(1, _HASH_SLICE // max(1, math.prod(r.shape[1:])))
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


def _pseudo_labels(cum_rows, n: int, k: int):
    """Pseudo-label draw: a function from a uniform tile (t, R) and its row
    slice to the tile's labels.

    ``cum_rows(rows)`` returns the cumulative probabilities of the row slice
    ``rows``, shape (t, k): non-negative and non-decreasing along each row.
    The label of row i for uniform u is the number of entries of
    ``cum[i, :k-1]`` below u, i.e. the count of ``cum[i]`` below it
    clipped to k - 1.

    The draw reads a guide table (the cutpoint method of Chen & Asau,
    1974), built here once: for a power of two W, ``guide[i, g]`` counts
    the entries of ``cum[i, :k-1]`` below g / W, for g = 0..W. u * W and
    cum * W are exact, so for g = floor(u * W) the label lies in
    [guide[i, g], guide[i, g + 1]]. Where the two bounds are equal, that
    is the label; the other draws count the entries of ``cum[i]`` below u
    between the bounds by a bisection over that range alone, on the
    tile's rows of ``cum`` only. Each row's resamples sit together, so the
    gathers stay local. The table holds counts in the narrowest unsigned
    type that holds k - 1, which is also the type of the labels.

    W is the power of two at or above 4k, and at least 64. With about
    four buckets per entry, the bounds agree for about 85% of the draws
    at k = 100, for a table of n x 513 bytes. Below k = 16 the floor of
    64 leaves about 4% of the draws to the bisection, against 16% with
    16 buckets, whose draw took 1.6 times as long at k = 4, n = 2000.
    """
    width = 1 << max(6, (4 * k - 1).bit_length())
    guide = np.empty((n, width + 1), dtype=np.min_scalar_type(k - 1))
    # Row i's entry j counts towards guide[i, g] for every g above
    # cum * W: from bucket floor(cum * W) + 1 on. The table is built
    # from a bincount of those buckets, a row chunk at a time.
    for rows in _chunks(n, width + 2):
        chunk = cum_rows(rows)[:, :k - 1]
        t = chunk.shape[0]
        first = np.empty(chunk.shape, dtype=np.intp)
        np.multiply(chunk, width, out=first, casting="unsafe")
        np.minimum(first, width, out=first)
        first += 1 + (width + 2) * np.arange(t)[:, None]
        counts = np.bincount(first.ravel(), minlength=t * (width + 2))
        np.cumsum(counts.reshape(t, width + 2)[:, :width + 1], axis=1,
                  dtype=guide.dtype, out=guide[rows])

    def draw(u: np.ndarray, rows: slice) -> np.ndarray:
        t, n_sets = u.shape
        flat_guide = guide[rows].ravel()
        # The product is cast to integers (floor, as u >= 0) on its way
        # out, with no float temporary. upper is guide[i, g + 1].
        bucket = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, width, out=bucket, casting="unsafe")
        bucket += ((width + 1) * np.arange(t))[:, None]
        labels = flat_guide[bucket]
        upper = flat_guide[1:][bucket]
        del bucket  # freed, as is upper below, before the tile's cumsum
        # Draws whose bucket holds entries of cum: the label is lo plus
        # the count of cum[i, lo:hi] below u, found as pos in [lo, hi]
        # with every entry before pos below u, by halving steps.
        open_ = np.flatnonzero(labels != upper)
        base = open_ // n_sets * k
        pos = base + labels.ravel()[open_]
        end = base + upper.ravel()[open_]
        del upper
        u_open = u.ravel()[open_]
        flat_cum = cum_rows(rows).ravel()
        step = 1 << (int((end - pos).max(initial=1)).bit_length() - 1)
        while step:
            probe = np.minimum(pos + step, end)
            np.copyto(pos, probe, where=flat_cum[probe - 1] < u_open)
            step //= 2
        np.put(labels, open_, pos - base)
        return labels

    return draw


def _argmax_hits(p: np.ndarray):
    """Confidence hits: a function from a uniform tile (t, R) and its row
    slice to the mask of draws whose pseudo-label is the row's argmax a
    (lowest index on ties).

    The draw counts the entries of ``cum[i, :k-1]`` strictly below u, and
    rows of ``cum`` are non-decreasing, so the label is a exactly when
    ``cum[i, a-1] < u`` (or a = 0) and ``u <= cum[i, a]`` (or a = k - 1).
    Those two bounds are kept per row, taken from ``cum`` a row chunk at
    a time.
    """
    n, k = p.shape
    a = p.argmax(axis=1)
    lo, hi = np.empty(n), np.empty(n)
    for rows in _chunks(n, k):
        cum = np.cumsum(p[rows], axis=1)
        ar, index = a[rows], np.arange(cum.shape[0])
        lo[rows] = np.where(ar > 0, cum[index, ar - 1], -np.inf)
        hi[rows] = np.where(ar < k - 1, cum[index, ar], np.inf)

    def draw(u: np.ndarray, rows: slice) -> np.ndarray:
        hit = lo[rows, None] < u
        hit &= u <= hi[rows, None]
        return hit

    return draw


def _resampled_statistics(binning: _Binning, draw, n_resamples: int, seed: int) -> np.ndarray:
    """Statistic value against pseudo-labels for each resample index.

    ``draw`` maps the uniforms of a tile, shape (t, R), and its row slice
    to the tile's hit sets for ``binning``. A block of R resamples is drawn
    and counted tile by tile over its rows, and its integer hit counts are
    summed over the tiles before the statistic is taken, so only per-row
    data grows with n. Each uniform depends only on (seed, resample, row),
    and counts are integers, so the values do not depend on the tile
    shape.
    """
    n = binning.n
    per_block, per_tile = _tile_shape(n_resamples, binning)
    row_index = np.arange(n)[:, None]
    out = np.empty(n_resamples)
    for start in range(0, n_resamples, per_block):
        block = np.arange(start, min(start + per_block, n_resamples))
        hits = np.zeros((block.size, *binning.counts.shape), dtype=np.intp)
        for first in range(0, n, per_tile):
            rows = slice(first, first + per_tile)
            binning.hits(draw(counter_uniforms(seed, block, row_index[rows]), rows), rows, hits)
        out[block] = binning.gaps(hits).mean(axis=1)
    return out


def _tile_shape(n_resamples: int, binning: _Binning) -> tuple:
    """(resamples per block, rows per tile) of a test against ``binning``.

    A block's (R, c, m) hit counts and a tile's (t, R) draw each hold about
    ``_BLOCK_ELEMENTS`` elements or fewer, counting in the tile the c
    per-row values the draw reads besides the uniforms (a row of
    cumulative probabilities for the classwise draw).
    """
    per_block = min(256, n_resamples, max(1, _BLOCK_ELEMENTS // binning.counts.size))
    return per_block, max(1, _BLOCK_ELEMENTS // (per_block + binning.counts.shape[0]))


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
        draw = _pseudo_labels(lambda rows: np.cumsum(p[rows], axis=1), *p.shape)
    else:
        raise ValueError(f"unknown statistic {statistic!r}; use 'conf_ece' or 'cw_ece'")

    observed = float(binning.gaps(binning.hits(observed_hits)).mean(axis=1)[0])
    resampled = _resampled_statistics(binning, draw, n_resamples, seed)
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
