import tracemalloc

import numpy as np
import pytest

from probcal import stattest
from probcal.metrics import _Binning, _confidence_binning, classwise_ece, confidence_ece
from probcal.stattest import (
    TestResult,
    _argmax_hits,
    _pseudo_labels,
    acceptance_rate,
    calibration_test,
    counter_uniforms,
)

from conftest import random_simplex, traced_peak
from oracles import sample_labels_from_rows

U64_MAX = 2**64 - 1

# counter_uniforms(seed, r, i) as computed when the generator was first
# written down; any change here breaks the determinism contract.
KNOWN_UNIFORMS = [
    (0, 0, 0, 0.13870941014555427),
    (1, 2, 3, 0.4175580595044027),
    (7, 4, 11, 0.537979307794025),
    (U64_MAX, 0, 0, 0.9844383619111032),
    (U64_MAX, 2**40, 2**50, 0.24323253038631998),
    (12345, 999_999, 10**7, 0.041360998506095425),
    (2**63, U64_MAX, U64_MAX, 0.28467410126637216),
    (U64_MAX, U64_MAX, 1, 0.2919615213751451),
]

SMALL_P = np.array([[0.2, 0.5, 0.3], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0],
                    [1 / 3, 1 / 3, 1 / 3], [0.05, 0.9, 0.05]])
# Pseudo-labels of SMALL_P, seed 3, resamples 0..3 (one row per resample).
SMALL_LABELS = [[1, 2, 0, 0, 1], [0, 2, 0, 1, 1], [0, 2, 0, 0, 1], [0, 2, 1, 2, 1]]

# (seed, n, k, m, statistic, p-value, observed statistic) of
# calibration_test(*battery_data(seed, n, k), statistic, m, 300, seed),
# recorded from the dense formulation kept below as the reference.
BATTERY = [
    (0, 200, 2, 15, "conf_ece", 0.8833333333333333, 0.038438246171158735),
    (0, 200, 2, 15, "cw_ece", 0.8966666666666666, 0.05666500679902714),
    (1, 300, 2, 1, "conf_ece", 0.02, 0.0486778498465652),
    (1, 300, 2, 1, "cw_ece", 0.12, 0.031203866049325873),
    (2, 400, 3, 15, "conf_ece", 0.86, 0.03822309797178988),
    (2, 400, 3, 15, "cw_ece", 0.8, 0.0480154984359733),
    (3, 257, 10, 7, "conf_ece", 0.08333333333333333, 0.06718067277011586),
    (3, 257, 10, 7, "cw_ece", 0.2, 0.029126989523873048),
    (4, 500, 100, 15, "conf_ece", 0.09, 0.013548942526547984),
    (4, 500, 100, 15, "cw_ece", 0.2, 0.0037413921512444554),
    (5, 500, 100, 1, "conf_ece", 0.15333333333333332, 0.012659616235651552),
    (5, 500, 100, 1, "cw_ece", 0.49333333333333335, 0.003511594262261909),
    (6, 300, 7, 15, "conf_ece", 0.20333333333333334, 0.0762210301394302),
    (6, 300, 7, 15, "cw_ece", 0.64, 0.04422899830205111),
]


def battery_data(seed, n, k):
    """Predictions and labels built from the counter generator alone, so
    the battery does not depend on numpy's random streams. Odd seeds draw
    labels from a sharpened copy of the predictions (miscalibrated)."""
    u = counter_uniforms(seed, np.arange(k)[None, :] + 1, np.arange(n)[:, None])
    w = u ** 3
    p = w / w.sum(axis=1, keepdims=True)
    sharp = p ** (1.5 if seed % 2 else 1.0)
    sharp /= sharp.sum(axis=1, keepdims=True)
    v = counter_uniforms(seed, 0, np.arange(n))
    y = np.minimum((v[:, None] > np.cumsum(sharp, axis=1)).sum(axis=1), k - 1)
    return p, y


def draw_labels(cum, u):
    """The draw's pseudo-labels for uniforms u (n, R) of every row of ``cum``,
    in one tile that reads the rows of ``cum`` as given."""
    return _pseudo_labels(lambda rows: cum[rows], *cum.shape)(u, slice(None))


def pseudo_labels(cum, seed, resample_indices):
    """Pseudo-labels of the resamples ``resample_indices``, shape (n, R)."""
    u = counter_uniforms(seed, resample_indices[None, :], np.arange(cum.shape[0])[:, None])
    return draw_labels(cum, u)


def dense_labels(cum, u):
    """Dense pseudo-label draw for uniforms u (n, R): the count of cum
    entries below each uniform, clipped to the last class."""
    return np.minimum((u[:, :, None] > cum[:, None, :]).sum(axis=2), cum.shape[1] - 1)


def reference_labels(cum, seed, resample_indices):
    """Dense pseudo-labels of the resamples ``resample_indices``, shape (R, n)."""
    u = counter_uniforms(seed, resample_indices[None, :], np.arange(cum.shape[0])[:, None])
    return dense_labels(cum, u).T


def reference_statistic(p, labels, statistic, m):
    """Dense binned-gap statistic of each label row of `labels` (R, n): an
    (n, m) bin-membership matrix per column and one matrix product each."""
    n, k = p.shape
    if statistic == "conf_ece":
        columns = [(p.max(axis=1), labels == p.argmax(axis=1))]
    else:
        columns = [(p[:, j], labels == j) for j in range(k)]
    total = np.zeros(labels.shape[0])
    for x, hits in columns:
        idx = np.clip(np.digitize(x, np.arange(m + 1) / m) - 1, 0, m - 1)
        membership = np.zeros((n, m))
        membership[np.arange(n), idx] = 1.0
        counts = membership.sum(axis=0)
        safe = np.maximum(counts, 1.0)
        mean = (membership * x[:, None]).sum(axis=0) / safe
        freq = (hits.astype(float) @ membership) / safe
        total += (np.abs(freq - mean) * (counts > 0)) @ (counts / n)
    return total / len(columns)


class TestCounterUniforms:
    def test_range_and_determinism(self):
        u1 = counter_uniforms(7, np.arange(50)[:, None], np.arange(40)[None, :])
        u2 = counter_uniforms(7, np.arange(50)[:, None], np.arange(40)[None, :])
        assert np.array_equal(u1, u2)
        assert np.all((u1 >= 0.0) & (u1 < 1.0))

    def test_pure_function_of_indices(self):
        block = counter_uniforms(3, np.arange(10)[:, None], np.arange(20)[None, :])
        single = counter_uniforms(3, 4, 11)
        assert block[4, 11] == single

    def test_seed_changes_stream(self):
        a = counter_uniforms(0, np.arange(100), 0)
        b = counter_uniforms(1, np.arange(100), 0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,r,i,expected", KNOWN_UNIFORMS)
    def test_known_answers(self, seed, r, i, expected):
        assert counter_uniforms(seed, r, i) == expected

    def test_block_matches_known_answers(self):
        for seed in {s for s, _, _, _ in KNOWN_UNIFORMS}:
            rows = [(r, i, v) for s, r, i, v in KNOWN_UNIFORMS if s == seed]
            rs, is_ = (np.array(c, dtype=np.uint64) for c in list(zip(*rows))[:2])
            block = counter_uniforms(seed, rs[:, None], is_[None, :])
            assert np.diag(block).tolist() == [v for _, _, v in rows]

    def test_roughly_uniform(self):
        u = counter_uniforms(5, np.arange(200)[:, None], np.arange(100)[None, :]).ravel()
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.quantile(u, 0.25) - 0.25) < 0.02


class TestPseudoLabels:
    def test_known_first_labels(self):
        labels = pseudo_labels(np.cumsum(SMALL_P, axis=1), 3, np.arange(4))
        assert labels.T.tolist() == SMALL_LABELS

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 100])
    def test_matches_dense_draw(self, k):
        rng = np.random.default_rng(k)
        p = rng.dirichlet(np.full(k, 0.5), size=300)
        p[rng.random((300, k)) < 0.3] = 0.0          # flat runs in cum
        p[:, 0] += (p.sum(axis=1) == 0)
        p /= p.sum(axis=1, keepdims=True)
        cum = np.cumsum(p, axis=1)
        idx = np.arange(17, 57)
        assert np.array_equal(pseudo_labels(cum, 11, idx).T, reference_labels(cum, 11, idx))

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 100])
    def test_last_cum_below_one(self, k):
        # Rounding can leave the last cumulative sum a few ulps below 1, so a
        # uniform may exceed every entry and the draw returns the last class.
        # Scaling cum down makes that case common.
        rng = np.random.default_rng(100 + k)
        p = rng.dirichlet(np.ones(k), size=200)
        cum = np.cumsum(p, axis=1) * rng.uniform(0.5, 1.0, size=(200, 1))
        idx = np.arange(30)
        labels = pseudo_labels(cum, 5, idx)
        assert np.array_equal(labels.T, reference_labels(cum, 5, idx))
        assert np.any(labels == k - 1)

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 100])
    def test_uniform_equal_to_cum_entry(self, k):
        # Row i puts its resample-0 uniform exactly at cum[i, t] after t zero
        # entries: an entry equal to the uniform is not below it.
        n = 50
        u = counter_uniforms(2, 0, np.arange(n))
        p = np.zeros((n, k))
        t = np.arange(n) % (k - 1)
        p[np.arange(n), t] = u
        p[:, -1] = 1.0 - u
        cum = np.cumsum(p, axis=1)
        assert np.all(cum[np.arange(n), t] == u)
        labels = pseudo_labels(cum, 2, np.arange(3))
        assert np.array_equal(labels.T, reference_labels(cum, 2, np.arange(3)))
        assert np.array_equal(labels[:, 0], t)

    @pytest.mark.parametrize("k", [2, 3, 7, 100, 257])
    def test_values_on_bucket_edges(self, k):
        # Cum entries and uniforms on the grid j / 4096, which holds every
        # bucket edge g / W of the guide table for W <= 4096 (k <= 1024),
        # plus uniforms one ulp either side of each edge and equal to each
        # entry. Rows repeat grid values through zero entries.
        rng = np.random.default_rng(k)
        n, grid = 40, 4096
        steps = np.array([rng.multinomial(grid, q) for q in rng.dirichlet(np.full(k, 0.5), size=n)])
        steps[rng.random((n, k)) < 0.3] = 0
        steps[:, -1] += grid - steps.sum(axis=1)
        cum = np.cumsum(steps / grid, axis=1)
        assert np.all(cum[:, -1] == 1.0)
        edges = np.arange(grid) / grid
        u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0)])
        # Column-major on purpose: the draw takes a block of any layout.
        u = np.asfortranarray(np.concatenate([np.broadcast_to(u, (n, u.size)), cum[:, :-1]],
                                             axis=1))
        assert np.array_equal(draw_labels(cum, u), dense_labels(cum, u))

    @pytest.mark.parametrize("k", [2, 3, 100, 257])
    def test_one_hot_rows_and_zero_columns(self, k):
        # One-hot rows put k - 1 equal entries (0 before the hot class, 1
        # from it on) in the first and last buckets; zero columns repeat
        # entries anywhere. u = 0 is below no entry.
        rng = np.random.default_rng(200 + k)
        n = 3 * k
        p = rng.dirichlet(np.ones(k), size=n)
        p[:, rng.random(k) < 0.5] = 0.0
        p[:, 0] += p.sum(axis=1) == 0
        p /= p.sum(axis=1, keepdims=True)
        hot = np.arange(n) % k
        p[::3] = np.eye(k)[hot[::3]]
        cum = np.cumsum(p, axis=1)
        u = counter_uniforms(4, np.arange(64)[None, :], np.arange(n)[:, None])
        u[:, 0] = 0.0
        u[:, 1] = 1.0 - 2.0**-53
        labels = draw_labels(cum, u)
        assert np.array_equal(labels, dense_labels(cum, u))
        assert np.array_equal(labels[::3, 1], hot[::3])
        assert np.all(labels[:, 0] == 0)

    @pytest.mark.parametrize("k", [2, 10, 100, 257])
    def test_cum_ending_one_ulp_from_one(self, k):
        # Rows end at 1 - ulp, 1 or 1 + ulp, with the last column zero or
        # not, so the last counted entry cum[k - 2] sits at or next to 1
        # and the largest uniform, 1 - 2**-53, may or may not exceed it.
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        ends = []
        for end in (np.nextafter(below, 0.0), below, 1.0, above):
            for last in (0.0, 0.25):
                row = np.linspace(0.0, end - last, k)
                row[-2] = end - last
                row[-1] = end
                ends.append(row)
        cum = np.array(ends)
        u = np.array([0.0, 0.5, 0.75, below - 2.0**-53, below])
        u = np.broadcast_to(u, (cum.shape[0], u.size)).copy()
        labels = draw_labels(cum, u)
        assert np.array_equal(labels, dense_labels(cum, u))
        assert np.any(labels == k - 1) and np.any(labels[:, -1] < k - 1)

    @pytest.mark.parametrize("k", [3, 100])
    def test_row_tiles_match_dense_draw(self, k):
        # A tile's draw reads the guide rows and cumulative sums of its row
        # slice alone; so does the confidence draw its rows' bounds.
        rng = np.random.default_rng(300 + k)
        p = rng.dirichlet(np.full(k, 0.5), size=50)
        cum = np.cumsum(p, axis=1)
        u = counter_uniforms(9, np.arange(8)[None, :], np.arange(50)[:, None])
        draw, hits = _pseudo_labels(lambda rows: cum[rows], *cum.shape), _argmax_hits(p)
        want = dense_labels(cum, u)
        for rows in (slice(0, 1), slice(1, 17), slice(17, 49), slice(49, 50)):
            assert np.array_equal(draw(u[rows], rows), want[rows])
            assert np.array_equal(hits(u[rows], rows), want[rows] == p[rows].argmax(axis=1)[:, None])

    @pytest.mark.parametrize("k", [2, 100, 257])
    def test_single_row(self, k):
        p = np.random.default_rng(k).dirichlet(np.ones(k), size=1)
        cum = np.cumsum(p, axis=1)
        idx = np.arange(300)
        assert np.array_equal(pseudo_labels(cum, 1, idx).T, reference_labels(cum, 1, idx))

    def test_labels_past_255(self):
        # k = 257: labels up to 256 need a table wider than one byte.
        k = 257
        p = np.eye(k)[[256, 255, 0]]
        labels = pseudo_labels(np.cumsum(p, axis=1), 0, np.arange(5))
        assert labels.tolist() == [[256] * 5, [255] * 5, [0] * 5]

    @pytest.mark.parametrize("n_resamples", [1, 255, 256, 257])
    def test_resample_counts_around_chunk(self, n_resamples):
        rng = np.random.default_rng(n_resamples)
        p = random_simplex(rng, 40, 5)
        cum = np.cumsum(p, axis=1)
        idx = np.arange(200, 200 + n_resamples)
        labels = pseudo_labels(cum, 8, idx)
        assert labels.shape == (40, n_resamples)
        assert np.array_equal(labels.T, reference_labels(cum, 8, idx))

    @pytest.mark.parametrize("n_resamples", [1, 255, 256, 257])
    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_statistics_around_chunk(self, n_resamples, statistic):
        rng = np.random.default_rng(n_resamples)
        p = random_simplex(rng, 40, 5)
        y = rng.integers(0, 5, size=40)
        result = calibration_test(p, y, statistic, 6, n_resamples, seed=8)
        labels = reference_labels(np.cumsum(p, axis=1), 8, np.arange(n_resamples))
        np.testing.assert_allclose(result.resampled_statistics,
                                   reference_statistic(p, labels, statistic, 6),
                                   rtol=0, atol=1e-15)


class TestConfidenceHits:
    @staticmethod
    def tied_rows(k, n=60, seed=2):
        """Rows whose resample-0 uniform u sits exactly on a cumulative sum
        next to the argmax a. Where u < 1/2 the row is (0.., u, 1 - u, 0..)
        with a = t + 1, so u equals cum[a - 1]: the draw is below a, a miss.
        Elsewhere it is (0.., u, 0.., 1 - u) with a = t, so u equals cum[a]:
        the draw is a, a hit. Returns the rows and whether each is a hit."""
        u = counter_uniforms(seed, 0, np.arange(n))
        rows = np.arange(n)
        low = u < 0.5
        p = np.zeros((n, k))
        a = np.where(low, 1 + rows % (k - 1), rows % (k - 1))
        p[rows, a - low] = u
        p[rows, np.where(low, a, k - 1)] += 1.0 - u
        cum = np.cumsum(p, axis=1)
        assert np.array_equal(p.argmax(axis=1), a)
        assert np.all(cum[rows, a - low] == u)
        assert low.any() and (~low).any()
        return p, ~low

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 100])
    def test_uniform_equal_to_cum_next_to_argmax(self, k):
        p, hit = self.tied_rows(k)
        n = p.shape[0]
        u = counter_uniforms(2, np.arange(4)[None, :], np.arange(n)[:, None])
        mask = _argmax_hits(p)(u, slice(None))
        labels = reference_labels(np.cumsum(p, axis=1), 2, np.arange(4)).T
        assert np.array_equal(mask, labels == p.argmax(axis=1)[:, None])
        assert np.array_equal(mask[:, 0], hit)

    @pytest.mark.parametrize("k", [2, 3, 7, 64, 100])
    def test_statistics_with_ties_match_dense(self, k):
        p, _ = self.tied_rows(k)
        y = np.arange(p.shape[0]) % k
        result = calibration_test(p, y, "conf_ece", 4, 5, seed=2)
        labels = reference_labels(np.cumsum(p, axis=1), 2, np.arange(5))
        np.testing.assert_allclose(result.resampled_statistics,
                                   reference_statistic(p, labels, "conf_ece", 4),
                                   rtol=0, atol=1e-15)


class TestBlocks:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_statistics_around_block_below_256(self, offset, statistic):
        # With 600 confidence bins or 100 x 15 classwise ones, the hit counts
        # hold blocks below 256 resamples, and the tiles split the 2000 rows
        # with a remainder.
        n, k, m = (2000, 10, 600) if statistic == "conf_ece" else (2000, 100, 15)
        rng = np.random.default_rng(k)
        p = random_simplex(rng, n, k)
        y = rng.integers(0, k, size=n)
        binning = _confidence_binning(p, m) if statistic == "conf_ece" else _Binning(p, m)
        per_block, per_tile = stattest._tile_shape(10**6, binning)
        assert 1 < per_block < 256 and per_tile < n and n % per_tile
        n_resamples = per_block + offset
        result = calibration_test(p, y, statistic, m, n_resamples, seed=3)
        labels = reference_labels(np.cumsum(p, axis=1), 3, np.arange(n_resamples))
        np.testing.assert_allclose(result.resampled_statistics,
                                   reference_statistic(p, labels, statistic, m),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_bit_identical_across_block_sizes(self, monkeypatch, statistic):
        n = 300
        rng = np.random.default_rng(21)
        p = random_simplex(rng, n, 7)
        y = rng.integers(0, 7, size=n)
        runs, shapes = [], set()
        for budget in (1, 80, 300 * 3, 300 * 17, 1 << 18):
            monkeypatch.setattr(stattest, "_BLOCK_ELEMENTS", budget)
            runs.append(calibration_test(p, y, statistic, 10, 40, seed=6).resampled_statistics)
            binning = _confidence_binning(p, 10) if statistic == "conf_ece" else _Binning(p, 10)
            shapes.add(stattest._tile_shape(40, binning))
        # Tile shapes set directly: one row per tile, a last tile of one row
        # (300 = 23 x 13 + 1), a last tile of other sizes, one tile.
        for shape in ((40, 1), (7, 13), (3, 299), (11, 64), (40, n)):
            monkeypatch.setattr(stattest, "_tile_shape", lambda n_resamples, binning, s=shape: s)
            runs.append(calibration_test(p, y, statistic, 10, 40, seed=6).resampled_statistics)
            shapes.add(shape)
        # Several tiles per block, with and without a remainder, and one.
        tiles = {(-(-n // t), n % t) for _, t in shapes}
        assert (1, 0) in tiles and any(c > 1 and r == 0 for c, r in tiles)
        assert any(c > 1 and r == 1 for c, r in tiles) and any(c > 1 and r > 1 for c, r in tiles)
        for other in runs[1:]:
            assert other.tobytes() == runs[0].tobytes()

    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_memory_does_not_grow_with_resample_block(self, statistic):
        # n x 256 float64 temporaries alone would be 39 MB at this size.
        rng = np.random.default_rng(5)
        p = random_simplex(rng, 20000, 10)
        y = rng.integers(0, 10, size=20000)
        tracemalloc.start()
        try:
            calibration_test(p, y, statistic, 15, 300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_classwise_memory_at_paper_scale(self):
        # n = 10^4, k = 100 as on CIFAR-100. The per-row data are the guide
        # table (5.1 MB) and the uint8 bins (1 MB); the tiles add about 2 MB.
        # Measured 8.17 MiB; the test that held the full float64 cumsum and
        # int32 bin keys peaked at 23.70 MiB.
        rng = np.random.default_rng(0)
        p = random_simplex(rng, 10_000, 100)
        y = rng.integers(0, 100, size=10_000)
        _, peak = traced_peak(lambda: calibration_test(p, y, "cw_ece", 15, 52, seed=1))
        assert peak < 9.1 * 2**20


class TestBattery:
    @pytest.mark.parametrize("seed,n,k,m,statistic,p_value,observed", BATTERY)
    def test_matches_dense_formulation(self, seed, n, k, m, statistic, p_value, observed):
        p, y = battery_data(seed, n, k)
        result = calibration_test(p, y, statistic, m, 300, seed=seed)
        assert result.p_value == p_value
        assert result.observed_statistic == pytest.approx(observed, rel=0, abs=1e-15)
        labels = reference_labels(np.cumsum(p, axis=1), seed, np.arange(300))
        np.testing.assert_allclose(result.resampled_statistics,
                                   reference_statistic(p, labels, statistic, m),
                                   rtol=0, atol=1e-15)


class TestFromStatistics:
    def test_paper_count_arithmetic(self):
        resampled = np.concatenate([np.full(170, 2.0), np.full(9830, 0.5)])
        result = TestResult.from_statistics(1.0, resampled, seed=0)
        assert result.p_value == 0.017
        assert result.n_resamples == 10000

    def test_plus_one_correction(self):
        resampled = np.zeros(99)
        assert TestResult.from_statistics(1.0, resampled, 0).p_value == 0.0
        assert TestResult.from_statistics(1.0, resampled, 0, plus_one=True).p_value == pytest.approx(1 / 100)

    def test_ties_not_counted(self):
        resampled = np.full(10, 1.0)
        assert TestResult.from_statistics(1.0, resampled, 0).p_value == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TestResult.from_statistics(1.0, [], 0)


class TestCalibrationTest:
    def test_deterministic_given_seed(self, rng):
        p = random_simplex(rng, 150, 3)
        y = rng.integers(0, 3, size=150)
        r1 = calibration_test(p, y, "conf_ece", 10, 300, seed=9)
        r2 = calibration_test(p, y, "conf_ece", 10, 300, seed=9)
        assert r1.p_value == r2.p_value
        assert np.array_equal(r1.resampled_statistics, r2.resampled_statistics)
        r3 = calibration_test(p, y, "conf_ece", 10, 300, seed=10)
        assert not np.array_equal(r1.resampled_statistics, r3.resampled_statistics)

    def test_p_values_on_grid(self, rng):
        p = random_simplex(rng, 60, 3)
        y = rng.integers(0, 3, size=60)
        result = calibration_test(p, y, "cw_ece", 10, 40, seed=2)
        assert result.p_value in {i / 40 for i in range(41)}

    def test_degenerate_one_hot_gives_zero(self):
        p = np.clip(np.eye(3)[np.array([0, 1, 2, 0])], 1e-300, None)
        p /= p.sum(axis=1, keepdims=True)
        y = np.array([0, 1, 2, 0])
        result = calibration_test(p, y, "conf_ece", 15, 200, seed=1)
        assert result.observed_statistic == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(result.resampled_statistics, 0.0, atol=1e-12)
        assert result.p_value == 0.0

    def test_observed_matches_metrics(self, rng):
        p = random_simplex(rng, 90, 4)
        y = rng.integers(0, 4, size=90)
        conf = calibration_test(p, y, "conf_ece", 7, 5, seed=0)
        cw = calibration_test(p, y, "cw_ece", 7, 5, seed=0)
        assert conf.observed_statistic == pytest.approx(confidence_ece(p, y, 7), abs=1e-12)
        assert cw.observed_statistic == pytest.approx(classwise_ece(p, y, 7)[0], abs=1e-12)

    def test_resampled_match_direct_recomputation(self, rng):
        p = random_simplex(rng, 70, 3)
        y = rng.integers(0, 3, size=70)
        for statistic, metric in (("conf_ece", lambda a, b: confidence_ece(a, b, 8)),
                                  ("cw_ece", lambda a, b: classwise_ece(a, b, 8)[0])):
            result = calibration_test(p, y, statistic, 8, 6, seed=4)
            cum = np.cumsum(p, axis=1)
            pseudo = pseudo_labels(cum, 4, np.arange(6))
            expected = [metric(p, pseudo[:, r]) for r in range(6)]
            np.testing.assert_allclose(result.resampled_statistics, expected, atol=1e-12)

    def test_rejects_unknown_statistic(self, rng):
        p = random_simplex(rng, 10, 2)
        with pytest.raises(ValueError, match="statistic"):
            calibration_test(p, np.array([0, 1] * 5), "brier", 10, 10)

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("statistic", ["conf_ece", "cw_ece"])
    def test_rejects_bin_count_below_one(self, rng, m, statistic):
        p = random_simplex(rng, 10, 3)
        with pytest.raises(ValueError, match="bin count must be at least 1"):
            calibration_test(p, np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]), statistic, m, 10)

    def test_rejects_zero_resamples(self, rng):
        p = random_simplex(rng, 10, 2)
        with pytest.raises(ValueError):
            calibration_test(p, np.array([0, 1] * 5), "conf_ece", 10, 0)

    def test_null_p_values_roughly_uniform(self):
        # Labels drawn from the predictions themselves: p-values should be
        # close to uniform. Kolmogorov-Smirnov distance below 0.1.
        rng = np.random.default_rng(77)
        p_values = []
        for rep in range(500):
            p = random_simplex(rng, 120, 3)
            y = sample_labels_from_rows(rng, p)
            res = calibration_test(p, y, "conf_ece", 10, 120, seed=rep)
            p_values.append(res.p_value)
        p_values = np.sort(p_values)
        grid = (np.arange(500) + 1) / 500
        ks = np.max(np.abs(p_values - grid))
        assert ks < 0.1


class TestAcceptanceRate:
    def _result(self, p):
        return TestResult(observed_statistic=1.0, resampled_statistics=np.array([0.0]),
                          p_value=p, n_resamples=1, seed=0)

    def test_all_accept(self):
        results = [self._result(0.5), self._result(0.5)]
        assert acceptance_rate(results, 0.05) == 1.0

    def test_half_accept(self):
        results = [self._result(0.01), self._result(0.10)]
        assert acceptance_rate(results, 0.05) == 0.5

    def test_boundary_not_accepted(self):
        assert acceptance_rate([self._result(0.05)], 0.05) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acceptance_rate([], 0.05)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            acceptance_rate([self._result(0.5)], 0.0)
