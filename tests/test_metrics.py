import math

import numpy as np
import pytest

from probcal.metrics import (
    accuracy,
    brier,
    classwise_ece,
    classwise_reliability,
    confidence_ece,
    confidence_reliability,
    confusion_delta,
    confusion_matrix,
    error_rate,
    evaluate,
    log_loss,
    mce,
)
from probcal.scaling import apply_temperature
from probcal.core import softmax

from conftest import peaked_simplex, random_simplex, traced_peak
from oracles import brute_classwise_ece, brute_confidence_ece, sample_labels_from_rows

FOUR_ROWS = np.array([[0.2, 0.8], [0.4, 0.6], [0.9, 0.1], [0.7, 0.3]])
FOUR_LABELS = np.array([1, 1, 0, 0])


class TestConfidenceReliability:
    def test_hand_dataset(self):
        bins = confidence_reliability(FOUR_ROWS, FOUR_LABELS, 2)
        assert bins.counts.tolist() == [0, 4]
        assert bins.mean_predicted[1] == pytest.approx(0.75)
        assert bins.empirical_frequency[1] == pytest.approx(1.0)

    def test_perfect_one_hot(self):
        p = np.eye(3)[np.array([0, 1, 2, 1])]
        p = np.clip(p, 1e-15, None)
        p /= p.sum(axis=1, keepdims=True)
        bins = confidence_reliability(p, np.array([0, 1, 2, 1]), 10)
        assert bins.counts[:9].sum() == 0
        assert bins.counts[9] == 4
        assert bins.empirical_frequency[9] == pytest.approx(1.0)
        assert bins.mean_predicted[9] == pytest.approx(1.0)

    def test_calibrated_constant_predictor(self):
        p = np.tile([0.75, 0.25], (8, 1))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        bins = confidence_reliability(p, y, 2)
        assert bins.counts[1] == 8
        assert bins.mean_predicted[1] == pytest.approx(0.75)
        assert bins.empirical_frequency[1] == pytest.approx(0.75)

    def test_table_export(self):
        rows = confidence_reliability(FOUR_ROWS, FOUR_LABELS, 2).to_table()
        assert rows[1] == (0.5, 1.0, 4, pytest.approx(0.75), pytest.approx(1.0))


class TestConfidenceEce:
    def test_hand_dataset(self):
        assert confidence_ece(FOUR_ROWS, FOUR_LABELS, 2) == pytest.approx(0.25)

    def test_calibrated_constant_predictor(self):
        p = np.tile([0.75, 0.25], (8, 1))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        assert confidence_ece(p, y, 2) == pytest.approx(0.0)

    def test_single_wrong_one_hot(self):
        p = np.array([[1.0, 0.0]])
        assert confidence_ece(p, np.array([1]), 15) == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 200))
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 11))
            p = random_simplex(rng, n, k)
            y = rng.integers(0, k, size=n)
            assert abs(confidence_ece(p, y, m) - brute_confidence_ece(p, y, m)) <= 1e-12


class TestClasswiseEce:
    def test_hand_dataset(self):
        cw, per_class = classwise_ece(FOUR_ROWS, FOUR_LABELS, 2)
        assert cw == pytest.approx(0.25)
        np.testing.assert_allclose(per_class, [0.25, 0.25], atol=1e-12)

    def test_one_hot_correct(self):
        p = np.clip(np.eye(3)[np.array([0, 1, 2])], 1e-15, None)
        p /= p.sum(axis=1, keepdims=True)
        cw, _ = classwise_ece(p, np.array([0, 1, 2]), 10)
        assert cw == pytest.approx(0.0, abs=1e-12)

    def test_base_rate_predictor_nearly_calibrated(self, rng):
        n, k = 4000, 3
        rates = np.array([0.5, 0.3, 0.2])
        y = rng.choice(k, size=n, p=rates)
        p = np.tile(rates, (n, 1))
        cw, _ = classwise_ece(p, y, 15)
        assert cw <= 2.0 / math.sqrt(n)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 200))
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 11))
            p = random_simplex(rng, n, k)
            y = rng.integers(0, k, size=n)
            cw, per_class = classwise_ece(p, y, m)
            cw_ref, per_ref = brute_classwise_ece(p, y, m)
            assert abs(cw - cw_ref) <= 1e-12
            np.testing.assert_allclose(per_class, per_ref, atol=1e-12)

    def test_two_class_symmetry(self, rng):
        p0 = rng.uniform(0.02, 0.98, size=150)
        p = np.column_stack([p0, 1.0 - p0])
        y = rng.integers(0, 2, size=150)
        _, per_class = classwise_ece(p, y, 10)
        assert abs(per_class[0] - per_class[1]) <= 1e-12


class TestMce:
    def test_hand_dataset_single_bin(self):
        assert mce(FOUR_ROWS, FOUR_LABELS, 2) == pytest.approx(0.25)

    def test_calibrated_constant_predictor(self):
        p = np.tile([0.75, 0.25], (8, 1))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        assert mce(p, y, 2) == pytest.approx(0.0)

    def test_max_of_bin_gaps(self):
        # two populated bins with gaps 0.1 and 0.4
        p = np.vstack([np.tile([0.6, 0.4], (10, 1)), np.tile([0.9, 0.1], (10, 1))])
        y = np.concatenate([np.where(np.arange(10) < 5, 0, 1), np.where(np.arange(10) < 5, 0, 1)])
        m_bins = 4
        gaps = [0.6 - 0.5, 0.9 - 0.5]
        assert mce(p, y, m_bins) == pytest.approx(max(gaps))
        assert confidence_ece(p, y, m_bins) <= mce(p, y, m_bins)

    def test_ece_never_exceeds_mce(self, rng):
        for _ in range(10):
            p = random_simplex(rng, 80, 3)
            y = rng.integers(0, 3, size=80)
            assert confidence_ece(p, y, 10) <= mce(p, y, 10) + 1e-15
            assert 0.0 <= confidence_ece(p, y, 10) <= 1.0


class TestHitCounts:
    @pytest.mark.parametrize("n_sets", [1, 7])
    def test_mask_counts_match_bincount(self, rng, n_sets):
        # Predictions in [0.5, 0.8) leave bins 0-6 and 12-14 of 15 empty.
        from probcal.metrics import _Binning

        x = rng.uniform(0.5, 0.8, size=(300, 1))
        binning = _Binning(x, 15)
        mask = rng.random((300, n_sets)) < 0.4
        counts = binning.hits(mask)
        assert counts.shape == (n_sets, 1, 15)
        for r in range(n_sets):
            want = np.bincount(binning.bins[mask[:, r], 0], minlength=15)
            np.testing.assert_array_equal(counts[r, 0], want)
        assert counts[:, 0, :7].sum() == counts[:, 0, 12:].sum() == 0

    def test_bins_are_one_byte_per_prediction(self, rng):
        # At n = 10^4, k = 100 the uint8 bin of each prediction takes 1 MB,
        # built a row chunk at a time: measured peak 0.26 times the input,
        # where the int32 keys it replaces were bounded by 1.63 times.
        from probcal.metrics import _Binning, _bin_edges

        q = peaked_simplex(rng, 10_000, 100)
        binning, peak = traced_peak(lambda: _Binning(q, 15))
        assert binning.bins.dtype == np.uint8 and binning.bins.shape == q.shape
        assert peak <= 0.3 * q.nbytes
        want = np.clip(np.digitize(q, _bin_edges(15)) - 1, 0, 14)
        np.testing.assert_array_equal(binning.bins, want)
        keys = (want + 15 * np.arange(100)).ravel()
        np.testing.assert_array_equal(binning.counts.ravel(), np.bincount(keys, minlength=1500))
        sums = np.bincount(keys, weights=q.ravel(), minlength=1500)
        filled = binning.counts.ravel() > 0
        assert np.array_equal(binning.mean.ravel()[filled],
                              sums[filled] / binning.counts.ravel()[filled])

    def test_label_counts_match_bincount(self, rng):
        # Label l in row i counts in (column l, bin of row i's column l),
        # over all rows or a row slice.
        from probcal.metrics import _Binning

        q = random_simplex(rng, 50, 4)
        binning = _Binning(q, 6)
        labels = rng.integers(0, 4, size=(50, 3)).astype(np.uint8)
        for rows in (slice(None), slice(7, 20), slice(49, 50)):
            counts = binning.hits(labels[rows], rows)
            for r in range(3):
                lab = labels[rows, r]
                cells = lab * 6 + binning.bins[rows][np.arange(lab.size), lab]
                want = np.bincount(cells, minlength=24).reshape(4, 6)
                np.testing.assert_array_equal(counts[r], want)


class TestProperLosses:
    def test_perfect_predictions(self):
        p = np.clip(np.eye(2)[np.array([0, 1])], 1e-300, None)
        p /= p.sum(axis=1, keepdims=True)
        y = np.array([0, 1])
        assert brier(p, y) == pytest.approx(0.0, abs=1e-250)
        assert log_loss(p, y) == pytest.approx(0.0, abs=1e-12)
        assert accuracy(p, y) == 1.0

    def test_coin_flip(self):
        p = np.array([[0.5, 0.5]])
        y = np.array([0])
        assert brier(p, y) == pytest.approx(0.5)
        assert log_loss(p, y) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clipped_log_loss(self):
        value = log_loss(np.array([[0.0, 1.0]]), np.array([0]), floor=2.2e-308)
        assert value == pytest.approx(-math.log(2.2e-308), rel=1e-12)
        assert value == pytest.approx(708.4, abs=0.1)

    def test_row_chunks_match_whole_matrix(self, rng):
        # 3001 rows of k = 100 span several row chunks, the last one short;
        # a third of the rows have entries below the clip floor.
        from probcal.core import clip_probabilities

        p = peaked_simplex(rng, 3001, 100)
        p[::3, :10] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        y = rng.integers(0, 100, size=3001)
        d = p.copy()
        d[np.arange(3001), y] -= 1.0
        assert brier(p, y) == float((d * d).sum(axis=1).mean())
        q = clip_probabilities(p, 1e-4)
        assert log_loss(p, y, 1e-4) == float(-np.log(q[np.arange(3001), y]).mean())

    def test_argmax_tie_breaks_low(self):
        assert accuracy(np.array([[0.5, 0.5]]), np.array([0])) == 1.0
        assert accuracy(np.array([[0.5, 0.5]]), np.array([1])) == 0.0

    def test_constant_predictor_optimum_is_base_rate(self, rng):
        y = rng.integers(0, 3, size=60)
        rates = np.bincount(y, minlength=3) / 60
        grid = [np.array([a, b, 1 - a - b])
                for a in np.linspace(0.05, 0.9, 18)
                for b in np.linspace(0.05, 0.9, 18) if a + b < 0.95]
        base_brier = brier(np.tile(rates, (60, 1)), y)
        base_ll = log_loss(np.tile(rates, (60, 1)), y)
        for g in grid:
            assert base_brier <= brier(np.tile(g, (60, 1)), y) + 1e-12
            assert base_ll <= log_loss(np.tile(g, (60, 1)), y) + 1e-12

    def test_accuracy_error_rate_sum(self, rng):
        p = random_simplex(rng, 50, 4)
        y = rng.integers(0, 4, size=50)
        assert accuracy(p, y) + error_rate(p, y) == pytest.approx(1.0)


class TestConfusion:
    def test_zero_delta_for_identical(self, rng):
        p = random_simplex(rng, 40, 3)
        y = rng.integers(0, 3, size=40)
        cm = confusion_matrix(p, y)
        assert cm.sum() == 40
        np.testing.assert_array_equal(confusion_delta(cm, cm), np.zeros((3, 3), dtype=int))

    def test_fixed_confusions(self):
        before = np.array([[0, 2], [0, 0]])
        after = np.array([[2, 0], [0, 0]])
        delta = confusion_delta(before, after)
        assert delta[0, 1] == -2 and delta[0, 0] == 2

    def test_temperature_scaling_zero_delta(self, rng):
        z = rng.normal(size=(100, 4)) * 2
        y = rng.integers(0, 4, size=100)
        before = confusion_matrix(softmax(z, axis=1), y)
        after = confusion_matrix(apply_temperature(z, 3.7), y)
        np.testing.assert_array_equal(confusion_delta(before, after), np.zeros((4, 4), dtype=int))


class TestEvaluate:
    def test_report_fields(self, rng):
        p = random_simplex(rng, 60, 3)
        y = sample_labels_from_rows(rng, p)
        report = evaluate(p, y, 10)
        assert report.accuracy + report.error_rate == pytest.approx(1.0)
        assert report.n == 60 and report.k == 3 and report.bins == 10
        assert 0.0 <= report.conf_ece <= 1.0
        assert 0.0 <= report.cw_ece <= 1.0
        assert report.per_class_ece.shape == (3,)
        assert report.p_conf_ece is None
        d = report.as_dict()
        assert "p_conf_ece" not in d
        assert d["accuracy"] == report.accuracy

    def test_classwise_reliability_counts(self, rng):
        p = random_simplex(rng, 30, 3)
        y = rng.integers(0, 3, size=30)
        bins = classwise_reliability(p, y, 1, 10)
        assert bins.counts.sum() == 30
        assert bins.mode == "classwise" and bins.class_index == 1
