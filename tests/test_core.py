import math

import numpy as np
import pytest

from probcal.core import (
    CalibrationDataset,
    as_label_vector,
    as_probability_matrix,
    clip_probabilities,
    log_transform,
    softmax,
)

from conftest import random_simplex


class TestClipProbabilities:
    def test_zero_entry_tiny_floor(self):
        out = clip_probabilities([0.0, 1.0], 2.2e-308)
        assert out[0] == 2.2e-308
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_above_floor_unchanged(self):
        out = clip_probabilities([0.3, 0.7], 1e-10)
        np.testing.assert_allclose(out, [0.3, 0.7], rtol=0, atol=0)

    def test_renormalization_keeps_floor(self):
        # Sub-floor mass moves to exactly the floor; the rest is rescaled:
        # (0.01, 0.5 * 0.99, 0.5 * 0.99).
        out = clip_probabilities([0.0, 0.5, 0.5], 0.01)
        np.testing.assert_allclose(out, [0.01, 0.495, 0.495], rtol=0, atol=1e-12)

    def test_idempotent(self, rng):
        p = random_simplex(rng, 50, 4)
        p[:10, 0] = 0.0
        p[:10] /= p[:10].sum(axis=1, keepdims=True)
        once = clip_probabilities(p, 1e-3)
        twice = clip_probabilities(once, 1e-3)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-14)

    def test_every_entry_at_least_floor(self, rng):
        p = random_simplex(rng, 30, 5)
        p[:, 2] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        out = clip_probabilities(p, 1e-4)
        assert np.all(out >= 1e-4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            clip_probabilities([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            clip_probabilities([0.5, 0.5], 0.6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            clip_probabilities([np.nan, 1.0], 1e-6)


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_log_odds(self):
        np.testing.assert_allclose(softmax([math.log(1), math.log(3)]), [0.25, 0.75], atol=1e-15)

    def test_overflow_safe_shift_invariant(self):
        big = softmax([1000.0, 1000.0, 999.0])
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big, softmax([1.0, 1.0, 0.0]), atol=1e-12)

    def test_shift_invariance_property(self, rng):
        v = rng.normal(size=(20, 6))
        np.testing.assert_allclose(softmax(v + 3.7), softmax(v), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = softmax(rng.normal(size=(40, 5)), axis=1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestLogTransform:
    def test_one_maps_to_zero(self):
        assert log_transform(np.array([[1.0, 1.0]]))[0, 0] == 0.0

    def test_half(self):
        assert log_transform(np.array([[0.5, 0.5]]))[0, 0] == pytest.approx(-0.6931, abs=1e-4)

    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError, match="clip"):
            log_transform(np.array([[0.0, 1.0]]))

    def test_roundtrip_identity_on_simplex(self, rng):
        p = random_simplex(rng, 30, 4)
        np.testing.assert_allclose(softmax(log_transform(p), axis=1), p, atol=1e-12)


class TestValidators:
    def test_probability_matrix_rejects_bad_sums(self):
        with pytest.raises(ValueError, match="sum"):
            as_probability_matrix([[0.5, 0.6]])

    def test_probability_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_probability_matrix([[-0.1, 1.1]])

    def test_label_vector_bounds(self):
        with pytest.raises(ValueError):
            as_label_vector([0, 3], k=3, n=2)
        y = as_label_vector([0, 2], k=3, n=2)
        assert y.dtype == np.int64

    @pytest.mark.parametrize("bad", [2.7, -1, 3], ids=["fractional", "negative", "k"])
    @pytest.mark.parametrize("fitter", ["dirichlet", "affine_logit", "temperature", "ovr"])
    def test_fitters_reject_bad_labels(self, rng, fitter, bad):
        from probcal.dirichlet import L2Config, fit
        from probcal.ovr import fit_ovr
        from probcal.scaling import fit_affine_logit, fit_temperature

        q = random_simplex(rng, 30, 3)
        y = (np.arange(30) % 3).astype(float)
        y[0] = bad
        fit_one = {
            "dirichlet": lambda: fit(q, y, L2Config(1e-3)),
            "affine_logit": lambda: fit_affine_logit(np.log(q), y),
            "temperature": lambda: fit_temperature(np.log(q), y),
            "ovr": lambda: fit_ovr(q, y, "isotonic"),
        }[fitter]
        with pytest.raises(ValueError, match="labels must"):
            fit_one()

    def test_dataset_row_mismatch(self):
        with pytest.raises(ValueError):
            CalibrationDataset(np.array([[0.5, 0.5]]), np.array([0, 1]))

    def test_dataset_needs_two_classes(self):
        with pytest.raises(ValueError, match="distinct"):
            CalibrationDataset(np.array([[0.5, 0.5], [0.4, 0.6]]), np.array([1, 1]))

    def test_dataset_accepts_logits(self):
        ds = CalibrationDataset(np.array([[5.0, -5.0], [0.0, 1.0]]), np.array([0, 1]), kind="logits")
        assert ds.n == 2 and ds.k == 2
