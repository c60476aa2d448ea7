import warnings

import numpy as np
import pytest

from probcal.core import softmax
from probcal.metrics import error_rate, log_loss
from probcal.scaling import (
    AffineLogitParams,
    TemperatureParams,
    apply_affine_logit,
    apply_temperature,
    fit_affine_logit,
    fit_temperature,
    temperature_as_dirichlet,
    zero_offdiagonal,
)
from probcal.dirichlet import apply_linear, OdirConfig

from oracles import central_difference, sample_labels_from_rows

THREE_ROWS = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
THREE_LABELS = np.array([0, 1, 1])


class TestApplyTemperature:
    def test_identity_temperature(self, rng):
        z = rng.normal(size=(30, 4))
        np.testing.assert_allclose(apply_temperature(z, 1.0), softmax(z, axis=1), atol=1e-15)

    def test_halving(self):
        out = apply_temperature(np.array([2.0, 0.0]), 2.0)
        np.testing.assert_allclose(out, softmax(np.array([1.0, 0.0])), atol=1e-15)
        np.testing.assert_allclose(out, [0.7311, 0.2689], atol=1e-4)

    def test_large_temperature_flattens(self):
        out = apply_temperature(np.array([5.0, -5.0]), 1e6)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([1.0, 0.0]), 0.0)

    def test_preserves_argmax(self, rng):
        z = rng.normal(size=(200, 5))
        y = rng.integers(0, 5, size=200)
        base = error_rate(softmax(z, axis=1), y)
        for t in (0.07, 1.0, 13.0):
            assert error_rate(apply_temperature(z, t), y) == base


class TestFitTemperature:
    def test_closed_form_stationary_point(self):
        fitted = fit_temperature(THREE_ROWS, THREE_LABELS)
        assert fitted.t == pytest.approx(2.0 / np.log(2.0), abs=1e-3)

    def test_separable_data_clamps_low(self):
        with pytest.warns(RuntimeWarning, match="bound"):
            fitted = fit_temperature(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 1]))
        assert fitted.t == pytest.approx(1e-2, rel=1e-3)

    def test_uninformative_data_clamps_high(self):
        with pytest.warns(RuntimeWarning, match="bound"):
            fitted = fit_temperature(np.array([[2.0, 0.0], [2.0, 0.0]]), np.array([0, 1]))
        assert fitted.t == pytest.approx(1e2, rel=1e-3)

    def test_always_within_bounds(self, rng):
        import warnings

        for _ in range(10):
            z = rng.normal(size=(8, 3)) * rng.uniform(0.1, 10.0)
            y = rng.integers(0, 3, size=8)
            if np.unique(y).size < 2:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fitted = fit_temperature(z, y)
            assert 1e-2 <= fitted.t <= 1e2

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            fit_temperature(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0, 0]))


class TestTemperatureAsDirichlet:
    def test_t_one_is_identity(self):
        lin = temperature_as_dirichlet(1.0, 3)
        np.testing.assert_allclose(lin.W, np.eye(3))
        np.testing.assert_allclose(lin.b, np.zeros(3))

    def test_t_two_halves_weights(self):
        lin = temperature_as_dirichlet(TemperatureParams(2.0), 4)
        np.testing.assert_allclose(lin.W, 0.5 * np.eye(4))
        np.testing.assert_allclose(lin.b, np.zeros(4))

    def test_equivalence_on_random_inputs(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            z = rng.normal(size=(50, k)) * rng.uniform(0.5, 5.0)
            t = float(rng.uniform(0.05, 20.0))
            via_dirichlet = apply_linear(softmax(z, axis=1), temperature_as_dirichlet(t, k))
            np.testing.assert_allclose(via_dirichlet, apply_temperature(z, t), atol=1e-12)


class TestFitAffineLogit:
    def test_recovers_identity(self, rng):
        z = rng.normal(size=(4000, 3)) * 1.5
        probs = softmax(z, axis=1)
        y = sample_labels_from_rows(rng, probs)
        fitted = fit_affine_logit(z, y, mode="matrix", reg=OdirConfig(1e-7, 1e-7))
        z_held = rng.normal(size=(4000, 3)) * 1.5
        y_held = sample_labels_from_rows(rng, softmax(z_held, axis=1))
        ll_fit = log_loss(apply_affine_logit(z_held, fitted), y_held)
        ll_id = log_loss(softmax(z_held, axis=1), y_held)
        assert ll_fit <= ll_id * 1.01

    def test_vector_mode_diagonal_only(self, rng):
        z = rng.normal(size=(100, 4))
        y = rng.integers(0, 4, size=100)
        fitted = fit_affine_logit(z, y, mode="vector", reg=OdirConfig(0.0, 0.0))
        off = fitted.W - np.diag(np.diag(fitted.W))
        assert np.all(off == 0.0)

    def test_vector_beats_temperature_on_training_objective(self):
        fitted = fit_affine_logit(THREE_ROWS, THREE_LABELS, mode="vector", reg=OdirConfig(0.0, 0.0))
        t = fit_temperature(THREE_ROWS, THREE_LABELS)
        ll_vector = log_loss(apply_affine_logit(THREE_ROWS, fitted), THREE_LABELS)
        ll_temp = log_loss(apply_temperature(THREE_ROWS, t), THREE_LABELS)
        assert ll_vector <= ll_temp + 1e-9

    def test_matrix_large_lambda_matches_vector(self, rng):
        z = rng.normal(size=(300, 3)) * 2.0
        y = sample_labels_from_rows(rng, softmax(z * 0.6, axis=1))
        matrix = fit_affine_logit(z, y, mode="matrix", reg=OdirConfig(1e6, 1e-8))
        off = matrix.W - np.diag(np.diag(matrix.W))
        assert np.max(np.abs(off)) < 1e-3
        vector = fit_affine_logit(z, y, mode="vector", reg=OdirConfig(0.0, 1e-8))
        ll_matrix = log_loss(apply_affine_logit(z, matrix), y)
        ll_vector = log_loss(apply_affine_logit(z, vector), y)
        assert abs(ll_matrix - ll_vector) < 1e-3

    def test_family_nesting(self, rng):
        for seed in range(3):
            local = np.random.default_rng(seed)
            z = local.normal(size=(150, 3)) * 2.0
            y = sample_labels_from_rows(local, softmax(z * 0.7, axis=1))
            t = fit_temperature(z, y)
            vector = fit_affine_logit(z, y, mode="vector", reg=OdirConfig(0.0, 0.0), tol=1e-10)
            matrix = fit_affine_logit(z, y, mode="matrix", reg=OdirConfig(0.0, 0.0), tol=1e-10)
            ll_t = log_loss(apply_temperature(z, t), y)
            ll_v = log_loss(apply_affine_logit(z, vector), y)
            ll_m = log_loss(apply_affine_logit(z, matrix), y)
            assert ll_v <= ll_t + 1e-9
            assert ll_m <= ll_v + 1e-9

    def test_vector_gradient_matches_finite_differences(self, rng):
        from probcal.dirichlet import _value_grad

        z = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        onehot = np.zeros((40, 3))
        onehot[np.arange(40), y] = 1.0
        pen_w = np.zeros((3, 3))
        pen_b = np.full(3, 0.2 / 3)
        diagonal = np.eye(3, dtype=bool)
        theta = rng.normal(size=6)
        _, grad = _value_grad(theta, z, onehot, pen_w, pen_b, diagonal)
        fd = central_difference(lambda t: _value_grad(t, z, onehot, pen_w, pen_b, diagonal)[0], theta)
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-5

    def test_matrix_on_centred_logits_past_dense_newton_limit(self, rng):
        # Rows of centred logits sum to zero, so the features [z, 1] of each
        # class are collinear and every block of the Newton-CG
        # preconditioner is singular; the fit must still converge quickly.
        from probcal.optim import DENSE_NEWTON_MAX_DIM

        k = 20
        assert k * k + k > DENSE_NEWTON_MAX_DIM
        z = rng.normal(size=(1000, k)) * 1.5
        z -= z.mean(axis=1, keepdims=True)
        y = sample_labels_from_rows(rng, softmax(z, axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit_affine_logit(z, y, mode="matrix", reg=OdirConfig(0.0, 0.0), max_iter=25)
        assert np.max(np.abs(fitted.W)) < 5.0

    def test_vector_fit_converges_at_rounding_resolution(self):
        # Near this fit's optimum the full Newton step cuts the gradient to
        # ~1e-17 but raises the value by one unit in the last place; Armijo
        # alone rejects it and every backtrack, and the fit stalls above tol.
        local = np.random.default_rng(3)
        z = local.normal(size=(200, 3)) * 2.0
        y = sample_labels_from_rows(local, softmax(z * 0.6, axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit_affine_logit(z, y, mode="vector", reg=OdirConfig(0.0, 0.0), tol=1e-10)

    @pytest.mark.parametrize("mode, k, reg", [
        ("vector", 3, OdirConfig(0.0, 0.0)),
        ("vector", 15, OdirConfig(0.0, 0.0)),
        ("matrix", 3, OdirConfig(1e-2, 0.0)),
    ])
    def test_free_intercept_sums_to_zero(self, mode, k, reg):
        # Softmax ignores a constant shift of an unpenalised b; the fit
        # returns the representative with sum zero.
        local = np.random.default_rng(k)
        z = local.normal(size=(200 * k, k)) * 2.0
        y = sample_labels_from_rows(local, softmax(z * 0.6, axis=1))
        fitted = fit_affine_logit(z, y, mode=mode, reg=reg)
        assert abs(fitted.b.sum()) <= 1e-12

    def test_rejects_bad_mode(self, rng):
        z = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="mode"):
            fit_affine_logit(z, np.array([0, 1] * 5), mode="diagonal")

    def test_rejects_single_class(self, rng):
        z = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            fit_affine_logit(z, np.zeros(10, dtype=int))


class TestZeroOffdiagonal:
    def test_diagonal_unchanged(self):
        params = AffineLogitParams(W=np.diag([1.0, 2.0]), b=np.array([0.1, -0.2]))
        zeroed = zero_offdiagonal(params)
        np.testing.assert_array_equal(zeroed.W, params.W)
        np.testing.assert_array_equal(zeroed.b, params.b)

    def test_definition(self):
        params = AffineLogitParams(W=np.array([[1.0, 2.0], [3.0, 4.0]]), b=np.zeros(2))
        np.testing.assert_array_equal(zero_offdiagonal(params).W, [[1.0, 0.0], [0.0, 4.0]])

    def test_huge_lambda_fit_barely_changes(self, rng):
        z = rng.normal(size=(400, 3)) * 2.0
        y = sample_labels_from_rows(rng, softmax(z * 0.5, axis=1))
        fitted = fit_affine_logit(z, y, mode="matrix", reg=OdirConfig(1e6, 1e-6))
        ll = log_loss(apply_affine_logit(z, fitted), y)
        ll_zeroed = log_loss(apply_affine_logit(z, zero_offdiagonal(fitted)), y)
        assert abs(ll_zeroed - ll) < 1e-4
