import math
import warnings

import numpy as np
import pytest

from probcal.core import clip_probabilities, softmax
from probcal.dirichlet import (
    CanonicalParams,
    GenerativeParams,
    L2Config,
    LinearParams,
    OdirConfig,
    apply_canonical,
    apply_generative,
    apply_linear,
    fit,
    from_generative,
    interpretation_points,
    objective_and_gradient,
    to_canonical,
    to_generative,
)
from probcal.metrics import log_loss

from conftest import random_simplex
from oracles import central_difference, sample_labels_from_rows


def random_linear(rng, k, scale=1.0):
    return LinearParams(W=rng.normal(scale=scale, size=(k, k)), b=rng.normal(scale=scale, size=k))


class TestApplyLinear:
    def test_identity_map(self, rng):
        q = random_simplex(rng, 20, 3)
        params = LinearParams(W=np.eye(3), b=np.zeros(3))
        np.testing.assert_allclose(apply_linear(q, params), q, atol=1e-12)

    def test_symmetric_point_fixed_by_doubling(self):
        params = LinearParams(W=2.0 * np.eye(2), b=np.zeros(2))
        np.testing.assert_allclose(apply_linear(np.array([0.5, 0.5]), params), [0.5, 0.5], atol=1e-15)

    def test_doubling_squares_the_odds(self):
        # softmax(2 ln 0.2, 2 ln 0.8) = (0.04, 0.64) / 0.68
        params = LinearParams(W=2.0 * np.eye(2), b=np.zeros(2))
        out = apply_linear(np.array([0.2, 0.8]), params)
        np.testing.assert_allclose(out, [0.04 / 0.68, 0.64 / 0.68], atol=1e-12)
        np.testing.assert_allclose(out, [0.0588, 0.9412], atol=1e-4)

    def test_zero_entry_rejected(self):
        params = LinearParams(W=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            apply_linear(np.array([0.0, 1.0]), params)


class TestApplyCanonical:
    def test_centre_maps_to_c(self, rng):
        for k in (2, 3, 5):
            A = rng.uniform(0.0, 2.0, size=(k, k))
            A -= A.min(axis=0, keepdims=True)
            c = rng.dirichlet(np.ones(k))
            params = CanonicalParams(A=A, c=c)
            centre = np.full(k, 1.0 / k)
            np.testing.assert_allclose(apply_canonical(centre, params), c, atol=1e-12)

    def test_identity(self):
        params = CanonicalParams(A=np.eye(2), c=np.array([0.5, 0.5]))
        np.testing.assert_allclose(apply_canonical(np.array([0.2, 0.8]), params), [0.2, 0.8], atol=1e-12)

    def test_centre_to_custom_c(self):
        params = CanonicalParams(A=np.eye(2), c=np.array([0.75, 0.25]))
        out = apply_canonical(np.array([0.5, 0.5]), params)
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_agrees_with_linear_after_conversion(self, rng):
        lin = random_linear(rng, 4)
        can = to_canonical(lin)
        q = random_simplex(rng, 50, 4)
        np.testing.assert_allclose(apply_canonical(q, can), apply_linear(q, lin), atol=1e-12)

    def test_zero_c_rejected(self):
        params = CanonicalParams.__new__(CanonicalParams)
        object.__setattr__(params, "A", np.eye(2))
        object.__setattr__(params, "c", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            apply_canonical(np.array([0.5, 0.5]), params)


class TestApplyGenerative:
    def test_uniform_alpha_cancels(self, rng):
        params = GenerativeParams(alpha=np.ones((3, 3)), pi=np.full(3, 1.0 / 3.0))
        q = random_simplex(rng, 10, 3)
        np.testing.assert_allclose(apply_generative(q, params), np.full((10, 3), 1.0 / 3.0), atol=1e-12)

    def test_uniform_alpha_leaves_priors(self, rng):
        params = GenerativeParams(alpha=np.ones((2, 2)), pi=np.array([0.9, 0.1]))
        q = random_simplex(rng, 10, 2)
        np.testing.assert_allclose(apply_generative(q, params), np.tile([0.9, 0.1], (10, 1)), atol=1e-12)

    def test_equivalent_to_linear(self, rng):
        for _ in range(5):
            k = int(rng.integers(2, 5))
            alpha = rng.uniform(0.2, 5.0, size=(k, k))
            pi = rng.dirichlet(np.ones(k))
            gen = GenerativeParams(alpha=alpha, pi=pi)
            q = random_simplex(rng, 100, k)
            np.testing.assert_allclose(
                apply_generative(q, gen), apply_linear(q, from_generative(gen)), atol=1e-9
            )


class TestConversions:
    def test_from_generative_flat(self):
        gen = GenerativeParams(alpha=np.ones((2, 2)), pi=np.array([0.5, 0.5]))
        lin = from_generative(gen)
        np.testing.assert_allclose(lin.W, np.zeros((2, 2)), atol=1e-15)
        # B(1,1) = 1, so b_i = ln 0.5.
        np.testing.assert_allclose(lin.b, [math.log(0.5)] * 2, atol=1e-15)

    def test_from_generative_identity_like(self):
        gen = GenerativeParams(alpha=np.array([[2.0, 1.0], [1.0, 2.0]]), pi=np.array([0.5, 0.5]))
        lin = from_generative(gen)
        np.testing.assert_allclose(lin.W, np.eye(2), atol=1e-15)
        # B(2,1) = 1/2, so b_i = ln 0.5 - ln 0.5 = 0.
        np.testing.assert_allclose(lin.b, [0.0, 0.0], atol=1e-12)

    def test_from_generative_rejects_zero_prior(self):
        gen = GenerativeParams(alpha=np.ones((2, 2)), pi=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            from_generative(gen)

    def test_log_beta_closed_forms(self):
        from probcal.dirichlet import _log_beta

        def log_factorial(n):
            return math.fsum(math.log(j) for j in range(2, n + 1))

        alpha = np.array([[2.0, 3.0], [0.5, 0.5], [1e4, 1e4], [1e4, 2e4 + 7.0]])
        expected = [-math.log(12.0), math.log(math.pi)]
        for a, b in alpha[2:].astype(int):
            # B(a, b) = (a-1)! (b-1)! / (a+b-1)! for positive integers.
            expected.append(
                log_factorial(a - 1) + log_factorial(b - 1) - log_factorial(a + b - 1)
            )
        np.testing.assert_allclose(_log_beta(alpha), expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(_log_beta(alpha[0]), expected[0], rtol=0, atol=1e-9)

    def test_to_canonical_identity(self):
        can = to_canonical(LinearParams(W=np.eye(3), b=np.zeros(3)))
        np.testing.assert_allclose(can.A, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(can.c, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_to_canonical_column_minima(self):
        can = to_canonical(LinearParams(W=np.array([[2.0, 1.0], [1.0, 2.0]]), b=np.zeros(2)))
        np.testing.assert_allclose(can.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(can.c, [0.5, 0.5], atol=1e-12)

    def test_to_canonical_intercept_only(self):
        can = to_canonical(LinearParams(W=np.zeros((2, 2)), b=np.array([1.0, 0.0])))
        np.testing.assert_allclose(can.A, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(can.c, softmax(np.array([1.0, 0.0])), atol=1e-12)
        np.testing.assert_allclose(can.c, [0.7311, 0.2689], atol=1e-4)

    def test_to_generative_identity(self):
        gen = to_generative(CanonicalParams(A=np.eye(2), c=np.array([0.5, 0.5])))
        np.testing.assert_allclose(gen.alpha, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(gen.pi, [0.5, 0.5], atol=1e-12)

    def test_to_generative_intercept_only(self):
        c = softmax(np.array([1.0, 0.0]))
        gen = to_generative(CanonicalParams(A=np.zeros((2, 2)), c=c))
        np.testing.assert_allclose(gen.alpha, np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(gen.pi, c, atol=1e-12)

    def test_canonical_roundtrip_unique(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 6))
            lin = random_linear(rng, k)
            can = to_canonical(lin)
            again = to_canonical(from_generative(to_generative(can)))
            np.testing.assert_allclose(again.A, can.A, atol=1e-9)
            np.testing.assert_allclose(again.c, can.c, atol=1e-9)

    def test_generative_roundtrip_same_map(self, rng):
        for _ in range(5):
            k = int(rng.integers(2, 5))
            gen = GenerativeParams(
                alpha=rng.uniform(0.3, 4.0, size=(k, k)), pi=rng.dirichlet(np.ones(k))
            )
            gen2 = to_generative(to_canonical(from_generative(gen)))
            q = random_simplex(rng, 100, k)
            np.testing.assert_allclose(apply_generative(q, gen2), apply_generative(q, gen), atol=1e-9)


class TestMapInvariances:
    def test_column_shift_leaves_map_unchanged(self, rng):
        lin = random_linear(rng, 3)
        W2 = lin.W.copy()
        W2[:, 1] += 2.5  # same constant added to one column
        q = random_simplex(rng, 40, 3)
        np.testing.assert_allclose(
            apply_linear(q, LinearParams(W=W2, b=lin.b)), apply_linear(q, lin), atol=1e-12
        )

    def test_intercept_shift_leaves_map_unchanged(self, rng):
        lin = random_linear(rng, 3)
        shifted = LinearParams(W=lin.W, b=lin.b + 4.2)
        q = random_simplex(rng, 40, 3)
        np.testing.assert_allclose(apply_linear(q, shifted), apply_linear(q, lin), atol=1e-12)

    def test_canonical_form_absorbs_shifts(self, rng):
        lin = random_linear(rng, 4)
        W2 = lin.W.copy()
        for j in range(4):
            W2[:, j] += j - 1.5
        shifted = LinearParams(W=W2, b=lin.b + 3.3)
        base = to_canonical(lin)
        other = to_canonical(shifted)
        np.testing.assert_allclose(other.A, base.A, atol=1e-9)
        np.testing.assert_allclose(other.c, base.c, atol=1e-9)


class TestFit:
    def test_objective_value_single_instance(self):
        params = LinearParams(W=np.eye(2), b=np.zeros(2))
        value, _ = objective_and_gradient(
            params, np.array([[0.5, 0.5]]), np.array([0]), OdirConfig(0.0, 0.0)
        )
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for reg in (L2Config(0.05), OdirConfig(0.3, 0.2), L2Config(0.0)):
            k = 3
            q = random_simplex(rng, 40, k)
            y = rng.integers(0, k, size=40)
            params = random_linear(rng, k, scale=0.5)
            value, grad = objective_and_gradient(params, q, y, reg)

            def value_only(theta):
                p = LinearParams(W=theta[: k * k].reshape(k, k), b=theta[k * k :])
                return objective_and_gradient(p, q, y, reg)[0]

            theta0 = np.concatenate([params.W.ravel(), params.b])
            fd = central_difference(value_only, theta0)
            assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-5

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)], ids=["l2", "odir"])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_hessian_matches_finite_differences(self, rng, reg, diagonal):
        from probcal.dirichlet import _hessian, _penalty_matrices, _value_grad

        k = 3
        feats = rng.normal(size=(40, k))
        onehot = np.eye(k)[rng.integers(0, k, size=40)]
        pen_w, pen_b = _penalty_matrices(reg, k)
        free = np.eye(k, dtype=bool) if diagonal else np.ones((k, k), dtype=bool)
        theta = rng.normal(scale=0.5, size=np.count_nonzero(free) + k)
        H = _hessian(theta, feats, pen_w, pen_b, free)
        fd = np.column_stack([
            central_difference(lambda t, i=i: _value_grad(t, feats, onehot, pen_w, pen_b, free)[1][i], theta)
            for i in range(theta.size)
        ])
        assert np.max(np.abs(fd - H)) / max(1.0, np.max(np.abs(H))) < 1e-5

    @staticmethod
    def _dense_and_operator(rng, reg, diagonal, k=4, n=50):
        from probcal.dirichlet import _hessian, _HessianOperator, _penalty_matrices

        feats = rng.normal(size=(n, k))
        pen_w, pen_b = _penalty_matrices(reg, k)
        free = np.eye(k, dtype=bool) if diagonal else np.ones((k, k), dtype=bool)
        theta = rng.normal(scale=0.5, size=np.count_nonzero(free) + k)
        args = (theta, feats, pen_w, pen_b, free)
        return _hessian(*args), _HessianOperator(*args)

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)], ids=["l2", "odir"])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_hessian_operator_matches_dense(self, rng, reg, diagonal):
        H, op = self._dense_and_operator(rng, reg, diagonal)
        for _ in range(5):
            v = rng.normal(size=H.shape[0])
            want = H @ v
            assert np.max(np.abs(op.matvec(v) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)], ids=["l2", "odir"])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_preconditioner_blocks_are_dense_class_blocks(self, rng, reg, diagonal):
        H, op = self._dense_and_operator(rng, reg, diagonal)
        k = op.blocks.shape[0]
        # Every parameter sits in exactly one class block.
        assert np.array_equal(np.sort(op.index.ravel()), np.arange(H.shape[0]))
        r = rng.normal(size=H.shape[0])
        z = op.precondition(r)
        for a in range(k):
            block = H[np.ix_(op.index[a], op.index[a])]
            assert np.max(np.abs(op.blocks[a] - block)) <= 1e-12 * np.max(np.abs(block))
            # precondition() solves with the block plus a 1e-10 relative ridge.
            np.testing.assert_allclose(z[op.index[a]], np.linalg.solve(block, r[op.index[a]]),
                                       rtol=1e-6)

    def test_fit_past_dense_newton_limit_converges(self, rng):
        # k = 50 has 2550 parameters, where gradient steps once stalled near
        # a gradient norm of 1e-2; Newton-CG must reach tol without warning.
        from probcal.optim import DENSE_NEWTON_MAX_DIM

        k = 50
        assert k * k + k > DENSE_NEWTON_MAX_DIM
        q = random_simplex(rng, 1000, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_newton_cg_reuses_preconditioner_across_steps(self, rng, monkeypatch):
        # The k = 50 data of the test above. Each Newton step makes one
        # operator; it builds its blocks only when the last CG solve ran long.
        from probcal import dirichlet

        k = 50
        q = random_simplex(rng, 1000, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        steps, builds = [], []

        class CountingOperator(dirichlet._HessianOperator):
            def __init__(self, *args):
                steps.append(1)
                super().__init__(*args)

            def _build(self):
                builds.append(1)
                super()._build()

        class RebuildingOperator(dirichlet._HessianOperator):
            def __init__(self, theta, feats, pen_w, pen_b, free, previous=None):
                super().__init__(theta, feats, pen_w, pen_b, free)

        monkeypatch.setattr(dirichlet, "_HessianOperator", CountingOperator)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        assert 0 < len(builds) < len(steps)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

        monkeypatch.setattr(dirichlet, "_HessianOperator", RebuildingOperator)
        rebuilt = fit(q, y, reg, tol=1e-8)
        assert np.max(np.abs(apply_linear(q, fitted) - apply_linear(q, rebuilt))) <= 1e-6

    def test_fit_at_k16_takes_newton_cg_and_converges(self, rng, monkeypatch):
        # k = 16 (272 parameters) is the first full-W size past the dense limit.
        from probcal import dirichlet
        from probcal.optim import DENSE_NEWTON_MAX_DIM

        k = 16
        assert k * k + k > DENSE_NEWTON_MAX_DIM >= (k - 1) ** 2 + (k - 1)
        built = []

        class CountingOperator(dirichlet._HessianOperator):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(dirichlet, "_HessianOperator", CountingOperator)
        q = random_simplex(rng, 1500, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        assert built
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_gradient_zero_at_optimum(self, rng):
        q = random_simplex(rng, 200, 3)
        y = sample_labels_from_rows(rng, q)
        reg = L2Config(1e-4)
        fitted = fit(q, y, reg)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_symmetric_dataset_gradient_b_zero(self):
        # Two mirror-image instances with mirror labels: the intercept
        # gradient cancels at the identity start.
        q = np.array([[0.3, 0.7], [0.7, 0.3]])
        y = np.array([1, 0])
        params = LinearParams(W=np.eye(2), b=np.zeros(2))
        _, grad = objective_and_gradient(params, q, y, OdirConfig(0.0, 0.0))
        np.testing.assert_allclose(grad[4:], [0.0, 0.0], atol=1e-15)

    def test_recovers_identity_map(self, rng):
        q = random_simplex(rng, 4000, 3, concentration=2.0)
        y = sample_labels_from_rows(rng, q)
        fitted = fit(q, y, L2Config(1e-7))
        q_held = random_simplex(rng, 4000, 3, concentration=2.0)
        y_held = sample_labels_from_rows(rng, q_held)
        ll_fit = log_loss(apply_linear(clip_probabilities(q_held), fitted), y_held)
        ll_id = log_loss(q_held, y_held)
        assert ll_fit <= ll_id * 1.01

    def test_odir_large_lambda_kills_offdiagonal(self, rng):
        q = random_simplex(rng, 300, 3)
        y = sample_labels_from_rows(rng, q)
        fitted = fit(q, y, OdirConfig(1e6, 1e6))
        off = fitted.W - np.diag(np.diag(fitted.W))
        assert np.max(np.abs(off)) < 1e-3

    def test_odir_limit_with_free_intercept(self, rng):
        # lambda -> infinity with mu = 0: the map becomes diagonal-plus-b.
        q = random_simplex(rng, 300, 3)
        y = sample_labels_from_rows(rng, q)
        fitted = fit(q, y, OdirConfig(1e8, 0.0))
        off = fitted.W - np.diag(np.diag(fitted.W))
        assert np.max(np.abs(off)) < 1e-3

    @pytest.mark.parametrize("reg", [OdirConfig(1e-2, 0.0), L2Config(1e-2, include_intercept=False)])
    def test_free_intercept_sums_to_zero(self, rng, reg):
        q = random_simplex(rng, 600, 4)
        y = sample_labels_from_rows(rng, q)
        fitted = fit(q, y, reg)
        assert abs(fitted.b.sum()) <= 1e-12

    def test_l2_intercept_exclusion_flag(self, rng):
        # Imbalanced labels: with a huge penalty on everything the map is
        # pushed to uniform; excluding the intercept leaves b free to
        # express the base rates.
        q = random_simplex(rng, 400, 2)
        y = (rng.random(400) < 0.85).astype(int)
        everything = fit(q, y, L2Config(1e8))
        assert np.max(np.abs(everything.b)) < 1e-3
        free_b = fit(q, y, L2Config(1e8, include_intercept=False))
        assert np.max(np.abs(free_b.W)) < 1e-3
        spread = free_b.b - free_b.b.mean()
        assert np.max(np.abs(spread)) > 0.1

    def test_rejects_single_class(self, rng):
        q = random_simplex(rng, 10, 2)
        with pytest.raises(ValueError, match="single class"):
            fit(q, np.zeros(10, dtype=int), L2Config(1e-3))

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError, match="at least"):
            fit(np.array([[0.2, 0.3, 0.5]]), np.array([0]), L2Config(1e-3))


class TestInterpretationPoints:
    def test_centre_is_last_and_exact(self, rng):
        A = rng.uniform(0.0, 2.0, size=(3, 3))
        A -= A.min(axis=0, keepdims=True)
        c = rng.dirichlet(np.ones(3))
        params = CanonicalParams(A=A, c=c)
        pairs = interpretation_points(params, 1e-6)
        assert len(pairs) == 4
        point, image = pairs[-1]
        np.testing.assert_allclose(point, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(image, c, atol=1e-12)

    def test_identity_map_fixes_facet_points(self):
        params = CanonicalParams(A=np.eye(3), c=np.full(3, 1.0 / 3.0))
        for point, image in interpretation_points(params, 1e-4):
            np.testing.assert_allclose(image, point, atol=1e-12)

    def test_two_class_limit_example(self):
        params = CanonicalParams(A=np.array([[2.0, 0.0], [0.0, 1.0]]), c=np.array([0.5, 0.5]))
        pairs = interpretation_points(params, 1e-6)
        point, image = pairs[0]
        np.testing.assert_allclose(point, [1e-6, 1.0 - 1e-6])
        # Exact image: (2 eps^2, 1 - eps) / (2 eps^2 + 1 - eps).
        eps = 1e-6
        exact = np.array([2 * eps**2, 1 - eps]) / (2 * eps**2 + 1 - eps)
        np.testing.assert_allclose(image, exact, atol=1e-15)
        np.testing.assert_allclose(image, [1e-6, 1.0], atol=1e-5)

    def test_limit_formula_agreement(self, rng):
        # Small-epsilon image of facet point j approaches column j of A
        # through (eps^a_1j, ..., eps^a_kj) / z_j.
        k = 3
        A = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [2.0, 1.0, 0.0]], dtype=float)
        c = rng.dirichlet(np.ones(k))
        params = CanonicalParams(A=A, c=c)
        eps = 1e-8
        for j, (point, image) in enumerate(interpretation_points(params, eps)[:-1]):
            raw = eps ** A[:, j]
            np.testing.assert_allclose(image, raw / raw.sum(), atol=1e-4)

    def test_epsilon_bounds(self):
        params = CanonicalParams(A=np.eye(2), c=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            interpretation_points(params, 0.0)
        with pytest.raises(ValueError):
            interpretation_points(params, 0.6)


class TestParamValidation:
    def test_canonical_requires_zero_per_column(self):
        with pytest.raises(ValueError, match="zero"):
            CanonicalParams(A=np.array([[1.0, 0.0], [0.5, 1.0]]), c=np.array([0.5, 0.5]))

    def test_canonical_requires_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CanonicalParams(A=np.array([[-0.5, 0.0], [0.0, 0.0]]), c=np.array([0.5, 0.5]))

    def test_generative_requires_positive_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            GenerativeParams(alpha=np.array([[1.0, 0.0], [1.0, 1.0]]), pi=np.array([0.5, 0.5]))

    def test_rejects_k_one(self):
        with pytest.raises(ValueError):
            LinearParams(W=np.array([[1.0]]), b=np.array([0.0]))
