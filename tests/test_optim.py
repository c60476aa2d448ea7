import numpy as np
import pytest

from probcal.optim import OptimizationError, _cg_direction, minimize


def quadratic_1d(x):
    return float(x[0] ** 2), np.array([2.0 * x[0]])


def separable(x):
    value = (x[0] - 1.0) ** 2 + 10.0 * (x[1] + 2.0) ** 2
    grad = np.array([2.0 * (x[0] - 1.0), 20.0 * (x[1] + 2.0)])
    return value, grad


def cosh_like(x):
    return float(np.exp(x[0]) + np.exp(-x[0])), np.array([np.exp(x[0]) - np.exp(-x[0])])


class TestMinimize:
    def test_quadratic_minimum(self):
        res = minimize(quadratic_1d, [5.0], tol=1e-8)
        assert res.converged
        assert abs(res.params[0]) < 1e-6

    def test_separable_quadratic(self):
        res = minimize(separable, [0.0, 0.0])
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)

    def test_separable_quadratic_newton(self):
        res = minimize(separable, [0.0, 0.0], hess=lambda x: np.diag([2.0, 20.0]))
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-10)
        assert res.iterations <= 2

    def test_cosh_minimum(self):
        res = minimize(cosh_like, [3.0], hess=lambda x: np.array([[np.exp(x[0]) + np.exp(-x[0])]]))
        assert abs(res.params[0]) < 1e-6

    def test_cosh_gradient_only(self):
        res = minimize(cosh_like, [3.0], max_iter=2000)
        assert abs(res.params[0]) < 1e-6

    def test_newton_two_iterations_on_random_quadratics(self, rng):
        for _ in range(10):
            d = rng.integers(2, 6)
            root = rng.normal(size=(d, d))
            H = root @ root.T + np.eye(d)
            target = rng.normal(size=d)

            def fun(x):
                diff = x - target
                return 0.5 * float(diff @ H @ diff), H @ diff

            res = minimize(fun, rng.normal(size=d), hess=lambda x: H)
            assert res.converged
            assert res.iterations <= 2
            np.testing.assert_allclose(res.params, target, atol=1e-6)

    def test_newton_singular_psd_hessian_takes_min_norm_step(self):
        # f = 2 (x0 + x1 - 1)^2 + 10 (x2 - 2)^2 has a singular PSD Hessian
        # whose LU meets an exact zero pivot, so the step is the
        # minimum-norm least-squares solution; gradient steps need many more
        # iterations.
        def fun(x):
            s = x[0] + x[1] - 1.0
            value = 2.0 * s ** 2 + 10.0 * (x[2] - 2.0) ** 2
            return value, np.array([4.0 * s, 4.0 * s, 20.0 * (x[2] - 2.0)])

        H = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 20.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(H)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, np.ones(3))
        res = minimize(fun, [0.3, -2.0, 0.0], hess=lambda x: H)
        assert res.converged
        assert res.iterations <= 2
        # The minimum-norm step has no component along the null vector (1, -1, 0).
        assert res.params[0] - res.params[1] == pytest.approx(2.3, abs=1e-12)
        assert abs(res.params[0] + res.params[1] - 1.0) < 1e-8
        assert abs(res.params[2] - 2.0) < 1e-8
        assert minimize(fun, [0.3, -2.0, 0.0]).iterations > 2

    def test_newton_negative_definite_hessian_falls_back_to_gradient(self):
        # The Newton step of a negative-definite H ascends, so every step is
        # the negative gradient and the run repeats the gradient-only run
        # exactly.
        res = minimize(separable, [0.0, 0.0], hess=lambda x: -np.diag([2.0, 20.0]))
        plain = minimize(separable, [0.0, 0.0])
        assert res.converged
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)
        np.testing.assert_array_equal(res.params, plain.params)
        assert res.iterations == plain.iterations > 2

    def test_newton_cg_on_random_quadratic_above_crossover(self, rng):
        d = 290
        root = rng.normal(size=(d, d))
        H = root @ root.T / d + np.diag(rng.uniform(0.5, 5.0, size=d))
        target = rng.normal(size=d)

        def fun(x):
            diff = x - target
            return 0.5 * float(diff @ H @ diff), H @ diff

        products = []

        class Operator:
            def matvec(self, v):
                products.append(1)
                return H @ v

            def precondition(self, r):
                return r / np.diag(H)

        res = minimize(fun, np.zeros(d), hess=lambda x: Operator(), tol=1e-8)
        assert res.converged
        assert res.gradient_norm <= 1e-8
        np.testing.assert_allclose(res.params, target, atol=1e-6)
        # Newton-CG, not gradient steps: few outer steps, few products each.
        assert res.iterations <= 20
        assert len(products) < 20 * d

    def test_newton_cg_negative_curvature_falls_back_to_gradient(self):
        # An operator reporting negative curvature gives no Newton step; the
        # descent still converges through negative-gradient steps.
        class Wrong:
            def matvec(self, v):
                return -v

            def precondition(self, r):
                return r

        res = minimize(separable, [0.0, 0.0], hess=lambda x: Wrong(), max_iter=2000)
        assert res.converged
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)

    def test_cg_solve_stops_once_residual_within_half_tol(self):
        # ||g||_2 = 1e-2, so the forcing term alone asks CG for a residual of
        # eta ||g|| = 1e-3; with tol = 1e-2 the solve stops at 0.5 tol = 5e-3,
        # which already puts the model gradient g + H d within tol.
        d = 60
        H = np.diag(np.logspace(0.0, 3.0, d))
        grad = np.full(d, 1e-2 / np.sqrt(d))
        tol = 1e-2

        class Counting:
            products = 0

            def matvec(self, v):
                self.products += 1
                return H @ v

            def precondition(self, r):
                return r

        # Plain CG on the same system: the residual 2-norm after each product.
        residuals = []
        r = -grad
        p = r
        for _ in range(d):
            hp = H @ p
            alpha = float(r @ r) / float(p @ hp)
            r_new = r - alpha * hp
            residuals.append(float(np.linalg.norm(r_new)))
            p = r_new + (float(r_new @ r_new) / float(r @ r)) * p
            r = r_new
        expected = next(j for j, norm in enumerate(residuals) if norm <= 0.5 * tol) + 1

        capped = Counting()
        step = _cg_direction(capped, grad, tol)
        assert capped.products == expected
        assert np.linalg.norm(grad + H @ step) <= 0.5 * tol
        uncapped = Counting()
        _cg_direction(uncapped, grad, 1e-300)
        assert uncapped.products > capped.products

    def test_objective_non_increasing(self):
        values = []

        def tracked(x):
            v, g = separable(x)
            return v, g

        res = minimize(tracked, [8.0, 8.0])
        # Re-walk the iterates is not exposed; check final <= initial and converged.
        assert res.final_value <= separable(np.array([8.0, 8.0]))[0]
        assert res.converged

    def test_deterministic(self):
        r1 = minimize(separable, [0.3, 0.7], hess=lambda x: np.diag([2.0, 20.0]))
        r2 = minimize(separable, [0.3, 0.7], hess=lambda x: np.diag([2.0, 20.0]))
        assert np.array_equal(r1.params, r2.params)
        assert r1.final_value == r2.final_value
        assert r1.iterations == r2.iterations

    def test_converged_implies_gradient_below_tol(self):
        res = minimize(separable, [0.0, 0.0], tol=1e-8)
        assert res.converged
        assert res.gradient_norm <= 1e-8

    def test_non_finite_objective_raises(self):
        def bad(x):
            return float("nan"), np.array([1.0])

        with pytest.raises(OptimizationError):
            minimize(bad, [1.0])

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            minimize(quadratic_1d, [1.0], tol=0.0)

