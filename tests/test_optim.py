import numpy as np
import pytest

from probcal.optim import DENSE_NEWTON_MAX_DIM, OptimizationError, minimize, minimize_scalar


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
        d = DENSE_NEWTON_MAX_DIM + 50
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


class TestMinimizeScalar:
    def test_parabola(self):
        assert minimize_scalar(lambda t: (t - 3.0) ** 2, 0.0, 10.0, tol=1e-8) == pytest.approx(3.0, abs=1e-6)

    def test_temperature_style_loss(self):
        # Mean log-loss of a 3-instance problem whose stationary point is
        # sigmoid(2/t) = 2/3, i.e. t = 2 / ln 2.
        def loss(t):
            s = 1.0 / (1.0 + np.exp(-2.0 / t))
            return (-2.0 * np.log(s) - np.log(1.0 - s)) / 3.0

        assert minimize_scalar(loss, 0.1, 20.0, tol=1e-10) == pytest.approx(2.0 / np.log(2.0), abs=1e-3)

    def test_boundary_minimum(self):
        assert minimize_scalar(lambda t: t, 1.0, 2.0, tol=1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t, 2.0, 1.0)
