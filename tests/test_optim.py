import numpy as np
import pytest

from probcal.optim import OptimizationError, _steihaug, minimize


def quadratic_1d(x):
    return float(x[0] ** 2), np.array([2.0 * x[0]])


def separable(x):
    value = (x[0] - 1.0) ** 2 + 10.0 * (x[1] + 2.0) ** 2
    grad = np.array([2.0 * (x[0] - 1.0), 20.0 * (x[1] + 2.0)])
    return value, grad


def cosh_like(x):
    return float(np.exp(x[0]) + np.exp(-x[0])), np.array([np.exp(x[0]) - np.exp(-x[0])])


class Dense:
    """A dense Hessian H as the operator of ``minimize``; ``inverse`` is the
    preconditioner M^-1, and M = I without it."""

    def __init__(self, H, inverse=None):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.inverse = inverse

    def matvec(self, v):
        return self.H @ v

    def precondition(self, r):
        return r if self.inverse is None else self.inverse @ r


QUADRATIC_1D = Dense([[2.0]])
SEPARABLE = Dense(np.diag([2.0, 20.0]))


class TestMinimize:
    def test_quadratic_minimum(self):
        res = minimize(quadratic_1d, [5.0], hess=lambda x: QUADRATIC_1D, tol=1e-8)
        assert res.converged
        assert abs(res.params[0]) < 1e-6

    def test_separable_quadratic(self):
        res = minimize(separable, [0.0, 0.0], hess=lambda x: SEPARABLE)
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)

    def test_separable_quadratic_newton(self):
        # With M = H the first CG direction is the Newton step.
        exact = Dense(np.diag([2.0, 20.0]), np.diag([0.5, 0.05]))
        res = minimize(separable, [0.0, 0.0], hess=lambda x: exact)
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-10)
        assert res.iterations <= 2

    def test_cosh_minimum(self):
        res = minimize(cosh_like, [3.0], hess=lambda x: Dense([[np.exp(x[0]) + np.exp(-x[0])]]))
        assert abs(res.params[0]) < 1e-6

    def test_cosh_gradient_only(self):
        # H = I as the model: every step is the negative gradient, cut to the
        # trust region.
        res = minimize(cosh_like, [3.0], hess=lambda x: Dense([[1.0]]), max_iter=2000)
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

            exact = Dense(H, np.linalg.inv(H))
            res = minimize(fun, rng.normal(size=d), hess=lambda x: exact)
            assert res.converged
            assert res.iterations <= 2
            np.testing.assert_allclose(res.params, target, atol=1e-6)

    def test_newton_singular_psd_hessian_takes_min_norm_step(self):
        # f = 2 (x0 + x1 - 1)^2 + 10 (x2 - 2)^2 has a singular PSD Hessian.
        # The gradient lies in its range, and with M = I so do the CG
        # directions: the steps have no component along the null space.
        def fun(x):
            s = x[0] + x[1] - 1.0
            value = 2.0 * s ** 2 + 10.0 * (x[2] - 2.0) ** 2
            return value, np.array([4.0 * s, 4.0 * s, 20.0 * (x[2] - 2.0)])

        H = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 20.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(H)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, np.ones(3))
        res = minimize(fun, [0.3, -2.0, 0.0], hess=lambda x: Dense(H))
        assert res.converged
        # The minimum-norm step has no component along the null vector (1, -1, 0).
        assert res.params[0] - res.params[1] == pytest.approx(2.3, abs=1e-12)
        assert abs(res.params[0] + res.params[1] - 1.0) < 1e-8
        assert abs(res.params[2] - 2.0) < 1e-8

    def test_newton_negative_definite_hessian_falls_back_to_gradient(self):
        # A negative-definite H has no Newton step. The Steihaug solve then
        # follows its first direction, -M^-1 g (the negative gradient when
        # M = I), to the trust region's boundary in the norm of M, and the fit
        # still converges.
        wrong = -np.diag([2.0, 20.0])
        grad = separable(np.zeros(2))[1]
        for M in (np.eye(2), np.diag([4.0, 1.0])):
            op = Dense(wrong, np.linalg.inv(M))
            step, length, predicted, boundary = _steihaug(op, grad, 3.0, 1e-8)
            assert boundary
            assert length == pytest.approx(3.0, rel=1e-12)
            assert np.sqrt(step @ M @ step) == pytest.approx(3.0, rel=1e-12)
            direction = -np.linalg.solve(M, grad)
            np.testing.assert_allclose(step / np.linalg.norm(step),
                                       direction / np.linalg.norm(direction), rtol=1e-12)
            assert predicted == pytest.approx(-(grad @ step + 0.5 * step @ wrong @ step), rel=1e-12)

        res = minimize(separable, [0.0, 0.0], hess=lambda x: Dense(wrong), max_iter=2000)
        assert res.converged
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)

    def test_newton_cg_negative_curvature_falls_back_to_gradient(self):
        # An operator reporting negative curvature gives no Newton step; each
        # step is the negative gradient cut to the trust region, and the
        # descent still converges.
        class Wrong:
            def matvec(self, v):
                return -v

            def precondition(self, r):
                return r

        grad = separable(np.zeros(2))[1]
        step, length, _, boundary = _steihaug(Wrong(), grad, 0.5, 1e-8)
        assert boundary
        np.testing.assert_allclose(step, -0.5 * grad / np.linalg.norm(grad), rtol=1e-12)
        assert length == pytest.approx(0.5, rel=1e-12)

        res = minimize(separable, [0.0, 0.0], hess=lambda x: Wrong(), max_iter=2000)
        assert res.converged
        np.testing.assert_allclose(res.params, [1.0, -2.0], atol=1e-6)

    def test_overflowing_first_step_is_rejected_and_shrinks_radius(self):
        # The log-loss of two rows with logits +-m x, taken without shifting
        # by the largest logit, as on confident logits: the curvature at
        # x = 1 is about 1e-82, so the first step runs to the trust region's
        # boundary, where exp overflows. That step is rejected, the next is a
        # quarter as long, and the fit converges to x = 0.
        m = 200.0
        points, values = [], []

        def confident(x):
            with np.errstate(over="ignore"):
                value = np.log1p(np.exp(m * x[0])) + np.log1p(np.exp(-m * x[0]))
            points.append(x[0])
            values.append(value)
            return float(value), np.array([m * np.tanh(0.5 * m * x[0])])

        def curvature(x):
            return Dense([[0.5 * m * m / np.cosh(0.5 * m * x[0]) ** 2]])

        res = minimize(confident, [1.0], hess=curvature)
        assert res.converged
        assert abs(res.params[0]) < 1e-12
        assert values[1] == np.inf
        assert points[2] - 1.0 == pytest.approx(0.25 * (points[1] - 1.0), rel=1e-12)
        # Trial steps: every evaluation but the start's; some were rejected.
        assert res.iterations < len(points) - 1

    def test_accepts_step_whose_decrease_is_below_rounding(self):
        # 1 + 1e-17 (x - 1)^2 rounds to 1 for |x - 1| < 3.3: the Newton step
        # from x = 3 lands on x = 1 with no resolved decrease, so the ratio
        # test rejects it. It keeps the value within a few ulps and cuts the
        # gradient to 0, which accepts it.
        def flat(x):
            return 1.0 + 1e-17 * (x[0] - 1.0) ** 2, np.array([2e-17 * (x[0] - 1.0)])

        exact = Dense([[2e-17]], [[5e16]])
        res = minimize(flat, [3.0], hess=lambda x: exact, tol=1e-30)
        assert res.converged
        assert res.iterations == 1
        assert res.params[0] == 1.0

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

    def test_cg_solve_stops_once_residual_within_half_tol(self):
        # ||g||_2 = 1e-2, so the forcing term alone asks CG for a residual of
        # eta ||g|| = 1e-3; with tol = 1e-2 the solve stops at 0.5 tol = 5e-3,
        # which already puts the model gradient g + H d within tol. The trust
        # region is unbounded, so only the residual ends the solve.
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
        step, _, _, boundary = _steihaug(capped, grad, np.inf, tol)
        assert not boundary
        assert capped.products == expected
        assert np.linalg.norm(grad + H @ step) <= 0.5 * tol
        uncapped = Counting()
        _steihaug(uncapped, grad, np.inf, 1e-300)
        assert uncapped.products > capped.products

    def test_objective_non_increasing(self):
        values = []

        def tracked(x):
            v, g = separable(x)
            return v, g

        res = minimize(tracked, [8.0, 8.0], hess=lambda x: SEPARABLE)
        # Re-walk the iterates is not exposed; check final <= initial and converged.
        assert res.final_value <= separable(np.array([8.0, 8.0]))[0]
        assert res.converged

    def test_deterministic(self):
        r1 = minimize(separable, [0.3, 0.7], hess=lambda x: SEPARABLE)
        r2 = minimize(separable, [0.3, 0.7], hess=lambda x: SEPARABLE)
        assert np.array_equal(r1.params, r2.params)
        assert r1.final_value == r2.final_value
        assert r1.iterations == r2.iterations

    def test_converged_implies_gradient_below_tol(self):
        res = minimize(separable, [0.0, 0.0], hess=lambda x: SEPARABLE, tol=1e-8)
        assert res.converged
        assert res.gradient_norm <= 1e-8

    def test_non_finite_objective_raises(self):
        def bad(x):
            return float("nan"), np.array([1.0])

        with pytest.raises(OptimizationError):
            minimize(bad, [1.0], hess=lambda x: QUADRATIC_1D)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            minimize(quadratic_1d, [1.0], hess=lambda x: QUADRATIC_1D, tol=0.0)

