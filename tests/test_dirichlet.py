import math
import warnings

import numpy as np
import pytest

from probcal.core import DEFAULT_CLIP_FLOOR, clip_probabilities, softmax
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

    # The fitting core is class-major (features (k+1, n), scores (k, n)).
    # Row-major references: features [x, 1] as (n, k+1) rows, scores
    # (n, k), reductions along rows, the labels as a one-hot matrix.
    @staticmethod
    def _row_major_value_grad(theta, X, y, pen, free):
        n, k = X.shape[0], free.shape[0]
        M = np.zeros(free.shape)
        M[free] = theta
        scores = X @ M.T
        shifted = scores - scores.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        onehot = np.eye(k)[y]
        value = -(logp * onehot).sum(axis=1).mean() + (pen * M * M).sum()
        return value, (((np.exp(logp) - onehot) / n).T @ X + 2.0 * pen * M)[free]

    @staticmethod
    def _row_major_hessian(theta, X, pen, free):
        n, k = X.shape[0], free.shape[0]
        M = np.zeros(free.shape)
        M[free] = theta
        P = softmax(X @ M.T, axis=1)
        G = X[:, np.nonzero(free)[1].reshape(k, -1)]
        width = G.shape[2]
        V = (P[:, :, None] * G).reshape(n, k * width)
        H = -(V.T @ V)
        for a in range(k):
            s = a * width
            H[s : s + width, s : s + width] += G[:, a].T @ (G[:, a] * P[:, a : a + 1])
        H /= n
        H[np.diag_indices_from(H)] += 2.0 * pen[free]
        return H

    @pytest.mark.parametrize("k", [2, 10, 16])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_class_major_core_matches_row_major_reference(self, rng, k, diagonal):
        from probcal.dirichlet import _free_mask, _hessian, _penalty_matrix, _prepare, _value_grad

        n = 300
        feats, y = rng.normal(size=(n, k)), rng.integers(0, k, size=n)
        XT, labels = _prepare(feats, y)
        assert XT.shape == (k + 1, n) and XT.flags.c_contiguous
        np.testing.assert_array_equal(labels, y)
        X = np.column_stack([feats, np.ones(n)])
        pen = _penalty_matrix(OdirConfig(0.3, 0.2), k)
        free = _free_mask(k, diagonal)
        theta = rng.normal(scale=0.5, size=np.count_nonzero(free))

        value, grad = _value_grad(theta, XT, labels, pen, free)
        ref_value, ref_grad = self._row_major_value_grad(theta, X, y, pen, free)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        H, ref_H = _hessian(theta, XT, pen, free), self._row_major_hessian(theta, X, pen, free)
        assert np.max(np.abs(H - ref_H)) <= 1e-12 * np.max(np.abs(ref_H))

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)], ids=["l2", "odir"])
    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    def test_hessian_matches_finite_differences(self, rng, reg, diagonal):
        from probcal.dirichlet import _free_mask, _hessian, _penalty_matrix, _prepare, _value_grad

        k = 3
        XT, y = _prepare(rng.normal(size=(40, k)), rng.integers(0, k, size=40))
        pen = _penalty_matrix(reg, k)
        free = _free_mask(k, diagonal)
        theta = rng.normal(scale=0.5, size=np.count_nonzero(free))
        H = _hessian(theta, XT, pen, free)
        fd = np.column_stack([
            central_difference(lambda t, i=i: _value_grad(t, XT, y, pen, free)[1][i], theta)
            for i in range(theta.size)
        ])
        assert np.max(np.abs(fd - H)) / max(1.0, np.max(np.abs(H))) < 1e-5

    @staticmethod
    def _dense_and_operator(rng, reg, k=4, n=50, dtype=np.float64):
        from probcal.dirichlet import _free_mask, _hessian, _HessianOperator, _penalty_matrix

        XT = np.vstack([rng.normal(size=(k, n)), np.ones(n)])
        pen = _penalty_matrix(reg, k)
        theta = rng.normal(scale=0.5, size=k * (k + 1))
        op = _HessianOperator(XT, pen, dtype=dtype).at(theta)
        return _hessian(theta, XT, pen, _free_mask(k, False)), op

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)],
                             ids=["full-l2", "full-odir"])
    def test_hessian_operator_matches_dense(self, rng, reg):
        H, op = self._dense_and_operator(rng, reg)
        for _ in range(5):
            v = rng.normal(size=H.shape[0])
            want = H @ v
            assert np.max(np.abs(op.matvec(v) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)],
                             ids=["full-l2", "full-odir"])
    def test_preconditioner_blocks_are_dense_class_blocks(self, rng, reg):
        H, op = self._dense_and_operator(rng, reg)
        k = op.blocks.shape[0]
        # Class a's parameters are the a-th run of theta, and every parameter
        # sits in exactly one class block.
        index = np.arange(H.shape[0]).reshape(k, -1)
        assert op.blocks.shape == (k, index.shape[1], index.shape[1])
        r = rng.normal(size=H.shape[0])
        z = op.precondition(r)
        for a in range(k):
            block = H[np.ix_(index[a], index[a])]
            assert np.max(np.abs(op.blocks[a] - block)) <= 1e-12 * np.max(np.abs(block))
            # precondition() solves with the block plus a 1e-10 relative ridge.
            np.testing.assert_allclose(z[index[a]], np.linalg.solve(block, r[index[a]]),
                                       rtol=1e-6)

    # The float32 operator of Newton-CG fits, against the float64 dense
    # Hessian. Its products and blocks are within about 1e-7 of it.
    @pytest.mark.parametrize("reg", [L2Config(0.1), OdirConfig(0.3, 0.2)],
                             ids=["full-l2", "full-odir"])
    def test_float32_operator_matches_dense(self, rng, reg):
        H, op = self._dense_and_operator(rng, reg, dtype=np.float32)
        assert op.XT.dtype == op.probs.dtype == np.float32
        for _ in range(5):
            v = rng.normal(size=H.shape[0])
            want = H @ v
            got = op.matvec(v)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
        k = op.blocks.shape[0]
        index = np.arange(H.shape[0]).reshape(k, -1)
        for a in range(k):
            block = H[np.ix_(index[a], index[a])]
            assert np.max(np.abs(op.blocks[a] - block)) <= 1e-5 * np.max(np.abs(block))

    def test_float32_operator_flushes_subnormal_probabilities(self, rng):
        # Log-features of rows with entries down to 1e-60, under weights three
        # times the identity: softmax then gives probabilities far below
        # float32's smallest normal number, which a plain cast makes subnormal.
        from probcal.dirichlet import (_free_mask, _hessian, _HessianOperator, _penalty_matrix,
                                       _prepare)

        k, n = 6, 80
        q = random_simplex(rng, n, k) ** 8
        q[np.arange(n), rng.integers(0, k, size=n)] += 1.0
        XT, _ = _prepare(np.log(clip_probabilities(q / q.sum(axis=1, keepdims=True), 1e-60)),
                         np.zeros(n, dtype=int))
        M = np.eye(k, k + 1) * 3.0 + rng.normal(scale=0.1, size=(k, k + 1))
        theta, pen = M.ravel(), _penalty_matrix(OdirConfig(1e-3, 1e-3), k)
        tiny = np.finfo(np.float32).tiny
        cast = softmax(M @ XT, axis=0).astype(np.float32)
        assert np.count_nonzero((cast > 0.0) & (cast < tiny)) > 0
        H = _hessian(theta, XT, pen, _free_mask(k, False))
        op = _HessianOperator(XT, pen, dtype=np.float32).at(theta)
        assert op.probs.dtype == np.float32
        assert not np.any((op.probs > 0.0) & (op.probs < tiny))
        for _ in range(5):
            v = rng.normal(size=H.shape[0])
            want = H @ v
            assert np.max(np.abs(op.matvec(v) - want)) <= 1e-5 * np.max(np.abs(want))

    def test_fit_past_dense_newton_limit_converges(self, rng):
        # k = 50 has 2550 parameters, where gradient steps once stalled near
        # a gradient norm of 1e-2; Newton-CG must reach tol without warning.
        k = 50
        q = random_simplex(rng, 1000, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_newton_cg_reuses_preconditioner_across_steps(self, rng, monkeypatch):
        # The k = 50 data of the test above. One operator serves the fit; it
        # is moved to each Newton step's point by ``at``, which builds its
        # blocks only when the last CG solve ran long.
        from probcal import dirichlet

        k = 50
        q = random_simplex(rng, 1000, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        made, steps, builds = [], [], []

        class CountingOperator(dirichlet._HessianOperator):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

            def at(self, theta):
                steps.append(1)
                return super().at(theta)

            def _build(self):
                builds.append(1)
                super()._build()

        monkeypatch.setattr(dirichlet, "_HessianOperator", CountingOperator)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        assert len(made) == 1
        assert 0 < len(builds) < len(steps)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

        made.clear()
        steps.clear()
        builds.clear()
        monkeypatch.setattr(CountingOperator, "REBUILD_RATIO", 0)
        rebuilt = fit(q, y, reg, tol=1e-8)
        assert len(made) == 1
        assert len(builds) == len(steps) > 0
        assert np.max(np.abs(apply_linear(q, fitted) - apply_linear(q, rebuilt))) <= 1e-6

    @pytest.mark.parametrize("k", [2, 3, 10, 16])
    def test_full_w_fit_takes_newton_cg_and_converges(self, rng, monkeypatch, k):
        # Every full-W fit, at any k, is solved by one Newton-CG operator.
        from probcal import dirichlet

        made, built = [], []

        class CountingOperator(dirichlet._HessianOperator):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

            def at(self, theta):
                super().at(theta)
                built.append((self.XT.dtype, self.probs.dtype))
                return self

        monkeypatch.setattr(dirichlet, "_HessianOperator", CountingOperator)
        q = random_simplex(rng, 1500, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q)
        reg = OdirConfig(1e-3, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit(q, y, reg, tol=1e-8)
        # Its products run in float32; the gradient check below is float64.
        assert len(made) == 1
        assert built and all(x == p == np.float32 for x, p in built)
        _, grad = objective_and_gradient(fitted, q, y, reg)
        assert np.max(np.abs(grad)) <= 1e-8

    @pytest.mark.parametrize("method", ["vector_scaling", "beta"])
    def test_diagonal_w_fit_takes_dense_newton(self, rng, monkeypatch, method):
        # Vector scaling and beta maps keep W diagonal: every Newton step
        # solves with the dense Hessian, and no operator is built.
        from probcal import dirichlet
        from probcal.ovr import fit_beta
        from probcal.scaling import fit_affine_logit

        dense = []

        def counting_hessian(*args):
            dense.append(1)
            return real_hessian(*args)

        def no_operator(*args, **kwargs):
            raise AssertionError("a diagonal-W fit built a Hessian operator")

        real_hessian = dirichlet._hessian
        monkeypatch.setattr(dirichlet, "_hessian", counting_hessian)
        monkeypatch.setattr(dirichlet, "_HessianOperator", no_operator)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if method == "beta":
                scores = rng.uniform(0.02, 0.98, size=1500)
                fit_beta(scores, (rng.random(1500) < scores ** 1.4).astype(float))
            else:
                z = rng.normal(size=(1500, 10)) * 1.5
                fit_affine_logit(z, sample_labels_from_rows(rng, softmax(z * 0.6, axis=1)),
                                 mode="vector", reg=OdirConfig(0.0, 1e-3))
        assert dense

    @pytest.mark.parametrize("rows, k", [
        pytest.param("zero column", 3, marks=pytest.mark.xfail(
            strict=True, raises=RuntimeWarning, reason="float32 operator, ROADMAP item 4")),
        ("zero column", 10), ("zero column", 20), ("one-hot", 3), ("one-hot", 10),
        ("one-hot", 20)])
    def test_fit_on_exact_zeros_reaches_tol(self, rng, rows, k):
        # Exact zeros clip to the default floor, 2.2e-308, so the features
        # ln q reach -708 and the curvature at the identity start is near 0
        # along them: a zero column 0, or one-hot rows at each row's most
        # probable class, with labels drawn from the rows before the change.
        # Every fit reaches tol with no RuntimeWarning (an error here). The
        # k = 3 zero column stops short with float32 products; it must warn.
        q = random_simplex(rng, 600, k)
        y = sample_labels_from_rows(rng, q)
        if rows == "zero column":
            q[:, 0] = 0.0
            q /= q.sum(axis=1, keepdims=True)
        else:
            q = np.eye(k)[q.argmax(axis=1)]
        q = clip_probabilities(q, DEFAULT_CLIP_FLOOR)
        reg = OdirConfig(1e-2, 1e-2)
        fitted = fit(q, y, reg)
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

    @pytest.mark.parametrize("reg", [OdirConfig(0.0, 1e-2), L2Config(0.0)])
    def test_unpenalised_w_columns_sum_to_zero(self, rng, reg):
        # Softmax ignores one vector added to every row of an unpenalised
        # W; the fit returns the representative whose columns sum to zero.
        q = random_simplex(rng, 600, 4)
        y = sample_labels_from_rows(rng, q)
        fitted = fit(q, y, reg)
        assert np.max(np.abs(fitted.W.sum(axis=0))) <= 1e-12

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
