import tracemalloc

import numpy as np
import pytest

from probcal import harness
from probcal.core import LOGITS, clip_probabilities, log_transform, softmax
from probcal.dirichlet import OdirConfig, _free_mask, _penalty_matrix, _prepare, _value_grad
from probcal.harness import HyperGrid, compare_methods, cross_val_fit, stratified_folds
from probcal.metrics import log_loss
from probcal.models import METHOD_INPUT, METHODS, EnsembleModel, fit_calibrator

from conftest import random_simplex, traced_peak
from oracles import sample_from_generative, sample_labels_from_rows


class TestStratifiedFolds:
    def test_deterministic(self, rng):
        y = rng.integers(0, 3, size=100)
        a = stratified_folds(y, 5, seed=3)
        b = stratified_folds(y, 5, seed=3)
        np.testing.assert_array_equal(a, b)
        c = stratified_folds(y, 5, seed=4)
        assert not np.array_equal(a, c)

    def test_class_balance(self, rng):
        y = np.repeat([0, 1, 2], 30)
        folds = stratified_folds(y, 3, seed=0)
        for f in range(3):
            counts = np.bincount(y[folds == f], minlength=3)
            np.testing.assert_array_equal(counts, [10, 10, 10])

    def test_rejects_too_many_folds(self):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1]), 3, seed=0)


class TestCrossValFit:
    def test_single_fold_single_model(self, rng):
        q = random_simplex(rng, 200, 3)
        y = sample_labels_from_rows(rng, q)
        model, hyper, table = cross_val_fit("dirichlet_l2", q, y, folds=1,
                                            fixed_hyper={"lam": 1e-3})
        assert not isinstance(model, EnsembleModel)
        assert hyper == {"lam": 1e-3}
        assert table == [({"lam": 1e-3}, None)]

    def test_three_folds_build_ensemble(self, rng):
        q = random_simplex(rng, 200, 3)
        y = sample_labels_from_rows(rng, q)
        model, _, _ = cross_val_fit("dirichlet_l2", q, y, folds=3,
                                    fixed_hyper={"lam": 1e-3})
        assert isinstance(model, EnsembleModel)
        assert len(model.members) == 3
        outputs = np.stack([m.apply(q) for m in model.members])
        expected = outputs.mean(axis=0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.apply(q), expected, atol=1e-12)

    def test_grid_selects_low_regularization_on_clean_data(self, rng):
        q = random_simplex(rng, 600, 3)
        y = sample_labels_from_rows(rng, q)
        grid = HyperGrid(lambdas=(1e-7, 1e6))
        model, hyper, table = cross_val_fit("dirichlet_l2", q, y, folds=3, grid=grid)
        assert hyper == {"lam": 1e-7}
        assert len(table) == 2
        losses = dict((tuple(h.items()), l) for h, l in table)
        assert losses[(("lam", 1e-7),)] < losses[(("lam", 1e6),)]

    def test_grid_with_single_fold_rejected(self, rng):
        q = random_simplex(rng, 50, 2)
        y = sample_labels_from_rows(rng, q)
        with pytest.raises(ValueError, match="folds"):
            cross_val_fit("dirichlet_l2", q, y, folds=1, grid=HyperGrid())

    def test_empty_grid_rejected(self, rng):
        q = random_simplex(rng, 50, 2)
        y = sample_labels_from_rows(rng, q)
        with pytest.raises(ValueError, match="empty"):
            cross_val_fit("dirichlet_l2", q, y, folds=2, grid=HyperGrid(lambdas=()))

    def test_deterministic(self, rng):
        q = random_simplex(rng, 150, 3)
        y = sample_labels_from_rows(rng, q)
        m1, _, _ = cross_val_fit("dirichlet_l2", q, y, folds=3, seed=7,
                                 fixed_hyper={"lam": 1e-3})
        m2, _, _ = cross_val_fit("dirichlet_l2", q, y, folds=3, seed=7,
                                 fixed_hyper={"lam": 1e-3})
        np.testing.assert_array_equal(m1.apply(q), m2.apply(q))

    def test_fold_copies_do_not_outlive_their_fit(self, rng):
        # A fit that does nothing, so the row copies set the peak: one fold's
        # training and validation rows at a time, not every fold's at once
        # (measured 1.5 and 4.7 times the input).
        q = random_simplex(rng, 30000, 10)
        y = rng.integers(0, 10, size=30000)
        tracemalloc.start()
        try:
            cross_val_fit("uncalibrated", q, y, folds=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * q.nbytes


class TestWarmStartedGrid:
    """Each fold's grid is fitted as a path, each point starting from the last.

    The reference fits every (point, fold) cold, from W = I, b = 0; both
    reach the same optimum to within the fit tolerance.
    """

    @staticmethod
    def _odir_gradient_norm(member, X, y):
        W, b = member.params.W, member.params.b
        if member.input_kind != LOGITS:
            X = log_transform(clip_probabilities(X, member.clip_floor))
        XT, labels = _prepare(X, y)
        hyper = member.hyperparams
        pen = _penalty_matrix(OdirConfig(hyper.get("lam", 0.0), hyper["mu"]), W.shape[0])
        # Vector scaling fits the diagonal of W alone.
        free = _free_mask(W.shape[0], diagonal=member.method == "vector_scaling")
        theta = np.column_stack([W, b])[free]
        _, grad = _value_grad(theta, XT, labels, pen, free)
        return np.max(np.abs(grad))

    # Full-W fits (dirichlet_odir, matrix_odir) take Newton-CG steps at any
    # k, vector scaling (diagonal W) dense Newton steps.
    @pytest.mark.parametrize("method,k", [("dirichlet_odir", 5), ("dirichlet_odir", 20),
                                          ("matrix_odir", 5), ("vector_scaling", 5)])
    def test_matches_cold_start_at_every_point(self, method, k, rng, monkeypatch):
        q = random_simplex(rng, 600, k, concentration=0.5)
        y = sample_labels_from_rows(rng, q ** 2 / (q ** 2).sum(axis=1, keepdims=True))
        X = np.log(q) if METHOD_INPUT[method] == LOGITS else q
        # Vector scaling searches mu alone; the others tie mu to lambda.
        weights = (1e-4, 1e-3, 1e-2)
        grid = HyperGrid(lambdas=weights, mus=weights if method == "vector_scaling" else ())
        assignment = stratified_folds(y, 3, seed=4)
        reference = []
        for hyper in grid.points(method):
            losses = []
            for f in range(3):
                train = assignment != f
                member = fit_calibrator(method, X[train], y[train], hyper)
                losses.append(log_loss(member.apply(X[~train]), y[~train]))
            reference.append((hyper, float(np.mean(losses))))
        best_reference = min(reference, key=lambda entry: entry[1])  # first of any tie

        fitted = []

        def recording_fit(method, X, y, hyper, **kwargs):
            member = fit_calibrator(method, X, y, hyper, **kwargs)
            fitted.append((member, X, y))
            return member

        monkeypatch.setattr(harness, "fit_calibrator", recording_fit)
        _, best, table = cross_val_fit(method, X, y, folds=3, seed=4, grid=grid)
        assert best == best_reference[0]
        assert [h for h, _ in table] == [h for h, _ in reference]
        # Both fits stop once the gradient infinity-norm is at most 1e-8, not
        # at the optimum itself. Along weakly penalised directions the loss is
        # flat, so two such stops can move the parameters by ~1e-4 (k = 20,
        # lam = 1e-3) and the validation losses by up to ~5e-8.
        for (_, loss), (_, want) in zip(table, reference):
            assert abs(loss - want) <= 1e-6
        assert len(fitted) == 9
        for member, X_train, y_train in fitted:
            assert self._odir_gradient_norm(member, X_train, y_train) <= 1e-8


class TestHyperGrid:
    def test_odir_ties_mu_to_lambda_by_default(self):
        points = HyperGrid(lambdas=(0.1, 0.2)).points("dirichlet_odir")
        assert points == [{"lam": 0.1, "mu": 0.1}, {"lam": 0.2, "mu": 0.2}]

    def test_decoupled_mu_is_cross_product(self):
        points = HyperGrid(lambdas=(0.1,), mus=(0.0, 1.0)).points("matrix_odir")
        assert points == [{"lam": 0.1, "mu": 0.0}, {"lam": 0.1, "mu": 1.0}]

    def test_binning_grid(self):
        assert HyperGrid(bins=(5, 10)).points("ovr_width_bin") == [{"bins": 5}, {"bins": 10}]

    def test_parameterless_methods(self):
        assert HyperGrid().points("temperature") == [{}]

    @pytest.mark.parametrize("mus", [(), (0.0, 1.0)], ids=["tied", "decoupled"])
    @pytest.mark.parametrize("method", METHODS)
    def test_points_for_every_method(self, method, mus):
        points = HyperGrid(lambdas=(0.1, 0.2), mus=mus, bins=(5, 7)).points(method)
        assert [list(p.items()) for p in points] == expected_points(method, mus)


def expected_points(method, mus):
    """Grid points as ordered (name, value) lists for lambdas (0.1, 0.2), bins (5, 7)."""
    if method == "dirichlet_l2":
        return [[("lam", 0.1)], [("lam", 0.2)]]
    if method in ("dirichlet_odir", "matrix_odir"):
        if mus:
            return [[("lam", l), ("mu", m)] for l in (0.1, 0.2) for m in mus]
        return [[("lam", 0.1), ("mu", 0.1)], [("lam", 0.2), ("mu", 0.2)]]
    if method == "vector_scaling":
        return [[("mu", m)] for m in (mus or (0.0,))]
    if method in ("ovr_width_bin", "ovr_freq_bin"):
        return [[("bins", 5)], [("bins", 7)]]
    return [[]]


#: Hyperparameters a method is fitted with when neither a grid nor a value is given.
DEFAULT_HYPER = {
    "dirichlet_l2": [("lam", 1e-3)],
    "dirichlet_odir": [("lam", 1e-3), ("mu", 1e-3)],
    "temperature": [],
    "vector_scaling": [("mu", 0.0)],
    "matrix_odir": [("lam", 1e-3), ("mu", 1e-3)],
    "ovr_isotonic": [],
    "ovr_width_bin": [("bins", 5)],
    "ovr_freq_bin": [("bins", 10)],
    "ovr_beta": [],
    "uncalibrated": [],
}


@pytest.mark.parametrize("folds", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_default_hyperparameters(method, folds, rng):
    q = random_simplex(rng, 60, 3)
    y = sample_labels_from_rows(rng, q)
    X = np.log(q) if METHOD_INPUT[method] == "logits" else q
    model, hyper, table = cross_val_fit(method, X, y, folds)
    assert list(hyper.items()) == DEFAULT_HYPER[method]
    assert list(model.hyperparams.items()) == DEFAULT_HYPER[method]
    assert len(table) == 1


class TestCompareMethods:
    def test_dirichlet_beats_uncalibrated_on_generative_data(self, rng):
        alpha = np.array([[4.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 2.0, 4.0]])
        q, y = sample_from_generative(rng, alpha, np.full(3, 1 / 3), 600)
        results = compare_methods(
            q, y, "probabilities", ["uncalibrated", "dirichlet_l2"],
            repeats=1, outer_folds=2, inner_folds=2,
            fixed_hypers={"dirichlet_l2": {"lam": 1e-7}},
            bins=10, n_resamples=50, seed=0,
        )
        by_method = {r.method: r for r in results}
        assert by_method["dirichlet_l2"].log_loss < by_method["uncalibrated"].log_loss
        assert 0.0 <= by_method["dirichlet_l2"].p_cw_ece <= 1.0

    def test_deterministic(self, rng):
        q = random_simplex(rng, 120, 3)
        y = sample_labels_from_rows(rng, q)
        kwargs = dict(repeats=1, outer_folds=2, inner_folds=2, bins=10,
                      n_resamples=40, seed=11,
                      fixed_hypers={"dirichlet_l2": {"lam": 1e-3}})
        r1 = compare_methods(q, y, "probabilities", ["dirichlet_l2"], **kwargs)
        r2 = compare_methods(q, y, "probabilities", ["dirichlet_l2"], **kwargs)
        assert r1[0].as_dict() == r2[0].as_dict()

    def test_logit_methods_require_logits(self, rng):
        q = random_simplex(rng, 60, 3)
        y = sample_labels_from_rows(rng, q)
        with pytest.raises(ValueError, match="logit"):
            compare_methods(q, y, "probabilities", ["temperature"], repeats=1,
                            outer_folds=2, inner_folds=2, n_resamples=10)

    def test_logit_input_serves_both_kinds(self, rng):
        z = rng.normal(size=(150, 3)) * 2.0
        y = sample_labels_from_rows(rng, softmax(z, axis=1))
        results = compare_methods(
            z, y, "logits", ["temperature", "dirichlet_l2"],
            repeats=1, outer_folds=2, inner_folds=2,
            fixed_hypers={"dirichlet_l2": {"lam": 1e-3}},
            bins=10, n_resamples=30, seed=2,
        )
        assert [r.method for r in results] == ["temperature", "dirichlet_l2"]
        for r in results:
            assert np.isfinite(r.log_loss)


class TestEvaluateAndTest:
    def test_memory_at_paper_scale(self):
        # n = 10^4, k = 100: the measures and both tests on one binning hold
        # the guide table (5.1 MB), the uint8 classwise bins (1 MB) and
        # bounded tiles; no n x k float64 temporary. Measured 8.16 MiB; with
        # whole-matrix losses and the full cumsum it was 23.69 MiB.
        rng = np.random.default_rng(0)
        p = random_simplex(rng, 10_000, 100)
        y = rng.integers(0, 100, size=10_000)
        (report, conf_t, cw_t), peak = traced_peak(
            lambda: harness._evaluate_and_test(p, y, 15, 1e-12, 52, 1))
        assert peak < 9.1 * 2**20
        assert (report.p_conf_ece, report.p_cw_ece) == (conf_t.p_value, cw_t.p_value)
