import numpy as np
import pytest

from probcal.core import clip_probabilities
from probcal.dirichlet import L2Config, apply_linear, fit as fit_dirichlet
from probcal.metrics import classwise_ece
from probcal.ovr import (
    BetaParams,
    BinningMap,
    IsotonicMap,
    OneVsRestModel,
    apply_ovr,
    fit_beta,
    fit_binning,
    fit_isotonic,
    fit_ovr,
)

from conftest import peaked_simplex, random_simplex, traced_peak
from oracles import brute_isotonic, exact_isotonic, sample_labels_from_rows


class TestIsotonic:
    def test_single_violation_pooled(self):
        fitted = fit_isotonic([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        np.testing.assert_allclose(fitted.breakpoints, [0.1, 0.35, 0.4, 0.8])
        np.testing.assert_allclose(fitted.values, [0.0, 0.5, 0.5, 1.0])

    def test_monotone_data_unchanged(self):
        fitted = fit_isotonic([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1])
        np.testing.assert_allclose(fitted.values, [0.0, 0.0, 1.0, 1.0])

    def test_two_point_violation(self):
        fitted = fit_isotonic([0.2, 0.7], [1, 0])
        np.testing.assert_allclose(fitted.values, [0.5, 0.5])

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 51))
            if rng.random() < 0.5:
                scores = rng.choice(np.linspace(0, 1, 8), size=n)  # force ties
            else:
                scores = rng.random(n)
            labels = rng.integers(0, 2, size=n).astype(float)
            fitted = fit_isotonic(scores, labels)
            bp, values = brute_isotonic(scores, labels)
            np.testing.assert_array_equal(fitted.breakpoints, bp)
            np.testing.assert_array_equal(fitted.values, values)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("positive_rate", [0.005, 0.05, 0.5])
    def test_bit_equal_to_exact_oracle(self, ties, positive_rate):
        local = np.random.default_rng(int(positive_rate * 1000) + ties)
        n = 2000
        scores = local.random(n)
        if ties:
            scores = np.round(scores, 2)  # about 100 distinct scores
        labels = (local.random(n) < positive_rate).astype(float)
        fitted = fit_isotonic(scores, labels)
        bp, values = exact_isotonic(scores, labels)
        np.testing.assert_array_equal(fitted.breakpoints, bp)
        np.testing.assert_array_equal(fitted.values, values)

    def test_prediction_stepwise(self):
        fitted = IsotonicMap(breakpoints=np.array([0.2, 0.5, 0.8]), values=np.array([0.1, 0.4, 0.9]))
        np.testing.assert_allclose(
            fitted.predict([0.0, 0.2, 0.3, 0.5, 0.79, 1.0]),
            [0.1, 0.1, 0.1, 0.4, 0.4, 0.9],
        )

    def test_prediction_monotone(self, rng):
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60).astype(float)
        fitted = fit_isotonic(scores, labels)
        grid = np.linspace(0, 1, 301)
        preds = fitted.predict(grid)
        assert np.all(np.diff(preds) >= 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_isotonic([], [])


class TestBinning:
    def test_single_bin_predicts_base_rate(self):
        fitted = fit_binning([0.1, 0.9, 0.4], [0, 1, 1], m=1)
        np.testing.assert_allclose(fitted.predict([0.0, 0.5, 1.0]), [2 / 3] * 3)

    def test_equal_width_two_bins(self):
        fitted = fit_binning([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], m=2, scheme="equal-width")
        np.testing.assert_allclose(fitted.edges, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(fitted.bin_values, [0.0, 1.0])

    def test_equal_frequency_two_bins(self):
        fitted = fit_binning([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], m=2, scheme="equal-frequency")
        np.testing.assert_allclose(fitted.edges, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(fitted.bin_values, [0.0, 1.0])

    def test_empty_bin_gets_base_rate(self):
        fitted = fit_binning([0.05, 0.1, 0.9], [0, 1, 1], m=10, scheme="equal-width")
        # bin [0.5, 0.6) is empty; its value is the overall mean 2/3
        assert fitted.bin_values[5] == pytest.approx(2 / 3)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            fit_binning([0.5], [1], m=0)

    def test_last_bin_closed(self):
        fitted = fit_binning([0.2, 1.0], [0, 1], m=2, scheme="equal-width")
        assert fitted.predict([1.0])[0] == 1.0
        assert fitted.predict([0.49])[0] == 0.0


class TestBeta:
    def test_identity_params_fix_half(self):
        assert BetaParams(1.0, 1.0, 0.0).predict([0.5])[0] == pytest.approx(0.5)

    def test_identity_params_everywhere(self):
        grid = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(BetaParams(1.0, 1.0, 0.0).predict(grid), grid, atol=1e-12)

    def test_consistency_on_calibrated_data(self, rng):
        scores = rng.uniform(0.02, 0.98, size=6000)
        labels = (rng.random(6000) < scores).astype(float)
        fitted = fit_beta(scores, labels)
        grid = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(fitted.predict(grid), grid, atol=0.02)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            fit_beta([0.2, 0.6], [1, 1])

    def test_matches_two_class_dirichlet(self, rng):
        # Scores of exactly 0 and 1 are clipped rows of the two-class fit, with
        # a feature of ln(2.2e-308) = -708; predict must see the same features.
        # Their labels are drawn from interior scores, so both classes occur.
        scores = rng.uniform(0.05, 0.95, size=400)
        labels = (rng.random(400) < scores ** 1.4).astype(float)
        scores[:20], scores[20:40] = 0.0, 1.0
        beta = fit_beta(scores, labels, lam=1e-10)
        rows = np.column_stack([1.0 - scores, scores])
        lin = fit_dirichlet(clip_probabilities(rows), labels.astype(int), L2Config(1e-10))
        grid = np.concatenate([[0.0], np.linspace(0.01, 0.99, 99), [1.0]])
        grid_rows = clip_probabilities(np.column_stack([1.0 - grid, grid]))
        np.testing.assert_allclose(
            beta.predict(grid), apply_linear(grid_rows, lin)[:, 1], atol=1e-6
        )


class TestOneVsRest:
    def test_identity_like_beta_maps(self, rng):
        model = OneVsRestModel(kind="beta", maps=tuple(BetaParams(1.0, 1.0, 0.0) for _ in range(3)))
        q = random_simplex(rng, 25, 3)
        np.testing.assert_allclose(apply_ovr(q, model), q, atol=1e-9)

    def test_renormalization(self):
        model = OneVsRestModel(
            kind="width_bin",
            maps=(
                BinningMap(np.array([0.0, 1.0]), np.array([0.2]), "equal-width"),
                BinningMap(np.array([0.0, 1.0]), np.array([0.2]), "equal-width"),
            ),
        )
        np.testing.assert_allclose(apply_ovr(np.array([0.3, 0.7]), model), [0.5, 0.5])

    def test_all_zero_falls_back_to_uniform(self):
        model = OneVsRestModel(
            kind="width_bin",
            maps=tuple(
                BinningMap(np.array([0.0, 1.0]), np.array([0.0]), "equal-width") for _ in range(3)
            ),
        )
        np.testing.assert_allclose(apply_ovr(np.array([0.2, 0.3, 0.5]), model), [1 / 3] * 3)
        # Among rows that keep their mass, too.
        model = OneVsRestModel(
            kind="width_bin",
            maps=tuple(
                BinningMap(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4]), "equal-width")
                for _ in range(3)
            ),
        )
        q = np.array([[0.1, 0.1, 0.8], [0.3, 0.3, 0.4], [0.6, 0.2, 0.2]])
        np.testing.assert_array_equal(apply_ovr(q, model),
                                      [[0.0, 0.0, 1.0], [1 / 3] * 3, [1.0, 0.0, 0.0]])

    def test_output_on_simplex(self, rng):
        q = random_simplex(rng, 120, 4)
        y = sample_labels_from_rows(rng, q)
        for kind, cfg in (
            ("isotonic", {}),
            ("width_bin", {"bins": 5}),
            ("freq_bin", {"bins": 5}),
            ("beta", {}),
        ):
            model = fit_ovr(q, y, kind, **cfg)
            out = apply_ovr(q, model)
            assert np.all(out >= 0.0)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_binning_single_bin_gives_base_rates(self, rng):
        q = random_simplex(rng, 200, 3)
        y = sample_labels_from_rows(rng, q)
        model = fit_ovr(q, y, "width_bin", bins=1)
        out = apply_ovr(q, model)
        rates = np.bincount(y, minlength=3) / y.size
        expected = rates / rates.sum()
        np.testing.assert_allclose(out, np.tile(expected, (200, 1)), atol=1e-12)

    def test_isotonic_on_calibrated_data_does_not_hurt_much(self, rng):
        q = random_simplex(rng, 3000, 3, concentration=2.0)
        y = sample_labels_from_rows(rng, q)
        model = fit_ovr(q, y, "isotonic")
        held_q = random_simplex(rng, 3000, 3, concentration=2.0)
        held_y = sample_labels_from_rows(rng, held_q)
        cw_cal, _ = classwise_ece(apply_ovr(held_q, model), held_y, 15)
        cw_raw, _ = classwise_ece(held_q, held_y, 15)
        assert cw_cal <= cw_raw + 0.02

    def test_rejects_unknown_kind(self, rng):
        q = random_simplex(rng, 10, 2)
        with pytest.raises(ValueError):
            fit_ovr(q, np.array([0, 1] * 5), "spline")


class TestOneVsRestAtPaperScale:
    """n = 10^4 rows at k = 100 classes, the CIFAR-100 size of the paper."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(2019)
        q = peaked_simplex(rng, 10_000, 100)
        y = sample_labels_from_rows(rng, q)
        return q, y, fit_ovr(q, y, "isotonic")

    def test_isotonic_maps_hold_one_pair_per_value_run(self, fitted):
        # A model file stores one pair per run of equal values of the
        # per-score map.
        q, y, model = fitted
        for j, m in enumerate(model.maps):
            reference = fit_isotonic(q[:, j], (y == j).astype(float))
            assert m.breakpoints.size <= 1 + np.count_nonzero(np.diff(reference.values))

    def test_apply_holds_little_beside_its_output(self, fitted):
        q, _, model = fitted
        out, peak = traced_peak(lambda: apply_ovr(q, model))
        assert peak <= 1.25 * out.nbytes
        raw = np.column_stack([m.predict(q[:, j]) for j, m in enumerate(model.maps)])
        assert out.tobytes() == (raw / raw.sum(axis=1, keepdims=True)).tobytes()
