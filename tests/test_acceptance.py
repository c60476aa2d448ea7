"""Acceptance suite: the arithmetically-anchored exit criteria.

Each test prints one PASS line when its criterion holds; pytest -v (or -s)
shows them individually. Expected values come from independent oracles:
closed forms, brute-force reimplementations, and finite differences.
"""

import csv
import json
import math

import numpy as np
import pytest

from probcal import cli
from probcal.core import clip_probabilities, softmax
from probcal.dirichlet import (
    L2Config,
    LinearParams,
    OdirConfig,
    apply_generative,
    apply_linear,
    fit as fit_dirichlet,
    from_generative,
    objective_and_gradient,
    to_canonical,
    to_generative,
)
from probcal.metrics import classwise_ece, confidence_ece, log_loss
from probcal.ovr import fit_beta, fit_isotonic
from probcal.scaling import (
    OdirConfig as ScalingOdir,
    apply_affine_logit,
    apply_temperature,
    fit_affine_logit,
    fit_temperature,
    temperature_as_dirichlet,
    zero_offdiagonal,
)
from probcal.stattest import TestResult, calibration_test

from oracles import (
    brute_classwise_ece,
    brute_confidence_ece,
    brute_isotonic,
    central_difference,
    sample_from_generative,
    sample_labels_from_rows,
)
from test_cli import write_csv


def _passed(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_parametrization_equivalence():
    rng = np.random.default_rng(101)
    worst_map = 0.0
    worst_canon = 0.0
    for draw in range(200):
        k = 2 + draw % 5  # k in {2, ..., 6}
        lin = LinearParams(W=rng.normal(scale=1.5, size=(k, k)), b=rng.normal(size=k))
        can = to_canonical(lin)
        gen = to_generative(can)
        lin2 = from_generative(gen)
        q = rng.dirichlet(np.ones(k), size=100)
        q = np.clip(q, 1e-9, None)
        q /= q.sum(axis=1, keepdims=True)
        reference = apply_linear(q, lin)
        for mapped in (apply_generative(q, gen), apply_linear(q, lin2)):
            worst_map = max(worst_map, float(np.max(np.abs(mapped - reference))))
        can2 = to_canonical(lin2)
        worst_canon = max(
            worst_canon,
            float(np.max(np.abs(can2.A - can.A))),
            float(np.max(np.abs(can2.c - can.c))),
        )
    assert worst_map < 1e-9
    assert worst_canon < 1e-9
    _passed(1, f"conversion chain pointwise {worst_map:.2e}, canonical roundtrip {worst_canon:.2e}")


def test_02_temperature_is_dirichlet_member():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        z = rng.normal(size=k) * rng.uniform(0.2, 8.0)
        t = float(rng.uniform(0.02, 50.0))
        direct = apply_temperature(z, t)
        via_map = apply_linear(softmax(z), temperature_as_dirichlet(t, k))
        worst = max(worst, float(np.max(np.abs(direct - via_map))))
    assert worst < 1e-12
    _passed(2, f"softmax(z/t) equals the (1/t)I map on probabilities, max gap {worst:.2e}")


def test_03_synthetic_canonical_map_recovery():
    rng = np.random.default_rng(303)
    alpha = np.array([[4.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 2.0, 4.0]])
    pi = np.full(3, 1.0 / 3.0)
    q_train, y_train = sample_from_generative(rng, alpha, pi, 5000)
    q_test, y_test = sample_from_generative(rng, alpha, pi, 5000)

    fitted = fit_dirichlet(clip_probabilities(q_train), y_train, L2Config(1e-7))
    calibrated = apply_linear(clip_probabilities(q_test), fitted)

    from probcal.dirichlet import GenerativeParams

    true_map = GenerativeParams(alpha=alpha, pi=pi)
    truth = apply_generative(clip_probabilities(q_test), true_map)

    ll_fitted = log_loss(calibrated, y_test)
    ll_truth = log_loss(truth, y_test)
    assert ll_fitted <= ll_truth * 1.01

    cw_cal, _ = classwise_ece(calibrated, y_test, 15)
    cw_raw, _ = classwise_ece(q_test, y_test, 15)
    assert cw_cal <= cw_raw
    _passed(3, f"held-out log-loss {ll_fitted:.4f} vs true map {ll_truth:.4f}; "
               f"cw-ECE {cw_cal:.4f} <= uncalibrated {cw_raw:.4f}")


def test_04_metric_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 11))
        q = rng.dirichlet(np.ones(k), size=n)
        q = np.clip(q, 1e-12, None)
        q /= q.sum(axis=1, keepdims=True)
        y = rng.integers(0, k, size=n)
        worst = max(worst, abs(confidence_ece(q, y, m) - brute_confidence_ece(q, y, m)))
        cw, per_class = classwise_ece(q, y, m)
        cw_ref, per_ref = brute_classwise_ece(q, y, m)
        worst = max(worst, abs(cw - cw_ref), float(np.max(np.abs(per_class - per_ref))))
    assert worst <= 1e-12

    four = np.array([[0.2, 0.8], [0.4, 0.6], [0.9, 0.1], [0.7, 0.3]])
    labels = np.array([1, 1, 0, 0])
    assert confidence_ece(four, labels, 2) == pytest.approx(0.25, abs=1e-15)
    assert classwise_ece(four, labels, 2)[0] == pytest.approx(0.25, abs=1e-15)
    _passed(4, f"brute-force ECE agreement within {worst:.2e}; 4-row dataset gives 0.25 / 0.25")


def test_05_significance_test_arithmetic_and_null():
    resampled = np.concatenate([np.full(170, 0.9), np.full(9830, 0.1)])
    result = TestResult.from_statistics(0.5, resampled, seed=0)
    assert result.p_value == 0.017

    rng = np.random.default_rng(505)
    rejections = 0
    replicates = 200
    for rep in range(replicates):
        q = rng.dirichlet(np.full(4, 2.0), size=2000)
        q = np.clip(q, 1e-12, None)
        q /= q.sum(axis=1, keepdims=True)
        y = sample_labels_from_rows(rng, q)
        res = calibration_test(q, y, "conf_ece", 15, 1000, seed=rep)
        if res.p_value <= 0.05:
            rejections += 1
    rate = rejections / replicates
    assert 0.01 <= rate <= 0.10
    _passed(5, f"170/10000 -> p=0.017 exactly; null rejection rate {rate:.3f} in [0.01, 0.10]")


def test_06_odir_limit_behavior():
    rng = np.random.default_rng(606)
    q = rng.dirichlet(np.ones(3) * 2.0, size=400)
    q = np.clip(q, 1e-12, None)
    q /= q.sum(axis=1, keepdims=True)
    y = sample_labels_from_rows(rng, q ** 1.3 / (q ** 1.3).sum(axis=1, keepdims=True))

    dir_fit = fit_dirichlet(q, y, OdirConfig(1e6, 1e6))
    off_dir = dir_fit.W - np.diag(np.diag(dir_fit.W))
    assert np.max(np.abs(off_dir)) < 1e-3
    zeroed = LinearParams(W=np.diag(np.diag(dir_fit.W)), b=dir_fit.b)
    ll_gap_dir = abs(
        log_loss(apply_linear(q, zeroed), y) - log_loss(apply_linear(q, dir_fit), y)
    )
    assert ll_gap_dir < 1e-4

    z = rng.normal(size=(400, 3)) * 2.0
    yz = sample_labels_from_rows(rng, softmax(z * 0.7, axis=1))
    mat_fit = fit_affine_logit(z, yz, mode="matrix", reg=ScalingOdir(1e6, 1e-6))
    off_mat = mat_fit.W - np.diag(np.diag(mat_fit.W))
    assert np.max(np.abs(off_mat)) < 1e-3
    ll_gap_mat = abs(
        log_loss(apply_affine_logit(z, zero_offdiagonal(mat_fit)), yz)
        - log_loss(apply_affine_logit(z, mat_fit), yz)
    )
    assert ll_gap_mat < 1e-4
    _passed(6, f"lambda=1e6 off-diagonals {np.max(np.abs(off_dir)):.1e} / "
               f"{np.max(np.abs(off_mat)):.1e}; zeroing changes log-loss by "
               f"{ll_gap_dir:.1e} / {ll_gap_mat:.1e}")


def test_07_gradient_correctness():
    rng = np.random.default_rng(707)
    worst = 0.0
    for case in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 2, 40))
        reg_dir = OdirConfig(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        q = rng.dirichlet(np.ones(k), size=n)
        q = np.clip(q, 1e-9, None)
        q /= q.sum(axis=1, keepdims=True)
        y = rng.integers(0, k, size=n)
        params = LinearParams(W=rng.normal(scale=0.6, size=(k, k)), b=rng.normal(scale=0.5, size=k))
        _, grad = objective_and_gradient(params, q, y, reg_dir)

        def dir_value(theta, q=q, y=y, reg=reg_dir, k=k):
            p = LinearParams(W=theta[: k * k].reshape(k, k), b=theta[k * k:])
            return objective_and_gradient(p, q, y, reg)[0]

        theta = np.concatenate([params.W.ravel(), params.b])
        fd = central_difference(dir_value, theta)
        rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        worst = max(worst, rel)

        # matrix-scaling objective: same machinery on logit features
        from probcal.dirichlet import _penalty_matrix, _prepare, _value_grad

        z = rng.normal(size=(n, k)) * 2.0
        XT, labels = _prepare(z, y)
        pen = _penalty_matrix(reg_dir, k)
        full = np.ones((k, k + 1), dtype=bool)
        _, grad_z = _value_grad(theta, XT, labels, pen, full)
        fd_z = central_difference(lambda t: _value_grad(t, XT, labels, pen, full)[0], theta)
        rel_z = np.max(np.abs(fd_z - grad_z)) / max(1.0, np.max(np.abs(grad_z)))
        worst = max(worst, rel_z)
    assert worst < 1e-5
    _passed(7, f"analytic vs central differences, worst relative error {worst:.2e}")


def test_08_family_nesting():
    rng = np.random.default_rng(808)
    for seed in range(5):
        local = np.random.default_rng(seed)
        n, k = 200, 3
        z = local.normal(size=(n, k)) * 2.0
        y = sample_labels_from_rows(local, softmax(z * 0.6, axis=1))
        t = fit_temperature(z, y)
        vec = fit_affine_logit(z, y, mode="vector", reg=ScalingOdir(0.0, 0.0), tol=1e-10)
        mat = fit_affine_logit(z, y, mode="matrix", reg=ScalingOdir(0.0, 0.0), tol=1e-10)
        ll_t = log_loss(apply_temperature(z, t), y)
        ll_v = log_loss(apply_affine_logit(z, vec), y)
        ll_m = log_loss(apply_affine_logit(z, mat), y)
        assert ll_v <= ll_t + 1e-9
        assert ll_m <= ll_v + 1e-9
    _passed(8, "training log-loss: matrix <= vector <= temperature on all datasets")


def test_09_isotonic_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        if rng.random() < 0.4:
            scores = rng.choice(np.linspace(0.0, 1.0, 9), size=n)
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(float)
        fitted = fit_isotonic(scores, labels)
        bp, values = brute_isotonic(scores, labels)
        np.testing.assert_allclose(fitted.breakpoints, bp)
        worst = max(worst, float(np.max(np.abs(fitted.values - values))))
    assert worst == 0.0
    _passed(9, "pool-adjacent-violators equals min-max oracle exactly")


def test_10_two_class_beta_dirichlet_coincidence():
    rng = np.random.default_rng(1010)
    scores = rng.uniform(0.03, 0.97, size=500)
    labels = (rng.random(500) < scores ** 1.5).astype(float)
    beta = fit_beta(scores, labels, lam=1e-10)
    rows = clip_probabilities(np.column_stack([1.0 - scores, scores]))
    lin = fit_dirichlet(rows, labels.astype(int), L2Config(1e-10))
    grid = np.linspace(0.01, 0.99, 99)
    grid_rows = np.column_stack([1.0 - grid, grid])
    gap = np.max(np.abs(beta.predict(grid) - apply_linear(grid_rows, lin)[:, 1]))
    assert gap < 1e-6
    _passed(10, f"two-class beta and Dirichlet fits agree within {gap:.2e} on the grid")


def test_11_temperature_closed_form():
    z = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    y = np.array([0, 1, 1])
    fitted = fit_temperature(z, y)
    target = 2.0 / math.log(2.0)
    assert fitted.t == pytest.approx(target, abs=1e-3)
    _passed(11, f"fitted t={fitted.t:.6f} matches 2/ln 2 = {target:.6f}")


def test_12_cli_determinism_and_round_trips(tmp_path):
    rng = np.random.default_rng(1212)
    q = rng.dirichlet(np.ones(3) * 2.0, size=300)
    q = np.clip(q, 1e-12, None)
    q /= q.sum(axis=1, keepdims=True)
    y = sample_labels_from_rows(rng, q)
    data = tmp_path / "data.csv"
    write_csv(data, q, labels=y)

    # fit -> serialize -> apply twice with the same seed: bit-stable output
    for tag in ("a", "b"):
        assert cli.main(["fit", str(data), "--method", "dirichlet_l2", "--lambda", "1e-3",
                         "--folds", "3", "--seed", "9", "-o", str(tmp_path / f"{tag}.json")]) == 0
        assert cli.main(["apply", str(tmp_path / f"{tag}.json"), str(data),
                         "-o", str(tmp_path / f"{tag}.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # model file round trip: deserialized model applies identically (< 1e-15)
    model = cli.load_model(tmp_path / "a.json")
    cli.save_model(tmp_path / "a2.json", model)
    model2 = cli.load_model(tmp_path / "a2.json")
    gap = np.max(np.abs(model2.apply(q) - model.apply(q)))
    assert gap <= 1e-15

    # compare: identical tables for identical seeds
    import io
    import contextlib

    def run_compare():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["compare", str(data), "--methods", "uncalibrated,dirichlet_l2",
                           "--repeats", "1", "--folds", "2", "--inner-folds", "2",
                           "--resamples", "60", "--seed", "4", "--format", "csv"])
        assert rc == 0
        return buf.getvalue()

    table1 = run_compare()
    table2 = run_compare()
    assert table1 == table2
    _passed(12, f"bit-stable fit/apply, round-trip gap {gap:.1e}, identical compare tables")
