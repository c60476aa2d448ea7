"""Hyperparameter grids, inner-CV ensemble fitting, and nested comparison.

The fitting protocol: split the calibration data into folds, fit every
grid point on each fold's training part, score mean validation log-loss,
pick the best grid point, and keep its per-fold calibrators as an
ensemble. The comparison harness wraps that protocol in repeated outer
cross-validation and aggregates the full measure bundle per method.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CLIP_FLOOR, LOGITS, PROBABILITIES, as_probability_matrix, softmax
from .metrics import DEFAULT_BINS, _Binning, _confidence_binning, evaluate, log_loss
from .models import METHOD_INPUT, EnsembleModel, fit_calibrator, method_spec
from .stattest import _mix64, acceptance_rate, calibration_test, check_alpha

#: Penalty-weight grid, 1e-7 .. 1e2 log-spaced.
LAMBDA_GRID = tuple(10.0 ** e for e in range(-7, 3))
#: Bin-count grid for the binning calibrators.
BIN_GRID = (5, 10, 15, 20, 25, 30)


@dataclass(frozen=True)
class HyperGrid:
    """Candidate hyperparameter values for one method."""

    lambdas: tuple = LAMBDA_GRID
    mus: tuple = ()
    bins: tuple = BIN_GRID

    def points(self, method: str) -> list:
        """Grid points (dicts) in deterministic order for one method.

        The hyperparameters searched are those the method's defaults name.
        Without ``mus``, a method with both ``lam`` and ``mu`` ties mu to
        lambda, and one with ``mu`` alone keeps its default.
        """
        names = method_spec(method).defaults
        if "bins" in names:
            return [{"bins": int(b)} for b in self.bins]
        if "lam" not in names:
            return [{"mu": m} for m in (self.mus or (names["mu"],))] if "mu" in names else [{}]
        if "mu" not in names:
            return [{"lam": l} for l in self.lambdas]
        if self.mus:
            return [{"lam": l, "mu": m} for l in self.lambdas for m in self.mus]
        return [{"lam": l, "mu": l} for l in self.lambdas]


def stratified_folds(y, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold index per instance, stratified by class.

    Within each class the indices are shuffled by hashing (seed, position)
    and dealt round-robin, so every fold sees each class as evenly as the
    counts allow.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > n:
        raise ValueError(f"cannot split {n} instances into {folds} folds")
    assignment = np.empty(n, dtype=np.int64)
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        keys = _mix64(np.uint64(seed % (1 << 64)) + np.arange(offset, offset + idx.size, dtype=np.uint64))
        idx = idx[np.argsort(keys, kind="stable")]
        assignment[idx] = np.arange(idx.size) % folds
        offset += idx.size
    return assignment


def cross_val_fit(method: str, X, y, folds: int, seed: int = 0,
                  grid: HyperGrid | None = None,
                  fixed_hyper: dict | None = None,
                  clip_floor: float = DEFAULT_CLIP_FLOOR,
                  label_names: list | None = None):
    """Inner-CV protocol: grid selection by mean validation log-loss + ensemble.

    Returns ``(model, best_hyper, table)`` where ``table`` lists
    ``(hyper, mean_val_log_loss)`` per grid point. With ``folds == 1`` the
    method is fitted once on all the data (no grid search possible).

    Each fold's grid points are fitted in grid order as a path: the fit at
    a point starts from that fold's fit at the previous point, which the
    Dirichlet and affine-logit methods use as their starting point (the
    first point starts from the identity). Every fit still runs to the
    same tolerance, so the path changes the iterates, not the optimum.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if grid is None:
        candidates = [dict(fixed_hyper if fixed_hyper is not None else method_spec(method).defaults)]
    else:
        candidates = grid.points(method)
        if not candidates:
            raise ValueError(f"empty hyperparameter grid for method {method}")

    if folds == 1:
        if len(candidates) > 1:
            raise ValueError("grid search requires folds >= 2")
        hyper = dict(candidates[0])
        model = fit_calibrator(method, X, y, hyper, label_names=label_names,
                               clip_floor=clip_floor, seed=seed)
        return model, hyper, [(hyper, None)]

    # Only the fold masks live through the grid; each fit slices its rows.
    assignment = stratified_folds(y, folds, seed)
    train_masks = [assignment != f for f in range(folds)]
    previous = [None] * folds
    table = []
    best = None
    for hyper in candidates:
        members = []
        losses = []
        for f, train in enumerate(train_masks):
            member = fit_calibrator(method, X[train], y[train], hyper,
                                    label_names=label_names, clip_floor=clip_floor,
                                    seed=seed, _start=previous[f])
            members.append(member)
            losses.append(log_loss(member.apply(X[~train]), y[~train], clip_floor))
        previous = members
        mean_loss = float(np.mean(losses))
        table.append((dict(hyper), mean_loss))
        if best is None or mean_loss < best[0]:
            best = (mean_loss, dict(hyper), members)

    _, best_hyper, members = best
    model = EnsembleModel(members=members) if len(members) > 1 else members[0]
    return model, best_hyper, table


#: The measures of a MethodComparison, in output order: the fold reports'
#: means, then the significance tests' acceptance rates.
MEASURES = ("accuracy", "error_rate", "log_loss", "brier", "conf_ece", "cw_ece", "mce",
            "p_conf_ece", "p_cw_ece")


@dataclass
class MethodComparison:
    """Aggregated measures of one method over the outer folds."""

    method: str
    best_hypers: list
    fold_reports: list
    accuracy: float = 0.0
    error_rate: float = 0.0
    log_loss: float = 0.0
    brier: float = 0.0
    conf_ece: float = 0.0
    cw_ece: float = 0.0
    mce: float = 0.0
    p_conf_ece: float = 0.0
    p_cw_ece: float = 0.0

    def as_dict(self) -> dict:
        return {"method": self.method, **{name: getattr(self, name) for name in MEASURES}}


def _evaluate_and_test(p, y, m: int, floor: float, n_resamples: int, seed: int):
    """``evaluate`` and both calibration tests, the confidence test with
    ``seed`` and the classwise one with ``seed + 1``, on one binning of the
    predictions. Returns the report, which carries both p-values, and the
    two test results."""
    p = as_probability_matrix(p)
    classwise, conf = _Binning(p, m), _confidence_binning(p, m)
    report = evaluate(p, y, m, floor, _binnings=(classwise, conf))
    conf_t = calibration_test(p, y, "conf_ece", m, n_resamples, seed, _binning=conf)
    del conf  # the classwise test sets the peak; hold no more through it than it needs
    cw_t = calibration_test(p, y, "cw_ece", m, n_resamples, seed + 1, _binning=classwise)
    report.p_conf_ece, report.p_cw_ece = conf_t.p_value, cw_t.p_value
    return report, conf_t, cw_t


def compare_methods(X, y, kind: str, methods, repeats: int = 5, outer_folds: int = 5,
                    inner_folds: int = 3, grids: dict | None = None,
                    fixed_hypers: dict | None = None,
                    bins: int = DEFAULT_BINS, n_resamples: int = 10000,
                    alpha: float = 0.05, seed: int = 0,
                    clip_floor: float = DEFAULT_CLIP_FLOOR) -> list:
    """Repeated outer CV around the inner-CV fitting protocol.

    Parameters
    ----------
    X : prediction rows, probabilities or logits according to ``kind``.
    y : integer labels.
    kind : {"probabilities", "logits"}
        Probability methods consume softmax(X) when logits are supplied;
        logit methods require ``kind == "logits"``.
    methods : sequence of method tags to compare.
    repeats, outer_folds, inner_folds : the R x F x inner protocol shape.
    grids : optional {method: HyperGrid}; methods not listed use their
        fixed defaults.
    n_resamples, alpha : significance-test configuration; the aggregated
        p_conf_ece / p_cw_ece are the fractions of outer folds whose test
        accepted calibration at level alpha.

    Returns a list of MethodComparison in the given method order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if kind not in (PROBABILITIES, LOGITS):
        raise ValueError(f"unknown prediction kind {kind!r}")
    if repeats < 1:
        raise ValueError("need at least 1 repeat")
    check_alpha(alpha)
    for method in methods:
        if method_spec(method).input == LOGITS and kind != LOGITS:
            raise ValueError(f"method {method} requires logit inputs")
    probs = softmax(X, axis=1) if kind == LOGITS else X

    # method -> one (report, best hyperparameters, conf test, cw test) per outer fold
    per_method = {m: [] for m in methods}
    for r in range(repeats):
        outer_seed = int(_mix64(np.uint64(seed % (1 << 64)) + np.uint64(1000 + r)))
        assignment = stratified_folds(y, outer_folds, outer_seed)
        for f in range(outer_folds):
            train = assignment != f
            test = ~train
            test_seed = int(_mix64(np.uint64(outer_seed) + np.uint64(f)) % (1 << 62))
            for method in methods:
                feats = X if METHOD_INPUT[method] == LOGITS else probs
                grid = (grids or {}).get(method)
                fixed = (fixed_hypers or {}).get(method)
                model, best_hyper, _ = cross_val_fit(
                    method, feats[train], y[train], inner_folds, seed=outer_seed,
                    grid=grid, fixed_hyper=fixed, clip_floor=clip_floor,
                )
                calibrated = model.apply(feats[test])
                report, conf_t, cw_t = _evaluate_and_test(calibrated, y[test], bins, clip_floor,
                                                          n_resamples, test_seed)
                per_method[method].append((report, best_hyper, conf_t, cw_t))

    results = []
    for method in methods:
        reports, hypers, conf_tests, cw_tests = map(list, zip(*per_method[method]))
        means = {name: float(np.mean([getattr(rep, name) for rep in reports]))
                 for name in MEASURES[:-2]}
        results.append(MethodComparison(
            method=method, best_hypers=hypers, fold_reports=reports, **means,
            p_conf_ece=acceptance_rate(conf_tests, alpha),
            p_cw_ece=acceptance_rate(cw_tests, alpha),
        ))
    return results
