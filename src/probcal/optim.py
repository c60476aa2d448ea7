"""Deterministic convex minimization used by the fitted calibrators.

One loop, trust-region Newton-CG (the solver of LIBLINEAR's logistic
regression, Lin, Weng & Keerthi 2008), fits every calibrator with a
smooth objective, the one-parameter temperature included. Everything
here is float64: the value, the gradient and its infinity-norm stopping
rule, the trust-region test, and the CG recurrences and forcing term. An
operator may compute its products in lower precision; that changes only
how closely CG solves a Newton step, which is an approximate solve anyway
(inexact Newton, Dembo, Eisenstat & Steihaug 1982). It is free of
randomness, so repeated runs on identical inputs produce bit-identical
results.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


class OptimizationError(RuntimeError):
    """Raised when the objective or gradient is non-finite at the start."""


@dataclass
class OptimResult:
    params: np.ndarray
    final_value: float
    iterations: int
    gradient_norm: float
    converged: bool


def warn_unconverged(result: OptimResult, stacklevel: int = 2) -> None:
    """Warn (RuntimeWarning) if a fit stopped before its gradient met ``tol``;
    ``stacklevel`` counts from the caller, as in ``warnings.warn``."""
    if not result.converged:
        warnings.warn(f"calibration fit stopped at gradient norm {result.gradient_norm:.2e} "
                      f"after {result.iterations} iterations", RuntimeWarning,
                      stacklevel=stacklevel + 1)


def _steihaug(op, grad: np.ndarray, radius: float, tol: float):
    """Approximately minimize the model g's + s'Hs/2 over ||s||_M <= radius
    by Steihaug-Toint truncated CG (Steihaug 1983; Nocedal & Wright Alg.
    7.2), preconditioned by ``op`` as in ``minimize``.

    CG runs from s = 0 and stops on the boundary when its next iterate
    would leave the ball or its direction has non-positive curvature, and
    inside once the residual r = -g - H s falls below
    max(eta * ||g||, 0.5 * tol) (2-norms), with the forcing term
    eta = min(0.5, sqrt(||g||)) of inexact Newton: g + H s is the model's
    gradient at the step, and ||r|| <= 0.5 * tol already puts it within
    the outer ``tol``. s'Ms, s'Mp and p'Mp follow scalar recurrences, as
    M z = r and r is orthogonal to the earlier directions (Gould, Lucidi,
    Roma & Toint 1999), and H s = -g - r gives the model's decrease
    -(g's + s'Hs/2) = s'(r - g)/2, so neither costs a product.

    Returns s, ||s||_M, the decrease and whether s is on the boundary.
    """
    gnorm = math.sqrt(grad @ grad)
    target = max(min(0.5, math.sqrt(gnorm)) * gnorm, 0.5 * tol)
    s = np.zeros_like(grad)
    r = -grad
    p = op.precondition(r)
    rz = float(r @ p)
    sMs, sMp, pMp = 0.0, 0.0, rz
    for _ in range(grad.size):
        hp = op.matvec(p)
        curvature = float(p @ hp)
        # tau >= 0 puts s + tau p on the boundary: ||s + tau p||_M = radius.
        tau = (math.sqrt(sMp * sMp + pMp * max(radius * radius - sMs, 0.0)) - sMp) / pMp
        boundary = curvature <= 0.0 or rz >= tau * curvature
        alpha = tau if boundary else rz / curvature
        s = s + alpha * p
        r = r - alpha * hp
        sMs += alpha * (2.0 * sMp + alpha * pMp)
        if boundary or math.sqrt(r @ r) <= target:
            break
        z = op.precondition(r)
        rz, rz_old = float(r @ z), rz
        beta = rz / rz_old
        sMp = beta * (sMp + alpha * pMp)
        pMp = rz + beta * beta * pMp
        p = z + beta * p
    return s, math.sqrt(sMs), 0.5 * float(s @ (r - grad)), boundary


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0,
    hess: Callable[[np.ndarray], object],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Minimize a smooth convex objective by trust-region Newton-CG.

    Parameters
    ----------
    fun : callable
        Maps a parameter vector to ``(value, gradient)``.
    x0 : array_like
        Starting point.
    hess : callable
        Maps a parameter vector to its Hessian as an operator: ``matvec(v)``
        returns H v, and ``precondition(r)`` M^-1 r for a positive definite
        M; the trust region is a ball of the norm ||s||_M = sqrt(s'Ms).
    tol : float
        Convergence threshold on the gradient infinity-norm.
    max_iter : int
        Cap on the accepted steps, ``iterations``. A rejected step shrinks
        the radius at least fourfold, so rejections run out once a step no
        longer moves x.

    Notes
    -----
    Each step is a ``_steihaug`` solve, judged by rho, the ratio of the
    objective's decrease to the model's (Nocedal & Wright Alg. 4.1). It is
    accepted at rho >= 1e-4, or, where the value no longer resolves the
    decrease near the optimum, when it raises the value by at most a few
    ulps and shrinks the gradient (approximate Armijo, Hager & Zhang 2005);
    a non-finite value or gradient rejects it. The radius becomes a quarter
    of ||s||_M at rho < 1/4 and doubles at rho > 3/4 on the boundary. It
    starts at 10 ||M^-1 g||_M, room for every Newton step of a fit, as it
    grows only on the boundary: on the 69 fits of fit-dirichlet and
    compare-k10 the longest step was up to 6.5 times the first
    ||M^-1 g||_M, and a start of 1 or 3 times took up to 74% more products.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.array(x0, dtype=float).ravel()

    value, grad = fun(x)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise OptimizationError("objective non-finite at starting point")

    iterations = 0
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    radius = None
    while gnorm > tol and iterations < max_iter:
        op = hess(x)
        if radius is None:
            radius = 10.0 * math.sqrt(grad @ op.precondition(grad))
        step, length, predicted, boundary = _steihaug(op, grad, radius, tol)
        candidate = x + step
        cand_value, cand_grad = fun(candidate)
        finite = bool(np.isfinite(cand_value) and np.all(np.isfinite(cand_grad)))
        ratio = (value - cand_value) / predicted if finite and predicted > 0.0 else -np.inf
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and boundary:
            radius *= 2.0
        if finite and (ratio >= 1e-4 or (
                cand_value <= value + 4.0 * np.spacing(abs(value))
                and float(np.max(np.abs(cand_grad))) < gnorm)):
            x, value, grad = candidate, cand_value, cand_grad
            gnorm = float(np.max(np.abs(grad)))
            iterations += 1
        elif np.array_equal(candidate, x):
            # No further progress possible at floating-point resolution.
            break

    return OptimResult(
        params=x,
        final_value=float(value),
        iterations=iterations,
        gradient_norm=gnorm,
        converged=bool(gnorm <= tol),
    )
