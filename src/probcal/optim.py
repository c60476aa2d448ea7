"""Deterministic convex minimization used by the fitted calibrators.

One routine, a descent with Armijo backtracking, fits every calibrator
with a smooth objective, the one-parameter temperature included. It
takes Newton steps when given the Hessian, either as a dense matrix (solved
by LU, or by least squares for the minimum-norm step when it is exactly
singular) or as an operator (solved by truncated preconditioned conjugate
gradients, Nocedal & Wright ch. 7), and gradient steps otherwise.
Everything here is float64: the value, the gradient and its infinity-norm
stopping rule, the line search, and the CG recurrences and forcing term.
An operator may compute its products in lower precision; that changes
only how closely CG solves a Newton step, which is an approximate solve
anyway (inexact Newton, Dembo, Eisenstat & Steihaug 1982).
It is free of randomness, so repeated runs on identical inputs produce
bit-identical results.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Armijo sufficient-decrease constant.
ARMIJO_C = 1e-4
#: Backtracking shrink factor for the line search.
BACKTRACK = 0.5
_MAX_BACKTRACKS = 60


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


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = -g by LU, or by minimum-norm least squares when LU finds
    H exactly singular (a free direction of the objective, such as an
    unpenalised intercept shift, can make it so)."""
    try:
        return np.linalg.solve(hessian, -grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hessian, -grad, rcond=None)[0]


def _cg_direction(op, grad: np.ndarray, tol: float) -> np.ndarray:
    """Approximately solve H d = -g by preconditioned conjugate gradients.

    ``op.matvec(v)`` gives H v and ``op.precondition(r)`` an approximation
    of H^-1 r. The solve stops once the residual r = -g - H d falls below
    max(eta * ||g||, 0.5 * tol) (2-norms) with the forcing term
    eta = min(0.5, sqrt(||g||)), which gives superlinear convergence of the
    outer iteration, or on non-positive curvature, returning the iterate so
    far (-g if none). ``tol`` is the outer stopping rule's bound on the
    gradient infinity-norm: g + H d is the gradient of the local quadratic
    model at the step, and ||r||_inf <= ||r||_2 <= 0.5 * tol already puts
    it within ``tol``, so solving further near the optimum is wasted.
    """
    gnorm = float(np.linalg.norm(grad))
    target = max(min(0.5, np.sqrt(gnorm)) * gnorm, 0.5 * tol)
    d = np.zeros_like(grad)
    r = -grad
    z = op.precondition(r)
    p = z
    rz = float(r @ z)
    for j in range(grad.size):
        hp = op.matvec(p)
        curvature = float(p @ hp)
        if curvature <= 0.0:
            return d if j else -grad
        alpha = rz / curvature
        d = d + alpha * p
        r = r - alpha * hp
        if np.linalg.norm(r) <= target:
            break
        z = op.precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return d


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0,
    hess: Optional[Callable[[np.ndarray], object]] = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Minimize a smooth convex objective.

    Parameters
    ----------
    fun : callable
        Maps a parameter vector to ``(value, gradient)``.
    x0 : array_like
        Starting point.
    hess : callable, optional
        Maps a parameter vector to its Hessian, either a dense 2-d array or
        an operator with methods ``matvec(v)`` (returns H v) and
        ``precondition(r)`` (approximates H^-1 r). A dense Hessian gives
        Newton steps solved by LU (minimum-norm least squares if it is
        exactly singular); an operator gives Newton steps solved by
        truncated preconditioned conjugate gradients. Without ``hess`` the
        steps follow the negative gradient.
    tol : float
        Convergence threshold on the gradient infinity-norm.
    max_iter : int
        Iteration cap.

    Notes
    -----
    An accepted step satisfies the Armijo condition with constant
    ``ARMIJO_C``, or, where the value no longer resolves the decrease near
    the optimum, raises it by at most a few ulps and shrinks the gradient
    infinity-norm (approximate Armijo, Hager & Zhang 2005). The objective
    is thus non-increasing up to rounding. A Newton step that is not a
    descent direction falls back to the negative gradient.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        x = x.ravel()

    value, grad = fun(x)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise OptimizationError("objective non-finite at starting point")

    iterations = 0
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    for _ in range(max_iter):
        if gnorm <= tol:
            break
        if hess is not None:
            h = hess(x)
            direction = (_newton_direction(h, grad) if isinstance(h, np.ndarray)
                         else _cg_direction(h, grad, tol))
        if hess is None or float(direction @ grad) >= 0.0:
            direction = -grad

        slope = float(grad @ direction)
        rounding = 4.0 * np.spacing(abs(value))
        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = x + step * direction
            cand_value, cand_grad = fun(candidate)
            if np.isfinite(cand_value) and np.all(np.isfinite(cand_grad)) and (
                cand_value <= value + ARMIJO_C * step * slope
                or (cand_value <= value + rounding
                    and float(np.max(np.abs(cand_grad))) < gnorm)
            ):
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            # No further progress possible at floating-point resolution.
            break
        x, value, grad = candidate, cand_value, cand_grad
        gnorm = float(np.max(np.abs(grad)))
        iterations += 1

    return OptimResult(
        params=x,
        final_value=float(value),
        iterations=iterations,
        gradient_norm=gnorm,
        converged=bool(gnorm <= tol),
    )

