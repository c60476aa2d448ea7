"""Deterministic convex minimization used by the fitted calibrators.

Two routines: a multivariate descent with Armijo backtracking, and a
bounded golden-section search for one-dimensional problems. The descent
takes Newton steps when given the Hessian, either as a dense matrix (solved
by LU, or by least squares for the minimum-norm step when it is exactly
singular) or as an operator (solved by truncated preconditioned conjugate
gradients, Nocedal & Wright ch. 7), and gradient steps otherwise.
Both routines are free of randomness, so repeated runs on identical inputs
produce bit-identical results.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Armijo sufficient-decrease constant.
ARMIJO_C = 1e-4
#: Backtracking shrink factor for the line search.
BACKTRACK = 0.5
#: Parameter count up to which the multinomial fits pass a dense Hessian
#: (dense Newton) and above which a Hessian operator (Newton-CG). The
#: dense Hessian of d parameters costs O(n d^2 + d^3) per step, an operator
#: product O(n d). Measured crossover with full W (ODIR fits, one BLAS
#: thread, medians of 7 alternating fits), dense vs CG: at n = 3333, 78 vs
#: 89 ms for k = 15 (240 parameters), 80 vs 58 ms for k = 16 (272) and 88 vs
#: 65 ms for k = 17 (306); at n = 10^4, 189 vs 242, 229 vs 183 and 280 vs
#: 257 ms.
DENSE_NEWTON_MAX_DIM = 240

_MAX_BACKTRACKS = 60


class OptimizationError(RuntimeError):
    """Raised when the objective or gradient turns non-finite.

    Carries the last finite iterate in ``last_params``.
    """

    def __init__(self, message: str, last_params: Optional[np.ndarray] = None):
        super().__init__(message)
        self.last_params = last_params


@dataclass
class OptimResult:
    params: np.ndarray
    final_value: float
    iterations: int
    gradient_norm: float
    converged: bool


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = -g by LU, or by minimum-norm least squares when LU finds
    H exactly singular (a free direction of the objective, such as an
    unpenalised intercept shift, can make it so)."""
    try:
        return np.linalg.solve(hessian, -grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hessian, -grad, rcond=None)[0]


def _cg_direction(op, grad: np.ndarray) -> np.ndarray:
    """Approximately solve H d = -g by preconditioned conjugate gradients.

    ``op.matvec(v)`` gives H v and ``op.precondition(r)`` an approximation
    of H^-1 r. The solve stops once the residual falls below eta * ||g||
    (2-norms) with the forcing term eta = min(0.5, sqrt(||g||)), which
    gives superlinear convergence of the outer iteration, or on
    non-positive curvature, returning the iterate so far (-g if none).
    """
    gnorm = float(np.linalg.norm(grad))
    target = min(0.5, np.sqrt(gnorm)) * gnorm
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
        raise OptimizationError("objective non-finite at starting point", last_params=None)

    iterations = 0
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    for _ in range(max_iter):
        if gnorm <= tol:
            break
        if hess is not None:
            h = hess(x)
            solve = _newton_direction if isinstance(h, np.ndarray) else _cg_direction
            direction = solve(h, grad)
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


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8) -> float:
    """Golden-section search for the minimum of a unimodal f on [lo, hi].

    Ties between the two probe values keep the lower bracket, so a flat
    stretch of minima (e.g. a loss saturated at floating-point resolution)
    resolves to its smallest argmin.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
