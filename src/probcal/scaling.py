"""Logit-space calibrators: temperature, vector and matrix scaling.

Temperature scaling rescales the whole logit vector by one positive factor;
vector scaling learns a per-class factor and intercept; matrix scaling
learns a full affine map. Matrix scaling is fitted with the
off-diagonal/intercept penalty (the diagonal stays free), and an ablation
helper zeroes the fitted off-diagonal entries. Temperature scaling can be
expressed exactly as a Dirichlet map on probabilities, which is also
implemented here.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import as_label_vector, as_logit_matrix, softmax
from .dirichlet import LinearParams, OdirConfig, fit_multinomial, softmax_layer
from .optim import minimize_scalar

#: Search bounds for the fitted temperature.
T_MIN = 1e-2
T_MAX = 1e2


@dataclass(frozen=True)
class TemperatureParams:
    t: float

    def __post_init__(self):
        if not (self.t > 0.0 and np.isfinite(self.t)):
            raise ValueError("temperature must be a positive finite number")


#: Weights of softmax(W z + b) on logits z: the same layer as the Dirichlet
#: map's linear form, so the same type. Vector-scaling fits keep W diagonal.
AffineLogitParams = LinearParams


def _as_temperature(params) -> float:
    t = params.t if isinstance(params, TemperatureParams) else float(params)
    if t <= 0.0:
        raise ValueError("temperature must be positive")
    return t


def apply_temperature(z, params) -> np.ndarray:
    """Row-wise softmax(z / t)."""
    t = _as_temperature(params)
    single = np.asarray(z).ndim == 1
    z = as_logit_matrix(z)
    out = softmax(z / t, axis=1)
    return out[0] if single else out


def fit_temperature(z, labels, t_min: float = T_MIN, t_max: float = T_MAX,
                    tol: float = 1e-10) -> TemperatureParams:
    """Pick the temperature minimizing mean log-loss on held-out logits.

    The search runs over log t on [t_min, t_max]; a fit landing on a bound
    triggers a warning, since the data wanted unbounded sharpening (every
    prediction correct) or flattening (predictions uninformative).

    The logits are transposed once per fit to a (k, n) array, and each loss
    evaluation reduces over its axis 0: at k <= 11, numpy's max and sum
    along the short rows of an (n, k) array are an order of magnitude
    slower (see ``dirichlet._prepare``).
    """
    z = as_logit_matrix(z)
    y = as_label_vector(labels, z.shape[1], z.shape[0])
    if np.unique(y).size < 2:
        raise ValueError("labels contain a single class; nothing to fit")
    zt = np.ascontiguousarray(z.T)
    picked = (y, np.arange(z.shape[0]))

    def loss_at_log_t(log_t):
        scaled = zt / np.exp(log_t)
        shifted = scaled - scaled.max(axis=0)
        log_norm = np.log(np.exp(shifted).sum(axis=0))
        return -(shifted[picked] - log_norm).mean()

    lo, hi = np.log(t_min), np.log(t_max)
    best = minimize_scalar(loss_at_log_t, lo, hi, tol=tol)
    if min(best - lo, hi - best) < 1e-6 * (hi - lo):
        warnings.warn(
            f"fitted temperature {np.exp(best):g} sits on the search bound "
            f"[{t_min:g}, {t_max:g}]",
            RuntimeWarning,
            stacklevel=2,
        )
    return TemperatureParams(t=float(np.exp(np.clip(best, lo, hi))))


def temperature_as_dirichlet(params, k: int) -> LinearParams:
    """Temperature scaling as a Dirichlet map: W = (1/t) I, b = 0.

    Applying the returned map to softmax(z) reproduces softmax(z / t)
    exactly, for any logits z with k classes.
    """
    t = _as_temperature(params)
    return LinearParams(W=np.eye(k) / t, b=np.zeros(k))


# ---------------------------------------------------------------------------
# Vector and matrix scaling: the multinomial fitting core on logit features
# ---------------------------------------------------------------------------

def fit_affine_logit(z, labels, mode: str = "matrix",
                     reg: OdirConfig = OdirConfig(0.0, 0.0),
                     tol: float = 1e-8, max_iter: int = 500, *,
                     _start=None) -> AffineLogitParams:
    """Fit softmax(W z + b) by penalized maximum likelihood.

    Parameters
    ----------
    z : array_like, shape (n, k)
        Logit rows.
    labels : array_like, shape (n,)
        Integer class labels.
    mode : {"matrix", "vector"}
        ``vector`` restricts W to its diagonal, which makes the
        off-diagonal penalty term vacuous; the intercept penalty ``mu``
        still applies.
    reg : OdirConfig
        Off-diagonal weight ``lam`` and intercept weight ``mu``.

    This is the Dirichlet map's layer on logits instead of ln q, fitted by
    the same core with b as the weight of a constant feature, so the result
    is a ``LinearParams`` (``AffineLogitParams`` names the same type). Both
    modes start from the identity (W = I, b = 0), or from the map
    ``_start`` when a grid search fits its points as a path, and use Newton
    steps with a backtracking line search (``dirichlet.fit_multinomial``):
    vector scaling, and matrix scaling up to k = 15, solve each step with
    the dense Hessian; larger matrix-scaling fits use Newton-CG on
    Hessian-vector products.
    """
    if mode not in ("matrix", "vector"):
        raise ValueError(f"mode must be 'matrix' or 'vector', got {mode!r}")
    return fit_multinomial(as_logit_matrix(z), labels, reg, diagonal=mode == "vector", tol=tol,
                           max_iter=max_iter, _start=_start)


def apply_affine_logit(z, params: AffineLogitParams) -> np.ndarray:
    """Row-wise softmax(W z + b)."""
    out = softmax_layer(as_logit_matrix(z), params.W, params.b)
    return out[0] if np.ndim(z) == 1 else out


def zero_offdiagonal(params: AffineLogitParams) -> AffineLogitParams:
    """Copy with off-diagonal weights set to zero (diagonal and b kept)."""
    return AffineLogitParams(W=np.diag(np.diag(params.W)), b=params.b.copy())
