"""Logit-space calibrators: temperature, vector and matrix scaling.

Temperature scaling rescales the whole logit vector by one positive factor;
vector scaling learns a per-class factor and intercept; matrix scaling
learns a full affine map. Matrix scaling is fitted with the
off-diagonal/intercept penalty (the diagonal stays free), and an ablation
helper zeroes the fitted off-diagonal entries. Temperature scaling can be
expressed exactly as a Dirichlet map on probabilities, which is also
implemented here.
"""

import functools
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import as_label_vector, as_logit_matrix, softmax
from .dirichlet import LinearParams, OdirConfig, fit_multinomial, softmax_layer
from .optim import minimize, warn_unconverged

#: Search bounds for the fitted temperature.
T_MIN = 1e-2
T_MAX = 1e2


@dataclass(frozen=True)
class TemperatureParams:
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
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
    out = z / t
    softmax(out, axis=1, out=out)
    return out[0] if single else out


def fit_temperature(z, labels, t_min: float = T_MIN, t_max: float = T_MAX,
                    tol: float = 1e-8) -> TemperatureParams:
    """Pick the temperature minimizing mean log-loss on held-out logits.

    This is the Dirichlet map W = I/t, b = 0 (``temperature_as_dirichlet``),
    fitted as beta = 1/t by ``optim.minimize``: the loss is convex in beta,
    with gradient mean(E_p[z] - z_y) and curvature mean(Var_p[z]) under
    p = softmax(beta z). ``tol`` bounds the gradient's magnitude; a fit
    stopping short of it warns, and gives t_max if it stopped at beta <= 0,
    on the side of flattening. If the loss still falls at t_min, the fit
    returns t_min, else if it still rises at t_max, t_max, with a warning
    either way: the data want unbounded sharpening (every prediction
    correct) or flattening (predictions uninformative); a loss flat in beta
    gives t_min. Otherwise the trust-region fit starts at the geometric
    middle of [1/t_max, 1/t_min] (beta = 1 by default) with M = I, so that
    the radius bounds the step in beta: in confident data the curvature h
    nears 0, and a radius in the norm of M = h would allow 10 g / h.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    z = as_logit_matrix(z)
    y = as_label_vector(labels, z.shape[1], z.shape[0])
    if np.unique(y).size < 2:
        raise ValueError("labels contain a single class; nothing to fit")
    # Logits less the label's, class-major (see dirichlet._prepare): the loss
    # is mean(logsumexp(beta d)), and equal logits add exactly 0 to the gradient.
    d = np.ascontiguousarray(z.T)
    label = y * d.shape[1] + np.arange(d.shape[1])
    d -= d.flat[label]

    # Loss, gradient and curvature; minimize asks for the Hessian at its last point.
    @functools.lru_cache(maxsize=1)
    def moments(beta):
        s = beta * d
        top = s.max(axis=0)
        p = np.exp(s - top)
        p.flat[label] = 0.0  # so that a confident row's loss is log1p(rest)
        rest = p.sum(axis=0)
        p.flat[label] = own = np.exp(-top)
        p /= rest + own
        mean = (p * d).sum(axis=0)
        var = (p * (d - mean) ** 2).sum(axis=0)
        return float((top + np.log1p(rest + np.expm1(-top))).mean()), mean.mean(), var.mean()

    def hessian(b):
        h = moments(b[0])[2]
        return SimpleNamespace(matvec=lambda v: h * v, precondition=lambda r: r)

    lo, hi = 1.0 / t_max, 1.0 / t_min
    if moments(hi)[1] > 0.0 > moments(lo)[1]:
        result = minimize(lambda b: (moments(b[0])[0], np.array([moments(b[0])[1]])),
                          [np.sqrt(lo * hi)], hess=hessian, tol=tol)
        warn_unconverged(result)
        beta = result.params[0]
        t = t_max if beta <= 0.0 else float(np.clip(1.0 / beta, t_min, t_max))
        return TemperatureParams(t=t)
    t = t_min if moments(hi)[1] <= 0.0 else t_max
    warnings.warn(f"fitted temperature {t:g} sits on the search bound [{t_min:g}, {t_max:g}]",
                  RuntimeWarning, stacklevel=2)
    return TemperatureParams(t=t)


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
    ``_start`` when a grid search fits its points as a path, and take
    trust-region Newton-CG steps (``dirichlet.fit_multinomial``): vector
    scaling on its dense Hessian, and matrix scaling, at any k, on
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
