"""The Dirichlet calibration map family.

A Dirichlet calibration map transforms a probability vector q on the
(k-1)-simplex into another one. The family has three equivalent
parametrizations, each useful for a different purpose:

* generative ``(alpha, pi)`` -- per-class Dirichlet densities combined by
  Bayes' rule: ``(pi_1 f_1(q), ..., pi_k f_k(q)) / z``;
* linear ``(W, b)`` -- ``softmax(W ln q + b)``, the form used for fitting
  (it is multinomial logistic regression on log-probabilities);
* canonical ``(A, c)`` -- ``softmax(A ln(q / (1/k)) + ln c)`` with A
  nonnegative and a zero in every column; the unique, interpretable form.

Conversions between the three are exact and implemented below, together
with map application, penalized maximum-likelihood fitting, and the k+1
interpretation points of the canonical form.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .core import ROW_SUM_TOL, as_label_vector, clip_probabilities, log_transform, softmax
from .optim import minimize, warn_unconverged


# ---------------------------------------------------------------------------
# Parametrizations
# ---------------------------------------------------------------------------

def _check_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 2:
        raise ValueError(f"{name} must be a square k x k matrix with k >= 2")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _check_simplex_vector(v, k, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (k,):
        raise ValueError(f"{name} must have length {k}")
    if np.any(v < 0.0) or abs(v.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"{name} must be a probability vector")
    return v


@dataclass(frozen=True)
class LinearParams:
    """Weights of the layer softmax(W x + b): the fitting form of a Dirichlet
    map (x = ln q), and the weights of matrix and vector scaling (x = logits)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = _check_square(self.W, "W")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (W.shape[0],) or not np.all(np.isfinite(b)):
            raise ValueError("b must be a finite vector of length k")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def k(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class CanonicalParams:
    """Unique form softmax(A ln(kq) + ln c): A >= 0 with a zero per column."""

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = _check_square(self.A, "A")
        if np.any(A < -1e-12):
            raise ValueError("A must be entrywise nonnegative")
        if np.any(A.min(axis=0) > 1e-12):
            raise ValueError("every column of A must contain a zero entry")
        c = _check_simplex_vector(self.c, A.shape[0], "c")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def k(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GenerativeParams:
    """Per-class Dirichlet parameters (row j of alpha) and class priors pi."""

    alpha: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        alpha = _check_square(self.alpha, "alpha")
        if np.any(alpha <= 0.0):
            raise ValueError("alpha entries must be strictly positive")
        pi = _check_simplex_vector(self.pi, alpha.shape[0], "pi")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pi", pi)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class L2Config:
    """Uniform squared penalty lam * mean of all squared parameters."""

    lam: float
    include_intercept: bool = True

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")


@dataclass(frozen=True)
class OdirConfig:
    """Off-diagonal and intercept penalty weights; the diagonal stays free."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.lam < 0.0 or self.mu < 0.0:
            raise ValueError("penalty weights must be nonnegative")


# ---------------------------------------------------------------------------
# Map application
# ---------------------------------------------------------------------------

def softmax_layer(x, W, b) -> np.ndarray:
    """softmax(W x + b) of each row x of a 2-d feature matrix."""
    if x.shape[1] != W.shape[1]:
        raise ValueError(f"expected {W.shape[1]} classes, got {x.shape[1]}")
    z = x @ W.T
    z += b
    return softmax(z, axis=1, out=z)


def apply_linear(q, params: LinearParams, floor: Optional[float] = None) -> np.ndarray:
    """Apply softmax(W ln q + b) to one or many probability rows.

    With ``floor``, q is clipped there first (``clip_probabilities``) and
    ln q is taken in the clipped copy, so the map holds one array of q's
    size beside its output.
    """
    if floor is None:
        x = log_transform(q)
    else:
        x = clip_probabilities(q, floor)
        np.log(x, out=x)
    out = softmax_layer(np.atleast_2d(x), params.W, params.b)
    return out[0] if np.ndim(q) == 1 else out


def apply_canonical(q, params: CanonicalParams) -> np.ndarray:
    """Apply softmax(A ln(q/(1/k)) + ln c); the simplex centre maps to c."""
    if np.any(params.c <= 0.0):
        raise ValueError("c contains zero entries; the canonical offset ln c is undefined")
    # A ln(kq) + ln c  ==  A ln q + (ln k * rowsum(A) + ln c)
    offset = np.log(float(params.k)) * params.A.sum(axis=1) + np.log(params.c)
    return apply_linear(q, LinearParams(W=params.A, b=offset))


def apply_generative(q, params: GenerativeParams) -> np.ndarray:
    """Apply (pi_1 f_1(q), ..., pi_k f_k(q)) / z with Dirichlet densities f_j.

    Densities are evaluated in log space via log-gamma, so very peaked
    parameter rows stay finite.
    """
    # log pi_j f_j(q) = sum_i (alpha_ji - 1) ln q_i + ln pi_j - ln B(alpha_j):
    # the layer of from_generative, kept here because pi may contain zeros.
    with np.errstate(divide="ignore"):
        offset = np.log(params.pi) - _log_beta(params.alpha)
    out = softmax_layer(np.atleast_2d(log_transform(q)), params.alpha - 1.0, offset)
    if np.any(np.isnan(out)):
        raise ValueError("non-finite Dirichlet density")
    return out[0] if np.ndim(q) == 1 else out


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _log_beta(alpha: np.ndarray) -> np.ndarray:
    """Log multivariate beta function of each row (entries must be positive)."""
    return _lgamma(alpha).sum(axis=-1) - _lgamma(alpha.sum(axis=-1))


# ---------------------------------------------------------------------------
# Conversions (the three parametrizations contain exactly the same maps)
# ---------------------------------------------------------------------------

def from_generative(params: GenerativeParams) -> LinearParams:
    """Convert (alpha, pi) to the linear form: W = alpha - 1, b_i = ln pi_i - ln B(alpha_i)."""
    if np.any(params.pi <= 0.0):
        raise ValueError("pi contains zero entries; ln pi is undefined")
    W = params.alpha - 1.0
    b = np.log(params.pi) - _log_beta(params.alpha)
    return LinearParams(W=W, b=b)


def to_canonical(params: LinearParams) -> CanonicalParams:
    """Convert (W, b) to the unique canonical form.

    a_ij = w_ij - min_i w_ij (column minima become exact zeros) and
    c = softmax(W ln u + b) at the simplex centre u = (1/k, ..., 1/k).
    """
    k = params.k
    A = params.W - params.W.min(axis=0, keepdims=True)
    c = softmax(np.log(1.0 / k) * params.W.sum(axis=1) + params.b)
    return CanonicalParams(A=A, c=c)


def to_generative(params: CanonicalParams) -> GenerativeParams:
    """Convert (A, c) to the generative form.

    alpha = A + 1; the intermediate intercept is b = ln c - A ln u; priors
    are pi_i proportional to exp(b_i) B(alpha_i), renormalized (the map is
    invariant to the scale of pi).
    """
    if np.any(params.c <= 0.0):
        raise ValueError("c contains zero entries; ln c is undefined")
    k = params.k
    alpha = params.A + 1.0
    b = np.log(params.c) - np.log(1.0 / k) * params.A.sum(axis=1)
    pi = softmax(b + _log_beta(alpha))
    return GenerativeParams(alpha=alpha, pi=pi)


# ---------------------------------------------------------------------------
# Fitting: penalized multinomial logistic regression on log-probabilities
# ---------------------------------------------------------------------------

def _penalty_matrix(reg, k: int):
    """Per-entry quadratic penalty weights of [W | b], shape (k, k+1)."""
    if isinstance(reg, L2Config):
        count = k * k + (k if reg.include_intercept else 0)
        pen = np.full((k, k + 1), reg.lam / count)
        if not reg.include_intercept:
            pen[:, k] = 0.0
    elif isinstance(reg, OdirConfig):
        pen = np.full((k, k + 1), reg.lam / (k * (k - 1)))
        np.fill_diagonal(pen, 0.0)
        pen[:, k] = reg.mu / k
    else:
        raise TypeError(f"reg must be L2Config or OdirConfig, got {type(reg).__name__}")
    return pen


def _free_mask(k: int, diagonal: bool):
    """The fitted entries of [W | b]: [I | 1] for diagonal W, all otherwise."""
    free = np.ones((k, k + 1), dtype=bool)
    if diagonal:
        free[:, :k] = np.eye(k, dtype=bool)
    return free


def _unpack(theta, free):
    """The (k, k+1) matrix [W | b] whose ``free`` entries, row by row, are theta."""
    M = np.zeros(free.shape)
    M[free] = theta
    return M


def _value_grad(theta, XT, y, pen, free):
    n = y.size
    M = _unpack(theta, free)
    scores = M @ XT
    shifted = scores - scores.max(axis=0)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0))
    picked = (y, np.arange(n))
    value = -logp[picked].mean() + float((pen * M * M).sum())
    resid = np.exp(logp)
    resid[picked] -= 1.0
    resid /= n
    return value, (resid @ XT.T + 2.0 * pen * M)[free]


def _hessian(theta, XT, pen, free):
    """The float64 Hessian of ``_value_grad`` over the ``free`` entries."""
    k, n = free.shape[0], XT.shape[1]
    P = softmax(_unpack(theta, free) @ XT, axis=0)
    # Class-block layout: block a holds the free entries of row a of [W | b],
    # which multiply G[a], the rows of XT they see.
    G = XT[np.nonzero(free)[1].reshape(k, -1)]
    width = G.shape[1]
    V = P[:, None, :] * G
    flat = V.reshape(k * width, n)
    H = -(flat @ flat.T)
    # Block a gains G[a] diag(P[a]) G[a]', all k blocks in one batched product.
    H.reshape(k, width, k, width)[np.arange(k), :, np.arange(k), :] += V @ G.transpose(0, 2, 1)
    H /= n
    H[np.diag_indices_from(H)] += 2.0 * pen[free]
    return H


def _flush_to(P, dtype):
    """P cast to ``dtype``, with the entries below the square root of its
    smallest normal number set to 0, so that a product of two kept factors
    is never subnormal."""
    if P.dtype == dtype:
        return P
    low = P.astype(dtype)
    low[low < np.sqrt(np.finfo(dtype).tiny)] = 0.0
    return low


def _ridged_inverse(blocks, dtype):
    """The inverse of each matrix of ``blocks`` (last two axes) plus a ridge
    of its mean diagonal times 1e-10, or 100 rounding units of ``dtype``.

    The ridge keeps the inverse bounded where a class's features are
    collinear (centred logits, say) and its block is singular or nearly so.
    Float32 rounding of about 1e-7 in that null space needs 1.2e-5 to stay
    out of the step: with 1e-10 the weights of an unpenalised matrix fit on
    centred logits grew to 49, against 1.3.
    """
    width = blocks.shape[-1]
    scale = np.trace(blocks, axis1=-2, axis2=-1) / width
    relative = max(1e-10, 100.0 * float(np.finfo(dtype).eps))
    ridge = relative * np.where(scale > 0.0, scale, 1.0)
    return np.linalg.inv(blocks + ridge[..., None, None] * np.eye(width))


class _HessianOperator:
    """The Hessian of ``_value_grad`` with every entry of [W | b] free,
    applied as products: one operator serves the Newton-CG steps of a fit.

    Everything is class-major, like ``_value_grad``: ``XT`` is the (k+1, n)
    feature matrix and P = softmax(M XT) the (k, n) probabilities at the
    point set by ``at(theta)``. ``matvec(v)`` is H v = vec(R XT' / n) +
    2 pen * v with U = V XT and R = P*U - P*colsum(P*U), where V is v as a
    (k, k+1) matrix: O(n k^2) per product, where the dense ``_hessian``
    costs O(n k^4). ``precondition`` applies the inverse of the Hessian's
    block diagonal (block-Jacobi): block a couples row a of [W | b], which
    is contiguous in theta, and equals XT diag(P_a (1 - P_a)) XT' / n plus
    its penalty.

    ``products`` counts the products of the current CG solve. Building the
    blocks costs O(n k^3), as much as k or so products, so ``at`` keeps the
    block inverse, built at an earlier theta. Any fixed positive definite
    preconditioner leaves CG solving the true H d = -g, so only the product
    count can grow; ``at`` rebuilds the blocks once the last solve took more
    than ``REBUILD_RATIO`` times the products of the first solve after they
    were built.

    Precision: P is float64, from the float64 ``XT``; the products and the
    block builds run in ``dtype``, on ``XT`` cast once. In float32:

    - P is cast once per point, and entries below the square root of
      float32's smallest normal number (1.1e-19) are flushed to 0: the
      products of saturated rows went subnormal, and with a flush at the
      smallest normal number those of a k = 50 fit took 5.3 s against
      1.3 s in float64 (1.1-1.2 s against 0.8-0.9 s at 1.1e-19 once v
      was scaled as below).
    - V XT, P*U, the column sums, R XT' and S S' are float32. Each product
      runs on v / max|v| and takes each instance's entry at its most
      probable class off U (see ``matvec``), which keeps rounding relative
      to the instance's curvature.
    - The scale of v, the division by n, the penalty term, the ridge and
      the block inverse are float64, and ``matvec`` returns float64.

    A float32 product is within about 1e-7 of the exact one, relative to
    its largest entry, and the CG solve it serves only has to reach the
    forcing term of ``optim._steihaug``.
    """

    #: Growth of the CG product count, against the first solve after a
    #: build, past which ``at`` builds fresh blocks.
    REBUILD_RATIO = 2

    def __init__(self, XT, pen, dtype=np.float64):
        self._scores_XT, self.XT = XT, XT.astype(dtype, copy=False)
        self.pen = 2.0 * pen.ravel()
        # The product count past which ``at`` rebuilds the blocks: -1 builds
        # them at the first point, and None waits for the first solve.
        self.products, self.limit = 0, -1

    def at(self, theta):
        """The operator at theta, its blocks rebuilt if the last solve ran long."""
        k, n = self.XT.shape[0] - 1, self.XT.shape[1]
        probs = softmax(theta.reshape(k, k + 1) @ self._scores_XT, axis=0)
        # Flat index of each instance's most probable class, for ``matvec``.
        self.top = probs.argmax(axis=0) * n + np.arange(n)
        self.probs = _flush_to(probs, self.XT.dtype)
        if self.limit is None:
            self.limit = self.REBUILD_RATIO * self.products
        if self.products > self.limit:
            self._build()
            self.limit = None
        self.products = 0
        return self

    def _build(self):
        k, n = self.probs.shape
        # XT diag(w) XT' is formed as S S' with S = XT diag(sqrt(w)), a
        # symmetric BLAS product; the 1/n of w is applied to S S'.
        root_weights = np.sqrt(self.probs * (1.0 - self.probs))
        width = k + 1
        self.blocks = np.empty((k, width, width))
        for a in range(k):
            S = self.XT * root_weights[a]
            self.blocks[a] = S @ S.T
        self.blocks /= n
        self.blocks[:, np.arange(width), np.arange(width)] += self.pen.reshape(k, width)
        self._inverse = _ridged_inverse(self.blocks, self.XT.dtype)

    def matvec(self, v):
        self.products += 1
        # H is linear: the product runs on v / max|v|, so that U keeps the
        # scale of XT however short v is, and the scale returns in float64.
        scale = float(np.max(np.abs(v), initial=0.0)) or 1.0
        U = (v.reshape(self.probs.shape[0], -1) / scale).astype(self.XT.dtype) @ self.XT
        # R is unchanged by a constant added to a column of U, since the
        # columns of P sum to 1. Taking each instance's entry at its most
        # probable class off turns R's difference of two near-equal terms in
        # a saturated instance into a small sum of its own size; in float32
        # it cut the CG products of a k = 30 grid from 872 to 582.
        U -= U.ravel()[self.top]
        PU = self.probs * U
        R = PU - self.probs * PU.sum(axis=0)
        product = (R @ self.XT.T).ravel().astype(float)
        return product * (scale / self.XT.shape[1]) + self.pen * v

    def precondition(self, r):
        k, width = self._inverse.shape[:2]
        return (self._inverse @ r.reshape(k, width, 1)).ravel()


def _prepare(feats, labels):
    """The features [x, 1] of the rows x of ``feats``, class-major, and the
    checked labels as an index vector.

    The features come back as one C-contiguous (k+1, n) matrix XT, so that
    the fitting core forms scores as M XT, shape (k, n), and reduces over
    axis 0: numpy's max, sum and argmax along the short rows of an (n, k)
    array are 10-25 times slower than the same reductions over (k, n) at
    k <= 11 (on one core of a 2-vCPU Xeon: max over (1600, 10) along rows
    96 us, over (10, 1600) along axis 0 6 us; at k = 2, 86 against 3 us).
    """
    feats = np.atleast_2d(feats)
    n, k = feats.shape
    y = as_label_vector(labels, k, n)
    XT = np.empty((k + 1, n))
    XT[:k] = feats.T
    XT[k] = 1.0
    return XT, y


def objective_and_gradient(params: LinearParams, probs, labels, reg):
    """Penalized mean log-loss of apply_linear and its analytic gradient.

    The gradient is taken over all k^2 + k parameters in [vec(W), b] order
    and matches central finite differences to high relative accuracy.
    """
    XT, y = _prepare(log_transform(probs), labels)
    M = np.column_stack([params.W, params.b])
    value, grad = _value_grad(M.ravel(), XT, y, _penalty_matrix(reg, params.k),
                              np.ones(M.shape, dtype=bool))
    grad = grad.reshape(M.shape)
    return value, np.concatenate([grad[:, :-1].ravel(), grad[:, -1]])


def fit_multinomial(feats, labels, reg, diagonal: bool = False,
                    tol: float = 1e-8, max_iter: int = 500, *,
                    _start=None) -> LinearParams:
    """Fit softmax(W x + b) to feature rows x by penalized maximum likelihood.

    The one fitting core behind Dirichlet calibration (x = ln q) and
    matrix and vector scaling (x = logits). The intercept is the weight of
    a constant feature: the fit works on one (k, k+1) matrix [W | b] and the
    feature rows [x, 1]. ``diagonal`` keeps W diagonal (vector scaling);
    otherwise every entry of W is free; b is always free. The free entries,
    row by row, are the parameter vector, so each class's parameters are
    contiguous. Starts from W = I, b = 0, or from ``_start`` (the previous
    point of a grid path), and returns the fitted ``LinearParams``,
    warning if the fit did not converge. The objective is convex, so the
    start changes the iterates, not the optimum the fit converges to. An
    unpenalised b is free up to a constant shift, and a full unpenalised W
    up to one vector added to every row; b returns with sum 0, W with
    column sums 0.

    The fit is trust-region Newton-CG (``optim.minimize``), and the
    structure picks the Hessian operator. Diagonal W (vector scaling, beta
    maps) uses the float64 dense Hessian of its 2k parameters, which costs
    as much as one full-W product, O(n k^2), with M = H (ridged) so that
    CG takes a Newton step in a product or two. Full W, at any k, uses one
    ``_HessianOperator`` for the whole fit. Its products and block builds
    run in float32; the objective, the gradient, the stopping rule, the
    trust-region test and the CG recurrences stay float64, so float32
    changes only how closely each Newton step is solved.

    The core is class-major (see ``_prepare``): one float64 (k+1, n) copy
    of the features [x, 1], scores M XT of shape (k, n) reduced over axis
    0, and the labels as an index vector; at small k this is several times
    faster than reducing along the short rows of (n, k) arrays.
    """
    XT, y = _prepare(feats, labels)
    k, n = XT.shape[0] - 1, y.size
    if n < k:
        raise ValueError(f"need at least k={k} instances, got {n}")
    if np.unique(y).size < 2:
        raise ValueError("labels contain a single class; nothing to fit")
    pen = _penalty_matrix(reg, k)
    free = _free_mask(k, diagonal)
    M0 = np.eye(k, k + 1) if _start is None else np.column_stack([_start.W, _start.b])
    theta0 = M0[free]
    if diagonal:
        def hess(t):
            H = _hessian(t, XT, pen, free)
            return SimpleNamespace(matvec=H.__matmul__,
                                   precondition=_ridged_inverse(H, H.dtype).__matmul__)
    else:
        hess = _HessianOperator(XT, pen, dtype=np.float32).at
    result = minimize(
        lambda t: _value_grad(t, XT, y, pen, free),
        theta0,
        hess=hess,
        tol=tol,
        max_iter=max_iter,
    )
    warn_unconverged(result, stacklevel=3)
    M = _unpack(result.params, free)
    W, b = M[:, :k], M[:, k]
    W = W if diagonal or pen[:, :k].any() else W - W.mean(axis=0)
    return LinearParams(W=W, b=b if pen[:, k].any() else b - b.mean())


def fit(probs, labels, reg, tol: float = 1e-8, max_iter: int = 500, *,
        _start=None) -> LinearParams:
    """Fit a Dirichlet calibration map by penalized maximum likelihood.

    Parameters
    ----------
    probs : array_like, shape (n, k)
        Uncalibrated probability rows, already clipped strictly positive.
    labels : array_like, shape (n,)
        Integer class labels.
    reg : L2Config or OdirConfig
        Penalty scheme. L2 spreads one weight over all parameters; the
        off-diagonal/intercept scheme leaves the diagonal of W free.
    tol, max_iter : float, int
        Convergence threshold (gradient infinity-norm) and iteration cap.

    Returns
    -------
    LinearParams
        Starts from the identity map (W = I, b = 0), or from the map
        ``_start`` when a grid search fits its points as a path; the
        objective is convex, so the start affects speed only.
    """
    return fit_multinomial(log_transform(probs), labels, reg, tol=tol, max_iter=max_iter,
                           _start=_start)


# ---------------------------------------------------------------------------
# Interpretation points
# ---------------------------------------------------------------------------

def interpretation_points(params: CanonicalParams, epsilon: float = 1e-6):
    """The k+1 probe points of a canonical map and their images.

    The first k points sit just inside the facet centres: point j has
    ``epsilon`` at coordinate j and (1 - epsilon)/(k - 1) elsewhere; as
    epsilon shrinks, its image approaches (eps^a_1j, ..., eps^a_kj)/z_j,
    i.e. column j of A alone determines the behaviour there. The last
    point is the simplex centre, whose image is exactly c.

    Returns a list of ``(point, image)`` pairs of length k + 1.
    """
    k = params.k
    if not (0.0 < epsilon < 1.0 / k):
        raise ValueError(f"epsilon must lie in (0, 1/k); got {epsilon}")
    pairs = []
    for j in range(k):
        point = np.full(k, (1.0 - epsilon) / (k - 1))
        point[j] = epsilon
        pairs.append((point, apply_canonical(point, params)))
    centre = np.full(k, 1.0 / k)
    pairs.append((centre, apply_canonical(centre, params)))
    return pairs
