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
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ROW_SUM_TOL, log_transform, softmax
from .optim import DENSE_NEWTON_MAX_DIM, minimize


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
    """Weights of the fitting form softmax(W ln q + b)."""

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

def _apply_scores(q, weight, offset):
    """softmax(weight @ ln(q_row) + offset) for each row of q."""
    single = np.asarray(q).ndim == 1
    lnq = log_transform(q)
    if lnq.ndim == 1:
        lnq = lnq[None, :]
    if lnq.shape[1] != weight.shape[0]:
        raise ValueError(f"expected {weight.shape[0]} classes, got {lnq.shape[1]}")
    out = softmax(lnq @ weight.T + offset, axis=1)
    return out[0] if single else out


def apply_linear(q, params: LinearParams) -> np.ndarray:
    """Apply softmax(W ln q + b) to one or many probability rows."""
    return _apply_scores(q, params.W, params.b)


def apply_canonical(q, params: CanonicalParams) -> np.ndarray:
    """Apply softmax(A ln(q/(1/k)) + ln c); the simplex centre maps to c."""
    k = params.k
    if np.any(params.c <= 0.0):
        raise ValueError("c contains zero entries; the canonical offset ln c is undefined")
    # A ln(kq) + ln c  ==  A ln q + (ln k * rowsum(A) + ln c)
    offset = np.log(float(k)) * params.A.sum(axis=1) + np.log(params.c)
    return _apply_scores(q, params.A, offset)


def apply_generative(q, params: GenerativeParams) -> np.ndarray:
    """Apply (pi_1 f_1(q), ..., pi_k f_k(q)) / z with Dirichlet densities f_j.

    Densities are evaluated in log space via log-gamma, so very peaked
    parameter rows stay finite.
    """
    single = np.asarray(q).ndim == 1
    lnq = log_transform(q)
    if lnq.ndim == 1:
        lnq = lnq[None, :]
    if lnq.shape[1] != params.k:
        raise ValueError(f"expected {params.k} classes, got {lnq.shape[1]}")
    # log f_j(q) = sum_i (alpha_ji - 1) ln q_i - ln B(alpha_j)
    log_dens = lnq @ (params.alpha - 1.0).T - _log_beta(params.alpha)
    with np.errstate(divide="ignore"):
        log_post = log_dens + np.log(params.pi)
    if np.any(np.isnan(log_post)):
        raise ValueError("non-finite Dirichlet density")
    out = softmax(log_post, axis=1)
    return out[0] if single else out


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

def _penalty_matrices(reg, k: int):
    """Per-entry quadratic penalty weights for W (k x k) and b (k,)."""
    if isinstance(reg, L2Config):
        count = k * k + (k if reg.include_intercept else 0)
        pen_w = np.full((k, k), reg.lam / count)
        pen_b = np.full(k, reg.lam / count if reg.include_intercept else 0.0)
    elif isinstance(reg, OdirConfig):
        pen_w = np.full((k, k), reg.lam / (k * (k - 1)))
        np.fill_diagonal(pen_w, 0.0)
        pen_b = np.full(k, reg.mu / k)
    else:
        raise TypeError(f"reg must be L2Config or OdirConfig, got {type(reg).__name__}")
    return pen_w, pen_b


def _unpack(theta, free):
    """(W, b) from the parameter vector [free entries of W row by row, b]."""
    m = np.count_nonzero(free)
    W = np.zeros(free.shape)
    W[free] = theta[:m]
    return W, theta[m:]


def _value_grad(theta, feats, onehot, pen_w, pen_b, free):
    n = onehot.shape[0]
    W, b = _unpack(theta, free)
    scores = feats @ W.T + b
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted - log_norm[:, None]
    value = -(logp[np.arange(n), onehot.argmax(axis=1)]).mean()
    value += float((pen_w * W * W).sum() + (pen_b * b * b).sum())
    resid = (np.exp(logp) - onehot) / n
    grad_w = resid.T @ feats + 2.0 * pen_w * W
    grad_b = resid.sum(axis=0) + 2.0 * pen_b * b
    return value, np.concatenate([grad_w[free], grad_b])


def _hessian(theta, feats, pen_w, pen_b, free):
    n, k = feats.shape
    W, b = _unpack(theta, free)
    P = softmax(feats @ W.T + b, axis=1)
    faug = np.hstack([feats, np.ones((n, 1))])  # (n, k+1)
    # Class-block layout: parameter block a is (free W[a, :], b_a), which
    # multiplies G[:, a], the columns of faug it sees. With every entry free
    # G is a broadcast view: no copy, and each G[:, a] has faug's own layout.
    if free.all():
        G = np.broadcast_to(faug[:, None, :], (n, k, k + 1))
    else:
        G = faug[:, np.column_stack([np.nonzero(free)[1].reshape(k, -1), np.full(k, k)])]
    width = G.shape[2]
    V = (P[:, :, None] * G).reshape(n, k * width)
    H = -(V.T @ V)
    for a in range(k):
        s = a * width
        H[s : s + width, s : s + width] += G[:, a].T @ (G[:, a] * P[:, a : a + 1])
    H /= n
    # Reorder into the [free W entries, b] layout used by the objective.
    blocks = np.arange(k * width).reshape(k, width)
    perm = np.concatenate([blocks[:, :-1].ravel(), blocks[:, -1]])
    H = H[np.ix_(perm, perm)]
    H[np.diag_indices_from(H)] += np.concatenate([2.0 * pen_w[free], 2.0 * pen_b])
    return H


class _HessianOperator:
    """The Hessian of ``_value_grad`` at theta, applied as products.

    ``matvec(v)`` is H v = [X' R / n, 1' R / n] + 2 pen * v with
    U = X V' + v_b and R = P*U - P*rowsum(P*U), where (V, v_b) unpacks v:
    O(n k^2) per product, where the dense ``_hessian`` costs O(n k^4).
    ``precondition`` applies the inverse of the Hessian's block diagonal
    (block-Jacobi): block a couples class a's parameters (free W[a, :],
    b_a) and equals G_a' diag(P_a (1 - P_a)) G_a / n plus their penalty,
    where G_a holds the columns of [X, 1] those parameters multiply.

    One operator serves one CG solve and counts its products in
    ``products``. Building the blocks costs O(n k^3), as much as k or so
    products, so an operator given the ``previous`` Newton step's operator
    reuses its block inverse, built at an earlier theta. Any fixed positive
    definite preconditioner leaves CG solving the true H d = -g, so only
    the product count can grow; the blocks are rebuilt once the last solve
    took more than ``REBUILD_RATIO`` times the products of the first solve
    after they were built.
    """

    #: Growth of the CG product count, against the first solve after a
    #: build, past which the next operator builds fresh blocks.
    REBUILD_RATIO = 2

    def __init__(self, theta, feats, pen_w, pen_b, free, previous=None):
        k = feats.shape[1]
        W, b = _unpack(theta, free)
        self.feats, self.free = feats, free
        self.probs = softmax(feats @ W.T + b, axis=1)
        self.pen = 2.0 * np.concatenate([pen_w[free], pen_b])
        m = np.count_nonzero(free)
        #: Row a: the positions of class a's parameters in theta.
        self.index = np.column_stack([np.arange(m).reshape(k, -1), m + np.arange(k)])
        self.products = 0
        if previous is None or previous.products > self.REBUILD_RATIO * previous.baseline:
            self._build()
            self._baseline = None
        else:
            self.blocks, self._inverse = previous.blocks, previous._inverse
            self._baseline = previous.baseline

    @property
    def baseline(self):
        """CG products of the first solve after the blocks were built."""
        return self.products if self._baseline is None else self._baseline

    def _build(self):
        n, k = self.feats.shape
        # Rows of faug_t are the columns of [feats, 1]; G_a' diag(w) G_a is
        # formed as S S' with S = G_a' diag(sqrt(w)), a symmetric BLAS product.
        faug_t = np.vstack([self.feats.T, np.ones(n)])
        cols = np.column_stack([self.free, np.ones(k, dtype=bool)])
        root_weights = np.sqrt(self.probs * (1.0 - self.probs) / n)
        width = self.index.shape[1]
        self.blocks = np.empty((k, width, width))
        for a in range(k):
            S = (faug_t if cols[a].all() else faug_t[cols[a]]) * root_weights[:, a]
            self.blocks[a] = S @ S.T
        self.blocks[:, np.arange(width), np.arange(width)] += self.pen[self.index]
        # A ridge of 1e-10 times the block's mean diagonal keeps the inverse
        # bounded where a class's features are collinear (centred logits,
        # say) and its block is singular or nearly so.
        scale = np.trace(self.blocks, axis1=1, axis2=2) / width
        ridge = 1e-10 * np.where(scale > 0.0, scale, 1.0)
        self._inverse = np.linalg.inv(self.blocks + ridge[:, None, None] * np.eye(width))

    def matvec(self, v):
        self.products += 1
        n = self.feats.shape[0]
        V, vb = _unpack(v, self.free)
        PU = self.probs * (self.feats @ V.T + vb)
        R = (PU - self.probs * PU.sum(axis=1, keepdims=True)) / n
        return np.concatenate([(R.T @ self.feats)[self.free], R.sum(axis=0)]) + self.pen * v

    def precondition(self, r):
        z = np.empty_like(r)
        z[self.index] = (self._inverse @ r[self.index][:, :, None])[:, :, 0]
        return z


def _prepare(feats, labels):
    """Feature rows as a 2-d array, and the one-hot matrix of checked labels."""
    feats = np.atleast_2d(feats)
    n, k = feats.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,):
        raise ValueError("labels must match the number of prediction rows")
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"labels must lie in [0, {k - 1}]")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    return feats, onehot


def objective_and_gradient(params: LinearParams, probs, labels, reg):
    """Penalized mean log-loss of apply_linear and its analytic gradient.

    The gradient is taken over all k^2 + k parameters in [vec(W), b] order
    and matches central finite differences to high relative accuracy.
    """
    feats, onehot = _prepare(log_transform(probs), labels)
    pen_w, pen_b = _penalty_matrices(reg, params.k)
    theta = np.concatenate([params.W.ravel(), params.b])
    return _value_grad(theta, feats, onehot, pen_w, pen_b, np.ones_like(params.W, dtype=bool))


def fit_multinomial(feats, labels, reg, diagonal: bool = False,
                    tol: float = 1e-8, max_iter: int = 500, *, _start=None):
    """Fit softmax(W x + b) to feature rows x by penalized maximum likelihood.

    The one fitting core behind Dirichlet calibration (x = ln q) and
    matrix and vector scaling (x = logits). ``diagonal`` keeps W diagonal
    (vector scaling); otherwise every entry of W is free; b is always free.
    Starts from W = I, b = 0, or from the ``(W, b)`` of ``_start`` (the
    previous point of a grid path), and returns the fitted ``(W, b)``,
    warning if the fit did not converge. The objective is convex, so the
    start changes the iterates, not the optimum the fit converges to. An
    unpenalised b is free up to a constant shift; it is returned with sum 0.

    Newton steps use the dense Hessian up to ``DENSE_NEWTON_MAX_DIM``
    parameters and the Hessian operator (Newton-CG) above it, whose
    block-Jacobi preconditioner is carried from step to step and rebuilt
    when the CG solves grow long (see ``_HessianOperator``). Diagonal W
    always uses the dense Hessian: an operator product costs O(n k^2) for
    either structure, as much as the whole dense Hessian of 2k parameters.
    """
    feats, onehot = _prepare(feats, labels)
    n, k = onehot.shape
    if n < k:
        raise ValueError(f"need at least k={k} instances, got {n}")
    if np.unique(np.argmax(onehot, axis=1)).size < 2:
        raise ValueError("labels contain a single class; nothing to fit")
    pen_w, pen_b = _penalty_matrices(reg, k)
    free = np.eye(k, dtype=bool) if diagonal else np.ones((k, k), dtype=bool)
    W0, b0 = (np.eye(k), np.zeros(k)) if _start is None else (_start.W, _start.b)
    theta0 = np.concatenate([W0[free], b0])
    dense = diagonal or theta0.size <= DENSE_NEWTON_MAX_DIM
    operator = None

    def hess(t):
        nonlocal operator
        if dense:
            return _hessian(t, feats, pen_w, pen_b, free)
        operator = _HessianOperator(t, feats, pen_w, pen_b, free, operator)
        return operator

    result = minimize(
        lambda t: _value_grad(t, feats, onehot, pen_w, pen_b, free),
        theta0,
        hess=hess,
        tol=tol,
        max_iter=max_iter,
    )
    if not result.converged:
        warnings.warn(
            f"calibration fit stopped at gradient norm {result.gradient_norm:.2e} "
            f"after {result.iterations} iterations",
            RuntimeWarning,
            stacklevel=3,
        )
    W, b = _unpack(result.params, free)
    return W, (b if pen_b.any() else b - b.mean())


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
    W, b = fit_multinomial(log_transform(probs), labels, reg, tol=tol, max_iter=max_iter,
                           _start=_start)
    return LinearParams(W=W, b=b)


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
