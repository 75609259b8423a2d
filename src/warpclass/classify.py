"""Second-level model: functional principal components of the aligned
curves feeding a penalized functional logistic classifier.

Registered curves are decomposed per coordinate into eigenfunctions of
the smoothed covariance; subject score vectors and a truncated-power
expansion of the functional coefficient reduce the functional logistic
regression to a generalized linear mixed model.  Its coefficients are the
mode of the ridge-penalized likelihood with Firth's Jeffreys term, which is
finite even where the classes separate, and the random-effect variance is
the one of largest Laplace marginal likelihood on a fixed interval: no
start, so every fit at a truncation pair, through ``_fit_pair``, is the
same function of its data, and cross-validation scores the classifier that
ships.

Prediction fits new subjects' warps under the group their scalar
covariates point to, aligns, scores and classifies them, then does the same
under the other group for those whose alignment points there: per group,
one lock-step warp solve, one stacked alignment and one scoring pass over a
panel.  Scores are summed row by row, so a subject's result does not depend
on its panel, and ``predict_new`` is a panel of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .basis import TruncatedPowerBasis, cross_gram, quad_weights
from .codec import decode, encode
from .curves import CurvePanel, SubjectCurve
from .errors import DataError, NumericalError, check_format_version, check_shape
from .gp import CholFactor
from .registration import (
    RegistrationFit,
    align_curves,
    align_stack,
    fit_subject_warp,
)
# Unused here: perfbench/tracing.py wraps classify.align_single by name.
from .registration import align_single  # noqa: F401
from .rng import substream

_log = logging.getLogger(__name__)

_PROB_FLOOR = 1e-15
# Version of the ClassifierModel dict layout; from_dict accepts only this one.
_MODEL_FORMAT_VERSION = 1
DEFAULT_CV_GRID = ((12, 6), (12, 10), (18, 6), (18, 10))
DEFAULT_CV_FOLDS = 5
# points in the moving window that smooths each covariance diagonal
DEFAULT_SMOOTHING_WINDOW = 11
# fit_glmm's interval for sigma_e, the ridge variance's square root
_SIGMA_MIN = 1e-5
_SIGMA_MAX = 1e3


def _sigmoid(eta):
    """1 / (1 + e^-eta) from the one exponential e^-|eta|, which cannot overflow."""
    eta = np.asarray(eta, dtype=float)
    ex = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _prob(eta):
    """Class-1 probability at linear predictor ``eta``, kept off 0 and 1."""
    return np.minimum(np.maximum(_sigmoid(eta), _PROB_FLOOR), 1.0 - _PROB_FLOOR)


# ---------------------------------------------------------------------------
# FPCA.


@dataclass(frozen=True)
class FpcaModel:
    """Truncated eigen-decomposition of one coordinate's covariance."""

    grid: np.ndarray
    mean: np.ndarray  # (n_grid,)
    eigenfunctions: np.ndarray  # (n_grid, k_x), quadrature-orthonormal
    eigenvalues: np.ndarray  # (k_x,), non-increasing, >= 0
    # the eigenfunctions times the quadrature weights, which project each curve
    weighted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_grid = self.grid.shape[:1]
        check_shape("grid", self.grid, ("n_grid",))
        check_shape("mean", self.mean, n_grid)
        check_shape("eigenfunctions", self.eigenfunctions, n_grid + ("k_x",))
        check_shape("eigenvalues", self.eigenvalues, self.eigenfunctions.shape[1:])
        object.__setattr__(self, "weighted", quad_weights(self.grid)[:, None] * self.eigenfunctions)

    @property
    def k_x(self) -> int:
        return self.eigenfunctions.shape[1]


def smooth_covariance(values: np.ndarray, window: int = DEFAULT_SMOOTHING_WINDOW) -> np.ndarray:
    """Empirical covariance of curves on a grid, smoothed along diagonals.

    ``values`` is (n_subjects, n_grid).  The raw covariance (1/N
    normalization) is averaged over a ``window``-point moving window running
    along each diagonal, which preserves the near-diagonal ridge better
    than row/column smoothing, then symmetrized.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] < 2:
        raise DataError("covariance needs at least 2 curves on a common grid")
    if window < 1 or window % 2 == 0:
        raise DataError(f"window must be odd and positive, got {window}")
    centered = vals - vals.mean(axis=0)
    # einsum sums in one fixed order; a BLAS product splits the sum across
    # threads, so its last bits would depend on the BLAS thread count
    cov = np.einsum("ki,kj->ij", centered, centered) / vals.shape[0]
    # Row d of the sheared array holds diagonal j - i = d - (g - 1) from its
    # start, zero-padded; one row-wise cumsum gives every diagonal's running sums.
    g = cov.shape[0]
    half = window // 2
    offset = np.arange(1 - g, g)[:, None]
    pos = np.arange(g)
    length = g - np.abs(offset)
    row, col = pos - np.minimum(offset, 0), pos + np.maximum(offset, 0)
    on = pos < length
    sheared = np.zeros((2 * g - 1, g))
    sheared[on] = cov[row[on], col[on]]
    csum = np.zeros((2 * g - 1, g + 1))
    np.cumsum(sheared, axis=1, out=csum[:, 1:])
    diag, place = np.nonzero(on)
    hi = np.minimum(place + half + 1, length[diag, 0])
    lo = np.maximum(place - half, 0)
    out = np.empty_like(cov)
    out[row[on], col[on]] = (csum[diag, hi] - csum[diag, lo]) / (hi - lo)
    return 0.5 * (out + out.T)


def fpca_decompose(cov: np.ndarray, grid, k_x: int, mean=None) -> FpcaModel:
    """Leading eigenpairs of the covariance under trapezoid quadrature.

    The weighted eigenproblem W^{1/2} C W^{1/2} gives functions that are
    orthonormal in the quadrature inner product.  Signs are fixed so each
    eigenfunction integrates to a non-negative value; numerically
    negative trailing eigenvalues are clipped at zero.
    """
    cov = np.asarray(cov, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if cov.shape != (len(grid), len(grid)):
        raise DataError("covariance must be square on the given grid")
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise DataError("covariance must be symmetric")
    if k_x < 1 or k_x > len(grid):
        raise DataError(f"k_x must be in [1, {len(grid)}], got {k_x}")
    w = quad_weights(grid)
    sw = np.sqrt(w)
    sym = 0.5 * (cov + cov.T)
    weighted = sw[:, None] * sym * sw[None, :]
    vals, vecs = np.linalg.eigh(weighted)
    order = np.argsort(vals)[::-1][:k_x]
    lam = np.maximum(vals[order], 0.0)
    funcs = vecs[:, order] / sw[:, None]
    # eigh already orthonormalizes under w; renormalize to kill drift
    norms = np.sqrt(w @ funcs**2)
    funcs = funcs / norms
    integrals = w @ funcs
    for l in range(funcs.shape[1]):
        s = integrals[l]
        if s < 0 or (s == 0 and funcs[np.argmax(np.abs(funcs[:, l])), l] < 0):
            funcs[:, l] = -funcs[:, l]
    if mean is None:
        mean = np.zeros(len(grid))
    return FpcaModel(
        grid=grid,
        mean=np.asarray(mean, dtype=float),
        eigenfunctions=funcs,
        eigenvalues=lam,
    )


def project_scores(values, fpca: FpcaModel) -> np.ndarray:
    """Quadrature inner products of centered curves (N, n_grid) with the
    eigenfunctions, (N, k_x).

    Each row is summed on its own (``np.einsum``), so its bytes do not
    depend on the stack, as a BLAS product's would.  Curves on another grid
    raise DataError.
    """
    vals = np.asarray(values, dtype=float)
    check_shape("values", vals, ("N", len(fpca.grid)))
    return np.einsum("ng,gk->nk", vals - fpca.mean, fpca.weighted)


def compute_J(fpca: FpcaModel, tpbasis: TruncatedPowerBasis) -> np.ndarray:
    """Cross-Gram matrix between eigenfunctions and the coefficient basis."""
    tp_cols = tpbasis.design(fpca.grid)
    return cross_gram(fpca.eigenfunctions, tp_cols, fpca.grid)


# ---------------------------------------------------------------------------
# Penalized logistic GLMM.


@dataclass
class LogisticFit:
    """Penalized logistic fit: scalar coefficients and coefficient splines."""

    b0: float
    b1: np.ndarray  # (p,)
    e: np.ndarray  # (2, k_e) spline coefficients of the functional terms
    sigma_e: float
    deviance_trace: list[list[float]]  # one _irls_pass trace per solve, in evaluation order
    converged: bool
    n_passes: int  # _irls_pass solves: len(deviance_trace)

    def __post_init__(self):
        # a decoded artifact is checked here, before any array broadcasts
        check_shape("e", self.e, (2, "k_e"))
        check_shape("b1", self.b1, ("p",))

    @property
    def k_e(self) -> int:
        return self.e.shape[1]


@dataclass(kw_only=True)
class ClassifierModel(LogisticFit):
    """Fitted classifier: the logistic fit plus what scoring a subject needs."""

    scalar_b: np.ndarray  # scalar-only refit, for initialization
    coef_basis: TruncatedPowerBasis
    j_mats: np.ndarray  # (2, k_x, k_e)
    fpca: tuple[FpcaModel, ...]  # one per coordinate

    def __post_init__(self):
        super().__post_init__()
        check_shape("scalar_b", self.scalar_b, (1 + len(self.b1),))
        if self.coef_basis.size != self.k_e:
            raise DataError(f"coef_basis.size is {self.coef_basis.size}, expected k_e = {self.k_e}")
        check_shape("j_mats", self.j_mats, (2, "k_x", self.k_e))
        if len(self.fpca) != 2:
            raise DataError(f"fpca has {len(self.fpca)} entries, expected 2")
        n_grid, k_x = len(self.fpca[0].grid), self.j_mats.shape[1]
        for a, f in enumerate(self.fpca):
            check_shape(f"fpca[{a}].eigenfunctions", f.eigenfunctions, (n_grid, k_x))

    def to_dict(self) -> dict:
        return {**encode(self), "format_version": _MODEL_FORMAT_VERSION}

    @classmethod
    def from_dict(cls, payload: dict) -> "ClassifierModel":
        check_format_version(payload, _MODEL_FORMAT_VERSION, "classifier model")
        return decode(cls, {k: v for k, v in payload.items() if k != "format_version"}, "model")


def _deviance(labels, eta) -> float:
    """Binomial deviance of 0/1 ``labels`` at linear predictor ``eta``."""
    return _deviance_at(labels, _prob(eta))


def _deviance_at(labels, pi) -> float:
    """Binomial deviance of 0/1 ``labels`` at class-1 probabilities ``pi``."""
    return -2.0 * float(labels @ np.log(pi) + (1.0 - labels) @ np.log(1.0 - pi))


def _irls_pass(design, labels, penalty_vec, theta, max_newton=25):
    """Firth-penalized IRLS at fixed penalty weights P = diag(``penalty_vec``).

    Minimizes Phi(theta) = D(theta) + theta'P theta - log|M|, with D the
    deviance and M = X'WX + P: the penalized deviance with Jeffreys'
    prior (Firth 1993), whose minimum is finite even where the
    unpenalized columns separate the classes.  A step is
    M^-1 [X'(y - pi + h (1/2 - pi)) - P theta], with hat values
    h_i = w_i x_i'M^-1 x_i (Heinze & Schemper 2002), halved until Phi does
    not rise (by more than 1e-12, rounding), so the recorded Phi does not
    either.  One ``CholFactor`` of M gives a trial's log|M|, with its jitter
    where zero or collinear unpenalized columns make M singular; the
    accepted trial's factor and probabilities give the next step.  Returns
    (theta, per-step Phi, the factor of M at theta, converged):
    converged is False only when the solve stops at ``max_newton`` steps,
    not at a step that lowers Phi by at most 1e-10 relative or where no
    halving of the step lowers Phi.
    """

    def at(theta):
        pi = _prob(design @ theta)
        weights = pi * (1.0 - pi)
        factor = CholFactor((design_t * weights) @ design + penalty)
        phi = _deviance_at(labels, pi) + float(theta @ (penalty_vec * theta)) - factor.logdet()
        return phi, pi, weights, factor

    design_t = design.T
    penalty = np.diag(penalty_vec)
    current, pi, weights, factor = at(theta)
    trace = [current]
    for _ in range(max_newton):
        hat = weights * np.sum(factor.half_solve(design_t) ** 2, axis=0)
        step = factor.solve(design_t @ (labels - pi + hat * (0.5 - pi)) - penalty_vec * theta)
        for _ in range(30):
            cand = theta + step
            cand_phi, *cand_state = at(cand)
            if cand_phi <= current + 1e-12:
                break
            step = 0.5 * step
        else:
            return theta, trace, factor, True  # no descent direction left
        moved = current - cand_phi
        theta, current, (pi, weights, factor) = cand, cand_phi, cand_state
        trace.append(current)
        if moved <= 1e-10 * max(1.0, abs(current)):
            return theta, trace, factor, True
    return theta, trace, factor, False


def fit_glmm(
    scalar_design: np.ndarray,
    functional_design: np.ndarray | None,
    labels,
) -> LogisticFit:
    """Firth-penalized logistic regression, with the ridge variance of
    largest Laplace marginal likelihood on [``_SIGMA_MIN``, ``_SIGMA_MAX``].

    ``scalar_design`` is (N, 1+p) including the intercept column;
    ``functional_design`` is (N, 2*k_e) with one block per coordinate.
    The intercept, scalar coefficients, and the first two spline
    coefficients of each coordinate stay unpenalized; the other n_pen
    carry a shared ridge weight 1/sigma_e^2 (P), and ``_irls_pass`` finds
    the mode theta at each sigma_e.  There the Laplace approximation of
    minus twice the log marginal likelihood (Breslow & Clayton 1993) is
    V = D + theta'P theta + log|M| + n_pen log sigma_e^2, M = X'WX + P.
    At fixed weights its slope in log sigma_e^2 is edf_pen -
    ||e_pen||^2 / sigma_e^2, with edf_pen = n_pen - tr_pen(M^-1) / sigma_e^2:
    a root is a fixed point of Schall's update.  It can have several
    roots, so its sign is read at one point per decade of the interval,
    solved in increasing order and each warm-started from the last theta
    (the first from 0); brentq finds the root in each cell where it turns
    from - to +, an end counts (exactly) where V falls towards it, and the
    candidate of smallest V is returned.  ``deviance_trace`` holds one
    ``_irls_pass`` trace per solve, in evaluation order, ``n_passes``
    their count, and ``converged`` whether the returned solve stopped
    before ``_irls_pass``'s ``max_newton``.  Without penalized columns the
    fit is one solve and ``sigma_e`` is 0.
    """
    scalar_design = np.asarray(scalar_design, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    if scalar_design.ndim != 2 or scalar_design.shape[0] != len(y):
        raise DataError("design and labels disagree on the number of subjects")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise DataError("labels must be 0/1")
    if len(classes) < 2:
        raise DataError("both classes must be present to fit the classifier")

    if functional_design is None:
        functional_design = np.zeros((len(y), 0))
    functional_design = np.asarray(functional_design, dtype=float)
    if functional_design.shape[0] != len(y) or functional_design.shape[1] % 2:
        raise DataError("functional design must be (N, 2*k_e)")
    k_e = functional_design.shape[1] // 2

    design = np.hstack([scalar_design, functional_design])
    n_scalar = scalar_design.shape[1]
    pen_mask = np.zeros(design.shape[1], dtype=bool)
    for a in (0, 1):
        block = n_scalar + a * k_e
        pen_mask[block + 2 : block + k_e] = True
    n_pen = int(pen_mask.sum())

    solves = {}  # sigma_e -> _irls_pass's (theta, trace, factor, converged)
    theta = np.zeros(design.shape[1])

    def solve(sigma):
        nonlocal theta
        if sigma not in solves:
            solves[sigma] = _irls_pass(design, y, pen_mask / sigma**2, theta)
            theta = solves[sigma][0]
        return solves[sigma]

    def score(sigma):
        mode, _, factor, _ = solve(sigma)
        m_inv_diag = np.sum(factor.half_solve(np.eye(len(mode))) ** 2, axis=0)
        e_pen = mode[pen_mask]
        return n_pen - float(np.sum(m_inv_diag[pen_mask]) + e_pen @ e_pen) / sigma**2

    def neg2_loglik(sigma):  # V, up to a constant
        _, trace, factor, _ = solve(sigma)
        return trace[-1] + 2.0 * factor.logdet() + 2.0 * n_pen * np.log(sigma)

    if n_pen:
        grid = np.geomspace(_SIGMA_MIN, _SIGMA_MAX, 9)  # one point per decade
        signs = [score(s) for s in grid]
        found = [
            brentq(score, grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if signs[i] < 0.0 <= signs[i + 1]
        ]
        found += [_SIGMA_MIN] if signs[0] >= 0.0 else []
        found += [_SIGMA_MAX] if signs[-1] <= 0.0 else []
        sigma_e = float(min(found, key=neg2_loglik))
        theta, _, _, converged = solve(sigma_e)
    else:
        sigma_e = 0.0
        theta, _, _, converged = solve(np.inf)  # no penalized column: P = 0

    e = np.zeros((2, k_e))
    for a in (0, 1):
        block = n_scalar + a * k_e
        e[a] = theta[block : block + k_e]
    return LogisticFit(
        b0=float(theta[0]),
        b1=theta[1:n_scalar].copy(),
        e=e,
        sigma_e=sigma_e,
        deviance_trace=[trace for _, trace, _, _ in solves.values()],
        converged=converged,
        n_passes=len(solves),
    )


def _eta(fit: LogisticFit, scalar_rows, functional_rows) -> np.ndarray:
    """Linear predictor b0 + V b1 + Z [e_0, e_1] (V without the intercept column), by rows."""
    scalar = np.einsum("np,p->n", scalar_rows, fit.b1)
    return fit.b0 + scalar + np.einsum("nk,k->n", functional_rows, fit.e.reshape(-1))


def classify_prob(model: ClassifierModel, scores, scalars) -> np.ndarray:
    """Class-1 probability per row of scores (N, 2, k_x) and scalar covariates
    (N, p), (N,); a shape other than the model's raises DataError."""
    check_shape("scores", scores, ("N", 2, model.j_mats.shape[1]))
    check_shape("scalars", scalars, (len(scores), model.b1.size))
    return _prob(_eta(model, scalars, _functional_design(scores, model.j_mats)))


def functional_coefficient(model: ClassifierModel, coordinate: int, times) -> np.ndarray:
    """Reconstruct the functional coefficient curve at the given times."""
    if coordinate not in (0, 1):
        raise DataError(f"coordinate must be 0 or 1, got {coordinate}")
    return model.coef_basis.design(np.asarray(times, dtype=float)) @ model.e[coordinate]


# ---------------------------------------------------------------------------
# Pipeline: registration fit -> classifier.


def _panel_scalar_design(panel: CurvePanel) -> np.ndarray:
    return np.hstack([np.ones((panel.n_subjects, 1)), panel.covariates])


def _fpca_pair(values, grid, k_x: int, window: int) -> tuple[FpcaModel, FpcaModel]:
    """One decomposition per coordinate of aligned curves (N, n_grid, 2)."""
    pair = []
    for a in (0, 1):
        vals = values[:, :, a]
        cov = smooth_covariance(vals, window=window)
        pair.append(fpca_decompose(cov, grid, k_x, mean=vals.mean(axis=0)))
    return tuple(pair)


def _score_panel(aligned_values, fpca_pair):
    """Scores for every subject and coordinate: (N, 2, k_x)."""
    s0 = project_scores(aligned_values[:, :, 0], fpca_pair[0])
    s1 = project_scores(aligned_values[:, :, 1], fpca_pair[1])
    return np.stack([s0, s1], axis=1)


def _functional_design(scores, j_mats):
    """Design block [S_1 J_1 | S_2 J_2] of shape (N, 2*k_e), row by row (``np.einsum``)."""
    return np.einsum("nak,ake->nae", scores, j_mats).reshape(len(scores), -1)


def _pooled_times(panel: CurvePanel) -> np.ndarray:
    return np.concatenate([c.times for c in panel.curves])


def _fit_pair(fpca_pair, scores, k_x: int, coef_basis, scalar_design, labels, rows=slice(None)):
    """The logistic fit at (k_x, ``coef_basis.size``) on ``rows``, for
    ``fit_classifier`` and each fold of ``cross_validate_K`` alike.

    Truncates the FPCA pair and the (N, 2, >= k_x) ``scores`` to k_x (the
    bytes of decomposing at k_x), forms the functional design of every
    subject and fits ``fit_glmm`` on ``rows``.  Returns (fit, truncated
    pair, J matrices, functional design).
    """
    trunc = tuple(
        replace(f, eigenfunctions=f.eigenfunctions[:, :k_x], eigenvalues=f.eigenvalues[:k_x])
        for f in fpca_pair
    )
    j_mats = np.stack([compute_J(f, coef_basis) for f in trunc])
    func_design = _functional_design(scores[:, :, :k_x], j_mats)
    fit = fit_glmm(scalar_design[rows], func_design[rows], labels[rows])
    return fit, trunc, j_mats, func_design


def fit_classifier(
    reg_fit: RegistrationFit,
    panel: CurvePanel,
    k_x: int,
    k_e: int,
    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
) -> ClassifierModel:
    """Full second level on a registered panel.

    Aligns the curves, decomposes each coordinate, projects scores, and
    fits the penalized logistic model at (k_x, k_e) through ``_fit_pair``,
    the fit that cross-validation repeats on each fold.  A scalar-only
    refit (``fit_glmm`` without the functional block: one Firth-penalized
    solve) is stored alongside; it picks the first group a new subject is
    aligned to.
    """
    if not panel.has_labels:
        raise DataError("classifier training requires labels for all subjects")
    if k_x < k_e:
        raise DataError(f"identifiability requires k_x >= k_e, got ({k_x}, {k_e})")
    aligned = align_curves(panel, reg_fit)
    fpca_pair = _fpca_pair(aligned.values, aligned.grid, k_x, smoothing_window)
    coef_basis = TruncatedPowerBasis.from_quantiles(_pooled_times(panel), k_e)
    scores = _score_panel(aligned.values, fpca_pair)
    scalar_design = _panel_scalar_design(panel)
    labels = panel.labels
    fit, fpca_pair, j_mats, _ = _fit_pair(fpca_pair, scores, k_x, coef_basis, scalar_design, labels)
    scalar_only = fit_glmm(scalar_design, None, labels)
    return ClassifierModel(
        **vars(fit),
        scalar_b=np.concatenate([[scalar_only.b0], scalar_only.b1]),
        coef_basis=coef_basis,
        j_mats=j_mats,
        fpca=fpca_pair,
    )


def scalar_only_prob(model: ClassifierModel, scalars) -> np.ndarray:
    """Probability from the stored scalar-only logistic refit per row of
    covariates (N, p), (N,); a p other than the model's raises DataError."""
    v = np.asarray(scalars, dtype=float)
    check_shape("scalars", v, ("N", model.b1.size))
    return _prob(model.scalar_b[0] + np.einsum("np,p->n", v, model.scalar_b[1:]))


# ---------------------------------------------------------------------------
# Cross-validation of the truncation pair.


def cross_validate_K(
    reg_fit: RegistrationFit,
    panel: CurvePanel,
    pairs=DEFAULT_CV_GRID,
    n_folds: int = DEFAULT_CV_FOLDS,
    seed: int = 0,
    return_table: bool = False,
    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
):
    """Pick (k_x, k_e) by stratified K-fold validation deviance.

    Registration is not refit per fold: warps do not depend on the
    truncation pair, so only the second level is re-estimated on each
    training fold, with the covariance smoother ``fit_classifier`` is
    given (``smoothing_window``).  Each training fold is decomposed once
    at the largest k_x, and each pair is fitted on it by ``_fit_pair``,
    as ``fit_classifier`` fits the model it ships.  A fold or pair whose
    fit raises ``NumericalError`` is skipped with a warning.  Ties break
    toward the smaller k_e, then smaller k_x.
    """
    pairs = [(int(kx), int(ke)) for kx, ke in pairs]
    if not pairs:
        raise DataError("empty candidate grid")
    for kx, ke in pairs:
        if kx < ke:
            raise DataError(f"pair ({kx}, {ke}) violates k_x >= k_e")
    if not panel.has_labels:
        raise DataError("cross-validation requires labels")
    labels = panel.labels
    n = panel.n_subjects
    if n_folds < 2 or n_folds > n:
        raise DataError(f"n_folds must be in [2, {n}], got {n_folds}")

    # stratified fold assignment: shuffle within class, deal round-robin
    rng = substream(seed, "cv/folds")
    fold_of = np.empty(n, dtype=int)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        perm = idx[rng.permutation(len(idx))]
        fold_of[perm] = np.arange(len(perm)) % n_folds

    aligned = align_curves(panel, reg_fit)
    values = aligned.values
    grid = aligned.grid
    scalar_design = _panel_scalar_design(panel)
    k_x_max = max(kx for kx, _ in pairs)
    pooled = _pooled_times(panel)
    # the coefficient basis depends on k_e only, not on the fold
    bases = {ke: TruncatedPowerBasis.from_quantiles(pooled, ke) for _, ke in pairs}

    sums = {pair: 0.0 for pair in pairs}
    used = {pair: 0 for pair in pairs}
    for fold in range(n_folds):
        val_mask = fold_of == fold
        train_mask = ~val_mask
        if val_mask.sum() == 0:
            _log.warning("fold %d skipped: empty validation split", fold)
            continue
        if len(np.unique(labels[train_mask])) < 2:
            _log.warning("fold %d skipped: single-class training split", fold)
            continue
        fpca_pair = _fpca_pair(values[train_mask], grid, k_x_max, smoothing_window)
        scores_all = _score_panel(values, fpca_pair)
        y_val = labels[val_mask]
        for kx, ke in pairs:
            try:
                model, _, _, func_design = _fit_pair(
                    fpca_pair, scores_all, kx, bases[ke], scalar_design, labels, train_mask
                )
            except NumericalError:
                _log.warning("fold %d pair (%d,%d) skipped: fit failure", fold, kx, ke)
                continue
            eta = _eta(model, scalar_design[val_mask, 1:], func_design[val_mask])
            sums[(kx, ke)] += _deviance(y_val, eta) / val_mask.sum()
            used[(kx, ke)] += 1

    scored = []
    for pair in pairs:
        if used[pair] == 0:
            continue
        scored.append((sums[pair] / used[pair], pair[1], pair[0], pair))
    if not scored:
        raise DataError("every fold was skipped; cannot cross-validate")
    scored.sort()
    table = [(pair, mean_dev, used[pair]) for mean_dev, _, _, pair in scored]
    best = scored[0][3]
    if return_table:
        return best, table
    return best


# ---------------------------------------------------------------------------
# Prediction for new subjects.


@dataclass(frozen=True)
class PredictionResult:
    subject_id: str
    pi_hat: float
    label: int
    iterations: int
    converged: bool

    def __post_init__(self):
        if not (0.0 <= self.pi_hat <= 1.0):
            raise DataError(f"pi_hat must lie in [0,1], got {self.pi_hat}")


def predict_panel(
    reg_fit: RegistrationFit, model: ClassifierModel, curves, covariates
) -> list[PredictionResult]:
    """Label predictions for held-out ``curves`` and their scalar ``covariates`` (N, p).

    ``p`` must be the number of covariates the model was fitted with
    (DataError otherwise).  A subject's warp is fixed once its group
    template is, so there are two candidate alignments: under the label its
    scalar-only probability points to, and, when that alignment points to
    the other label, under that one, which decides.  Each round makes, per label, one
    ``fit_subject_warp`` call, one ``align_stack`` and one scoring pass
    over its subjects, each treated as if alone, so a result has the same
    bytes in any panel and order.  ``iterations`` counts the alignments
    scored.  A warp solve that does not converge marks a result not
    converged, as do labels that point at each other; there ``pi_hat`` is
    the second alignment's, and ``label`` is always ``int(pi_hat >= 0.5)``.
    """
    v = np.asarray(covariates, dtype=float)
    check_shape("covariates", v, (len(curves), "p"))
    if v.shape[1] != model.b1.size:
        raise DataError(
            f"each subject has {v.shape[1]} scalar covariates; "
            f"the model was fitted with {model.b1.size}"
        )
    grid = model.fpca[0].grid
    label = (scalar_only_prob(model, v) >= 0.5).astype(int).tolist()
    pi, converged = np.empty(len(curves)), np.ones(len(curves), dtype=bool)
    iterations, tried = [1] * len(curves), range(len(curves))
    for _ in range(2):  # every subject under its start label, then the switchers
        for k in (0, 1):
            rows = [i for i in tried if label[i] == k]
            if rows:
                batch = [curves[i] for i in rows]
                ords, ok = fit_subject_warp(batch, reg_fit, k)
                aligned = align_stack(batch, reg_fit.warps.anchors, ords, grid)
                pi[rows] = classify_prob(model, _score_panel(aligned, model.fpca), v[rows])
                converged[rows] &= ok
        tried = [i for i in tried if (pi[i] >= 0.5) != label[i]]
        for i in tried:
            label[i], iterations[i] = 1 - label[i], 2
    converged[tried] = False  # switchers that point back: the two-label cycle
    return [
        PredictionResult(c.subject_id, p, int(p >= 0.5), n, ok)
        for c, p, n, ok in zip(curves, pi.tolist(), iterations, converged.tolist())
    ]

def predict_new(
    reg_fit: RegistrationFit, model: ClassifierModel, curve: SubjectCurve, scalars
) -> PredictionResult:
    """``predict_panel`` on a panel of one: ``curve`` with its scalar covariates (p,)."""
    return predict_panel(reg_fit, model, [curve], np.atleast_1d(scalars)[None])[0]
