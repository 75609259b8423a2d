"""Matern covariance kernels and Gaussian linear algebra.

The Matern correlation ``2^(1-nu)/Gamma(nu) x^nu K_nu(x)`` is evaluated
without the general Bessel routine whenever the order allows.  For an
integer order the scaled functions ``f_j = x^j K_j(x)`` start from
``K_0`` and ``x K_1`` and follow the upward recurrence
``f_(j+1) = x^2 f_(j-1) + 2j f_j``; for a half-integer order the same
loop starts from the elementary ``f_(1/2)`` and ``f_(3/2)``.  Every term
is positive, so nothing cancels, and no factor 1/x can overflow near
zero.  Other orders call ``scipy.special.kv``.  A kernel on one grid is
evaluated on its strict upper triangle only and mirrored, with the
diagonal set to the amplitude, so it is exactly symmetric.

Since ``d/dx f_nu = -x f_(nu-1)``, the derivative of a kernel in its log
length scale is ``amplitude * c * x^2 f_(nu-1)(x)`` with the norming
constant ``c = 2^(1-nu)/Gamma(nu)``.  The recurrence leaves ``f_(nu-1)``
as its previous term, so the derivative costs no further Bessel
evaluation.  ``GridDistances`` holds the distinct pair distances of one
grid, or of a stack of grids of one length, so that a likelihood evaluated
many times on fixed grids computes the kernel and its derivative once per
distinct distance (``matern_distinct``, ``matern_cov_grad``).

Every SPD solve in the package goes through a Cholesky factorization with
escalating diagonal jitter, and a factorization that needed jitter logs
the step it used.  Explicit inverses are formed only of small matrices,
and of a stack of kernel matrices whose entries a trace needs
(``spd_inverses``).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import gamma as gamma_fn
from scipy.special import k0, k1, kv

from .errors import DataError, NumericalError

_log = logging.getLogger(__name__)
_trtrs = sla.lapack.dtrtrs
_potrs = sla.lapack.dpotrs

# Jitter ladder, applied relative to the mean diagonal of the matrix.
JITTER_STEPS = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class MaternParams:
    """(amplitude, length_scale, smoothness) triple of a Matern kernel."""

    amplitude: float
    length_scale: float
    smoothness: float

    def __post_init__(self):
        for name in ("amplitude", "length_scale", "smoothness"):
            if not getattr(self, name) > 0:
                raise DataError(f"Matern {name} must be positive, got {getattr(self, name)}")


def _scaled_bessel(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x^nu K_nu(x)`` and ``x^(nu-1) K_(nu-1)(x)``.

    Integer and half-integer orders take both from the recurrence, whose
    previous term is the second (``sqrt(pi/2) e^-x / x`` for nu = 1/2);
    other orders call ``kv`` twice.
    """
    if float(nu).is_integer():
        lo, hi, order = k0(x), x * k1(x), 1.0
    elif (2.0 * nu).is_integer():
        lo = math.sqrt(0.5 * math.pi) * np.exp(-x)
        hi, order = (1.0 + x) * lo, 1.5
        if nu == 0.5:
            return lo, lo / x
    else:
        return x**nu * kv(nu, x), x ** (nu - 1.0) * kv(nu - 1.0, x)
    x2 = x * x
    while order < nu:
        lo, hi = hi, x2 * lo + (2.0 * order) * hi
        order += 1.0
    return hi, lo


def _matern_corr(nu: float, x: np.ndarray, slope: bool = True):
    """Matern correlation at scaled distances ``x``, and its log-length-scale derivative.

    The derivative is ``c x^2 f_(nu-1)(x)``.  At x = 0 the pair is exactly
    (1, 0).  With ``slope=False`` only the correlation is formed and returned.
    """
    norm = 2.0 ** (1.0 - nu) / gamma_fn(nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val, low = _scaled_bessel(nu, x)
    # At x = 0, and where x is so small that a Bessel factor overflows, the
    # correlation is 1 to double precision and its derivative 0.
    keep = (x > 0.0) & np.isfinite(val)
    corr = np.where(keep, norm * val, 1.0)
    if not slope:
        return corr
    with np.errstate(over="ignore", invalid="ignore"):
        grad = x * x * low
    return corr, np.where(keep & np.isfinite(grad), norm * grad, 0.0)


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)`` as read-only arrays, computed once per length."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def matern_cov(params: MaternParams, s_grid) -> np.ndarray:
    """Matern covariance matrix of one point set.

    Entry (i, j) is ``amplitude * m_nu(|s_i - s_j| / length_scale)`` where
    ``m_nu`` is the standard Matern correlation with m_nu(0) = 1, at scaled
    distance ``x = sqrt(2 nu) |s_i - s_j| / length_scale``.  Integer and
    half-integer orders ``nu`` use the recurrence of the module docstring,
    other orders ``scipy.special.kv``.  Only the strict upper triangle is
    evaluated, and only the correlation, not its derivative; its pair
    indices are cached per grid length.  The result is exactly symmetric
    with the amplitude on its diagonal.
    """
    nu = params.smoothness
    scale = math.sqrt(2.0 * nu)
    s = np.asarray(s_grid, dtype=float)
    n = len(s)
    rows, cols = _upper_pairs(n)
    x = scale * (np.abs(s[rows] - s[cols]) / params.length_scale)
    upper = params.amplitude * _matern_corr(nu, x, slope=False)
    out = np.empty((n, n))
    out[rows, cols] = upper
    out[cols, rows] = upper
    np.fill_diagonal(out, params.amplitude)
    return out


@dataclass(frozen=True)
class GridDistances:
    """The distinct pair distances of one grid, and each pair's place among them.

    ``distinct[index]`` is the n x n matrix of distances ``|s_i - s_j|``,
    zero on the diagonal.  On ``linspace(0, 1, 100)`` its 10,000 entries
    take 337 distinct values, zero included; on a jittered grid nearly
    every pair has its own.
    """

    distinct: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, grid) -> "GridDistances":
        s = np.asarray(grid, dtype=float)
        dist = np.abs(s[:, None] - s[None, :])
        distinct, inverse = np.unique(dist, return_inverse=True)
        return cls(distinct, inverse.reshape(dist.shape))

    @classmethod
    def stack(cls, grids) -> "GridDistances":
        """Several grids of one length: their distinct distances one after the
        other, and an index of shape (grids, n, n) into them."""
        n = len(grids[0])
        index = np.empty((len(grids), n, n), dtype=np.intp)
        distinct = []
        start = 0
        for grid, out in zip(grids, index):
            part = cls.of(grid)
            np.add(part.index, start, out=out)
            distinct.append(part.distinct)
            start += len(part.distinct)
        return cls(np.concatenate(distinct), index)


def matern_distinct(params: MaternParams, dists: GridDistances) -> tuple[np.ndarray, np.ndarray]:
    """Matern covariance and its log-length-scale derivative at ``dists.distinct``.

    Indexed by ``dists.index`` they give ``matern_cov_grad``.  The
    derivative in the log amplitude is the covariance itself.
    """
    nu = params.smoothness
    x = math.sqrt(2.0 * nu) * (dists.distinct / params.length_scale)
    corr, slope = _matern_corr(nu, x)
    return params.amplitude * corr, params.amplitude * slope


def matern_cov_grad(params: MaternParams, dists: GridDistances) -> tuple[np.ndarray, np.ndarray]:
    """Matern covariance on one grid and its derivative in the log length scale.

    The covariance equals ``matern_cov(params, grid)`` byte for byte; the
    derivative is ``amplitude * c x^2 f_(nu-1)(x)``, zero on the diagonal
    (module docstring).  Both are evaluated once per distinct distance.
    """
    cov, slope = matern_distinct(params, dists)
    return cov[dists.index], slope[dists.index]


class CholFactor:
    """Cholesky factor of an SPD matrix with jitter escalation.

    Factorization retries with diagonal jitter 1e-10, 1e-8, 1e-6 (scaled
    by the mean diagonal) before giving up.  ``jitter`` is the step that
    succeeded (0.0 when none was needed); a nonzero step is logged.
    """

    def __init__(self, mat: np.ndarray):
        (factor, lower), self.jitter = _jittered(mat, _cho_factor)
        self._cf = (np.asfortranarray(factor), lower)
        self.n = len(factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return sla.cho_solve(self._cf, np.asarray(rhs, dtype=float), check_finite=False)

    def half_solve(self, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Solve L z = rhs with the lower triangular factor, or L' z = rhs if ``transposed``.

        Calls LAPACK ``trtrs`` directly, as ``solve_triangular`` does for a
        Fortran-ordered factor, without its per-call checks: the warp
        solver whitens a few hundred small blocks per step.
        """
        z, info = _trtrs(self._cf[0], np.asarray(rhs, dtype=float), lower=1, trans=int(transposed))
        if info != 0:
            raise NumericalError(f"triangular solve failed (LAPACK info {info})")
        return z

    def quad(self, vec: np.ndarray) -> float:
        """Quadratic form vec' M^{-1} vec (Mahalanobis square)."""
        z = self.half_solve(vec)
        return float(z @ z)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._cf[0]))))


def chol_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L' = mat, with jitter escalation.

    Used to color random draws; very smooth kernels on dense grids are
    numerically rank deficient, and the small diagonal bump changes the
    drawn paths by far less than the kernel amplitude.
    """
    return _jittered(mat, np.linalg.cholesky)[0]


def spd_inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and log determinants of a stack of SPD matrices, shape (k, n, n).

    One batched Cholesky factors the stack.  If any matrix fails, each is
    factored alone through the jitter ladder, as ``CholFactor`` does.  Each
    inverse is solved from its factor against the identity by LAPACK
    ``potrs``: triangular solves, whose results do not depend on the number
    of BLAS threads (``potri``'s do, and so does OpenBLAS's Cholesky from
    n = 128).  It is symmetric up to rounding.  The inverses are written
    over ``mats`` when it is a C-ordered float array.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    try:
        low = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        low = np.stack([_jittered(mat, np.linalg.cholesky)[0] for mat in mats])
    diag = np.arange(low.shape[-1])
    logdets = 2.0 * np.sum(np.log(low[:, diag, diag]), axis=1)
    mats[...] = 0.0
    mats[:, diag, diag] = 1.0
    for factor, out in zip(low, mats):
        # transposed, the factor is the Fortran-ordered upper one, and the
        # identity is overwritten in place with the solution
        _potrs(factor.T, out.T, lower=0, overwrite_b=1)
    return mats, logdets


def _cho_factor(mat: np.ndarray) -> tuple:
    try:
        return sla.cho_factor(mat, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise  # not positive definite: the caller tries the next jitter step
    except ValueError as exc:
        raise NumericalError(f"cannot factor matrix: {exc}") from exc


def _jittered(mat, factor) -> tuple:
    """``factor(mat)``, retried up ``JITTER_STEPS`` while it raises LinAlgError.

    Each step adds its multiple of the mean diagonal (1 if that is not
    positive) to the diagonal.  Returns the factor and the step used, and
    logs a nonzero step.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataError(f"expected a square matrix, got shape {mat.shape}")
    scale = float(np.mean(np.diag(mat)))
    if scale <= 0:
        scale = 1.0
    err = None
    for eps in JITTER_STEPS:
        bumped = mat if eps == 0.0 else mat + (eps * scale) * np.eye(len(mat))
        try:
            out = factor(bumped)
        except np.linalg.LinAlgError as exc:
            err = exc
            continue
        if eps > 0.0:
            _log.debug("Cholesky needed jitter %g on a %d x %d matrix", eps, len(mat), len(mat))
        return out, eps
    raise NumericalError(
        f"matrix not positive definite after jitter up to {JITTER_STEPS[-1]}: {err}"
    )


def profile_loglik_parts(quad_sum: float, logdet_sum: float, n: int) -> tuple[float, float]:
    """Gaussian log-likelihood with the noise variance profiled out.

    For residuals r ~ N(0, sigma^2 V), summed over independent blocks, the
    arguments are the sums of r' V^{-1} r and of log det V and the total
    length n.  The profile maximizer is ``sigma2_hat = quad_sum / n`` and
    the profiled value (up to an additive constant) is
    ``-(logdet_sum + n log sigma2_hat + n) / 2``.
    """
    sigma2 = max(quad_sum / n, 1e-12)
    loglik = -0.5 * (logdet_sum + n * math.log(sigma2) + n)
    return loglik, sigma2
