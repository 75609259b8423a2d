"""Matern covariance kernels and Gaussian linear algebra.

The Matern correlation ``c x^nu K_nu(x)``, with the norming constant
``c = 2^(1-nu)/Gamma(nu)``, has an exact path without the general Bessel
routine whenever the order allows (``_matern_exact``).  For an integer
order the scaled functions ``f_j = x^j K_j(x)`` start from ``K_0`` and
``x K_1`` and follow the upward recurrence
``f_(j+1) = x^2 f_(j-1) + 2j f_j``; for a half-integer order the same
loop starts from the elementary ``f_(1/2)`` and ``f_(3/2)``.  Every term
is positive, so nothing cancels, and no factor 1/x can overflow near
zero.  Other orders call ``scipy.special.kv``.  Since
``d/dx f_nu = -x f_(nu-1)``, the derivative of a kernel in its log
length scale is ``amplitude * c * x^2 f_(nu-1)(x)``; the recurrence
leaves ``f_(nu-1)`` as its previous term, so the derivative costs no
further Bessel evaluation.

Integer orders, the default nu = 3 among them, read the correlation and
its derivative from a table instead (``_matern_table``, built once per
order on first use): quintic Hermite pieces on cells of width 1/128 over
[0, 40), which match the exact path's values and first two derivatives
at every node.  Distances from 40 on, and for orders 1 and 2 those
below 1 (where ``c f_nu`` has an ``x^(2 nu) log x`` term), take the
exact path element by element; x = 0 gives exactly (1, 0).  The table is
within 8 eps of the exact path relative to the correlation and within
2e-15 absolute for the derivative (tests/test_gp.py); the exact path's
own Bessel values are a few ulps from the true function, so no smooth
table can follow it closer.  Half-integer and other orders keep the
exact path.

Every Matern matrix in the package comes from ``matern_cov``, on one grid
or on a stack of grids of one length, with its log-length-scale derivative
when asked: each grid's kernel is evaluated once per pair of its strict
upper triangle and spread by one cached pair index, so it is exactly
symmetric and has the same bytes alone and in any stack.

Every Cholesky factorization in the package goes through ``_cholesky``,
one matrix or a stack, with escalating diagonal jitter, and a
factorization that needed jitter logs the step it used.  The other
dense solves go through LU factorizations: the batched ``slogdet`` and
``inv`` of the Woodbury caps in ``registration._stack_sums``, and the
``np.linalg.solve`` of the basis-weight normal equations (``estimate_c``,
``estimate_d``), of the warp solver's damped systems (``_damped_steps``)
and of the classifier's IRLS steps (``classify._irls_pass``).  Explicit
inverses are formed only of small matrices, and of a stack of kernel
matrices whose entries a trace needs (``spd_inverses``), whose factors
``chol_factors`` can keep as ``CholFactor``s without factoring again.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn
from scipy.special import k0, k1, kv

from .errors import DataError, NumericalError

_log = logging.getLogger(__name__)
_trtrs = sla.lapack.dtrtrs
_potrs = sla.lapack.dpotrs

# Jitter ladder, applied relative to the mean diagonal of the matrix; the first step is none.
JITTER_STEPS = (0.0, 1e-10, 1e-8, 1e-6)
# The largest Matern smoothness accepted (``MaternParams``).
_MAX_SMOOTHNESS = 64.0


@dataclass(frozen=True)
class MaternParams:
    """(amplitude, length_scale, smoothness) triple of a Matern kernel.

    The smoothness is at most ``_MAX_SMOOTHNESS`` = 64.  Up to there, every
    path of ``_matern_corr`` (integer, half-integer and ``kv`` orders) is
    within 1e-13 absolute of a 40-digit mpmath reference, for the
    correlation and its slope at scaled distances from 1e-3 to 100.  Above
    it the error grows: scipy's ``kv`` is off by 4e-9 just past order 65
    and by 6e-4 at 140, and from order 151.5 the recurrence overflows
    where the correlation is far from 1, so the kernel would be wrong
    without an error.
    """

    amplitude: float
    length_scale: float
    smoothness: float

    def __post_init__(self):
        for name in ("amplitude", "length_scale", "smoothness"):
            if not 0 < getattr(self, name) < math.inf:  # a NaN fails too
                raise DataError(f"Matern {name} must be positive and finite, got {getattr(self, name)}")
        if self.smoothness > _MAX_SMOOTHNESS:
            raise DataError(
                f"Matern smoothness must be at most {_MAX_SMOOTHNESS:g}, got {self.smoothness}"
            )


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


def _matern_exact(nu: float, x: np.ndarray, slope: bool = True):
    """The Matern correlation and its slope straight from ``_scaled_bessel``.

    The reference for the table of ``_matern_corr``, and its path for
    orders and distances the table does not cover.  At x = 0 the pair is
    exactly (1, 0).  With ``slope=False`` only the correlation is formed
    and returned.
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


# The table of an integer order: cells of width 1/_TABLE_CELLS_PER_UNIT, a
# power of two, so that x times it and its offset within a cell are exact
# (an argument off by one ulp moves e^-x by x ulps).  Orders below 3 start
# at _TABLE_FROM, under which c f_nu has an x^(2 nu) log x term whose sixth
# derivative the quintic pieces cannot follow (tests/test_gp.py fixes it).
_TABLE_CELLS_PER_UNIT = 128
_TABLE_END = 40.0
_TABLE_FROM = 1.0


@functools.lru_cache(maxsize=8)
def _matern_table(nu: float) -> np.ndarray | None:
    """Quintic Hermite pieces of ``c f_nu`` and ``c x^2 f_(nu-1)`` for an integer order.

    Shape (2, 6, cells): the correlation and its slope, the power of the
    cell coordinate t = x 128 - k, and the cell k of [0, 40).  Each piece
    matches the values and first two derivatives of ``_scaled_bessel`` at
    both of its nodes: with f_nu' = -x f_(nu-1) and the recurrence,
    ``(c f_nu)'' = c f_nu - (2 nu - 1) c f_(nu-1)``, and the slope
    g = x^2 c f_(nu-1) has g' = x (2 nu c f_(nu-1) - c f_nu) and
    g'' = (4 nu^2 - 2 nu + x^2) c f_(nu-1) - (2 nu + 1) c f_nu.  Cells below
    ``_TABLE_FROM`` are zero for orders below 3, and at x = 0 the limits
    c f_nu = 1 and c f_(nu-1) = 1 / (2 nu - 2) stand in.  Built once per
    order, read-only, about 0.5 MB; None where an order's Bessel factors
    overflow on the nodes.
    """
    cells = int(_TABLE_END) * _TABLE_CELLS_PER_UNIT
    first = 0 if nu >= 3 else round(_TABLE_FROM * _TABLE_CELLS_PER_UNIT)
    x = np.arange(first, cells + 1) / _TABLE_CELLS_PER_UNIT
    norm = 2.0 ** (1.0 - nu) / gamma_fn(nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hi, lo = _scaled_bessel(nu, x)
        f, f1 = norm * hi, norm * lo
    if first == 0:
        f[0], f1[0] = 1.0, 0.5 / (nu - 1.0)
    x2 = x * x
    step = 1.0 / _TABLE_CELLS_PER_UNIT
    table = np.zeros((2, 6, cells))
    for out, value, deriv, curv in (
        (table[0], f, -x * f1, f - (2.0 * nu - 1.0) * f1),
        (
            table[1],
            x2 * f1,
            x * (2.0 * nu * f1 - f),
            (4.0 * nu * nu - 2.0 * nu + x2) * f1 - (2.0 * nu + 1.0) * f,
        ),
    ):
        # in t, the derivatives scale by the step; the three highest powers
        # make the piece meet the right node's value and derivatives
        y, d, s = value, step * deriv, (step * step) * curv
        rise = y[1:] - y[:-1] - d[:-1] - 0.5 * s[:-1]
        turn = d[1:] - d[:-1] - s[:-1]
        bend = s[1:] - s[:-1]
        out[:, first:] = (
            y[:-1],
            d[:-1],
            0.5 * s[:-1],
            10.0 * rise - 4.0 * turn + 0.5 * bend,
            -15.0 * rise + 7.0 * turn - bend,
            6.0 * rise - 3.0 * turn + 0.5 * bend,
        )
    if not np.isfinite(table).all():
        return None
    table.flags.writeable = False
    return table


def _matern_corr(nu: float, x: np.ndarray, slope: bool = True):
    """Matern correlation at scaled distances ``x``, and its log-length-scale derivative.

    The derivative is ``c x^2 f_(nu-1)(x)``.  An integer order reads both
    from its table (``_matern_table``): one cell index, and six coefficients
    taken and five multiply-adds per function, within 8 eps of the exact
    path relative to the correlation and 2e-15 absolute for the derivative.
    Distances from 40 on, and below 1 for orders 1 and 2, take the exact
    path element by element, as do half-integer orders (closed form) and
    all other orders (``kv``); x = 0 gives exactly (1, 0).  With
    ``slope=False`` only the correlation is formed and returned.
    """
    nu = float(nu)  # one cache entry for 3, 3.0 and np.float64(3.0)
    table = _matern_table(nu) if nu.is_integer() else None
    if table is None:
        return _matern_exact(nu, x, slope)
    exact = ~(x < _TABLE_END)  # NaN too
    if nu < 3:
        exact |= x < _TABLE_FROM
    spill = exact.any()
    u = np.where(exact, 0.0, x) if spill else x
    u = u * _TABLE_CELLS_PER_UNIT
    cell = u.astype(np.intp)
    t = u - cell
    out = []
    for coefs in table[: 1 + slope]:
        acc = coefs[5].take(cell)
        for power in (4, 3, 2, 1, 0):
            acc *= t
            acc += coefs[power].take(cell)
        out.append(acc)
    if spill:
        for acc, ref in zip(out, _matern_exact(nu, x[exact])):
            acc[exact] = ref
    return tuple(out) if slope else out[0]


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strict upper triangle's pairs (``np.triu_indices(n, 1)``) and the
    (n, n) pair index that spreads a zero distance, then those pairs, over a
    symmetric matrix; its diagonal reads the zero.  Read-only, computed once
    per length."""
    rows, cols = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(1, len(rows) + 1)
    for array in (rows, cols, index):
        array.flags.writeable = False
    return rows, cols, index


def matern_cov(params: MaternParams, s_grid, *, slope: bool = False):
    """Matern covariance matrix of one point set (n,) or of a stack of them (..., n).

    Entry (i, j) is ``amplitude * m_nu(|s_i - s_j| / length_scale)`` where
    ``m_nu`` is the standard Matern correlation with m_nu(0) = 1, at scaled
    distance ``x = sqrt(2 nu) |s_i - s_j| / length_scale``, from
    ``_matern_corr``: integer orders ``nu`` read their table for x in
    [0, 40) ([1, 40) for nu = 1 and 2), within 8 eps of the exact path
    relative to the correlation; other x and orders take the exact path
    (module docstring).  Each grid's strict upper triangle is evaluated
    once, after a leading zero distance, and spread into (..., n, n) by the
    pair index of ``_upper_pairs``, cached per grid length.  The result is
    C-ordered and exactly symmetric with the amplitude on its diagonal, and
    a grid's kernel has the same bytes alone and in any stack.  With
    ``slope`` the derivative in the log length scale, ``amplitude * c x^2
    f_(nu-1)(x)``, exactly zero on the diagonal, is returned after it;
    otherwise it is not formed.  The derivative in the log amplitude is the
    covariance itself.
    """
    nu = params.smoothness
    s = np.asarray(s_grid, dtype=float)
    rows, cols, index = _upper_pairs(s.shape[-1])
    x = np.zeros(s.shape[:-1] + (1 + len(rows),))
    x[..., 1:] = math.sqrt(2.0 * nu) * (np.abs(s[..., rows] - s[..., cols]) / params.length_scale)
    # take, unlike [..., index] on a stack, lays the matrices out C-ordered,
    # and the variance likelihood's products and sums run in that order
    if not slope:
        return (params.amplitude * _matern_corr(nu, x, slope=False)).take(index, axis=-1)
    corr, grad = _matern_corr(nu, x)
    return tuple((params.amplitude * part).take(index, axis=-1) for part in (corr, grad))


class CholFactor:
    """Cholesky factor of an SPD matrix with jitter escalation (``_cholesky``).

    ``jitter`` is the step that succeeded (0.0 when none was needed).  LAPACK
    ``potrs`` and ``trtrs`` solve with the Fortran-ordered lower factor
    directly, as the warp solver whitens a few hundred small blocks per step.
    """

    def __init__(self, mat: np.ndarray):
        self._adopt(*_cholesky(mat))

    def _adopt(self, low: np.ndarray, jitter: float) -> None:
        self._low, self.jitter, self.n = np.asfortranarray(low), float(jitter), len(low)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lapack(_potrs, rhs, lower=1)

    def half_solve(
        self, rhs: np.ndarray, transposed: bool = False, overwrite: bool = False
    ) -> np.ndarray:
        """Solve L z = rhs with the lower triangular factor, or L' z = rhs if ``transposed``.

        With ``overwrite``, z is written over ``rhs`` when it is a
        Fortran-ordered float array, as it is then LAPACK's own right side.
        """
        return self._lapack(_trtrs, rhs, lower=1, trans=int(transposed), overwrite_b=int(overwrite))

    def _lapack(self, routine, rhs, **flags) -> np.ndarray:
        out, info = routine(self._low, np.asarray(rhs, dtype=float), **flags)
        if info != 0:
            raise NumericalError(f"LAPACK {routine.__name__} failed (info {info})")
        return out

    def logdet(self) -> float:
        return _logdet(self._low)


def _logdet(low: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(low))))


def chol_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L' = mat, with jitter escalation.

    Used to color random draws; very smooth kernels on dense grids are
    numerically rank deficient, and the small diagonal bump changes the
    drawn paths by far less than the kernel amplitude.
    """
    return _cholesky(mat)[0]


def chol_factors(low: np.ndarray, jitters) -> list[CholFactor]:
    """``CholFactor``s of a stack that ``_cholesky`` has factored: its lower
    factors (k, n, n) and their jitters, as ``spd_inverses`` returns them.

    Each equals ``CholFactor`` of its matrix, bytes and jitter, as
    ``_cholesky`` factors a stack one matrix at a time.
    """
    factors = []
    for factor, jitter in zip(low, jitters):
        kept = CholFactor.__new__(CholFactor)  # already factored: no __init__
        kept._adopt(factor, jitter)
        factors.append(kept)
    return factors


def spd_inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Inverses, log determinants and factors of a stack of SPD matrices, shape (k, n, n).

    ``_cholesky`` factors the stack, and the factors are returned as its
    pair (lower factors, jitters), from which ``chol_factors`` makes
    ``CholFactor``s.  Each inverse is solved from its factor against the
    identity by LAPACK ``potrs``: triangular solves, whose results do not
    depend on the number of BLAS threads (``potri``'s do).  It is
    symmetric up to rounding.  The inverses are written over ``mats`` when
    it is a C-ordered float array.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    low, jitters = _cholesky(mats)
    # each alone, as CholFactor.logdet: a stack's axis sum adds in an order set by its shape
    logdets = np.array([_logdet(factor) for factor in low])
    diag = np.arange(low.shape[-1])
    mats[...] = 0.0
    mats[:, diag, diag] = 1.0
    for factor, out in zip(low, mats):
        # transposed, the factor is the Fortran-ordered upper one, and the
        # identity is overwritten in place with the solution
        _potrs(factor.T, out.T, lower=0, overwrite_b=1)
    return mats, logdets, (low, jitters)


def _cholesky(mats) -> tuple:
    """Lower Cholesky factors of an SPD matrix (n, n) or a stack (k, n, n), and the jitter of each.

    The package's only call of LAPACK's Cholesky: numpy's
    ``np.linalg.cholesky``, which factors a stack one matrix at a time, so
    a matrix's factor has the same bytes alone and in any stack.  (From
    n = 128 on, OpenBLAS splits one factorization across its threads, and
    the bytes then depend on the thread count.)  A matrix that is not
    positive definite is factored again with ``JITTER_STEPS`` times its
    mean diagonal (1 if that is not positive) added to its diagonal.  The
    step that succeeded, a float for one matrix and an array for a stack,
    is 0.0 where none was needed; a nonzero step is logged.  Raises
    NumericalError when the last step fails too.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim not in (2, 3) or mats.shape[-1] != mats.shape[-2]:
        raise DataError(f"expected a square matrix or a stack of them, got shape {mats.shape}")
    try:
        return np.linalg.cholesky(mats), (np.zeros(len(mats)) if mats.ndim == 3 else 0.0)
    except np.linalg.LinAlgError as exc:
        if mats.ndim == 3:
            # each alone: only the matrices that fail take jitter
            lows, jitters = zip(*(_cholesky(mat) for mat in mats))
            return np.stack(lows), np.array(jitters)
        err = exc
    scale = float(np.mean(np.diag(mats)))
    if scale <= 0:
        scale = 1.0
    for eps in JITTER_STEPS[1:]:
        try:
            low = np.linalg.cholesky(mats + (eps * scale) * np.eye(len(mats)))
        except np.linalg.LinAlgError as exc:
            err = exc
            continue
        _log.debug("Cholesky needed jitter %g on a %d x %d matrix", eps, len(mats), len(mats))
        return low, eps
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


def best_root(score, grid, signs, ends: tuple, objective, scale=float) -> float:
    """Of an objective's minima on an interval, the one of least ``objective``.

    ``signs`` are ``score``, of the sign of the objective's slope, at the
    increasing ``grid``: brentq finds the root in each cell where it turns
    from - to +, and an end (``ends``, exact) counts where the objective
    falls towards it.  Roots are mapped by ``scale``.
    """
    signs = np.asarray(signs)
    cells = np.flatnonzero((signs[:-1] < 0.0) & (signs[1:] >= 0.0))
    found = [scale(brentq(score, grid[i], grid[i + 1])) for i in cells]
    found += [ends[0]] if signs[0] >= 0.0 else []
    found += [ends[1]] if signs[-1] <= 0.0 else []
    return float(min(found, key=objective))
