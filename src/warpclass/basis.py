"""Spline bases, monotone interpolation, and quadrature on [0, 1].

Three basis families are collected here: B-spline design matrices for the
mean curves, a truncated power basis for functional regression
coefficients, and a monotonicity-preserving cubic Hermite interpolant used
to turn warp anchor offsets into full warping functions.  Trapezoidal
quadrature helpers realize every integral in the pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import DataError, NumericalError

# Points this far outside a domain are treated as round-off and clipped.
DOMAIN_TOL = 1e-12
# MonotoneInterpolant.inverse: a point is solved once its Newton step in the
# cell coordinate is this small or its residual is at rounding level.  The
# bracket keeps every step inside the cell; the cap only guards the loop.
_INVERSE_STEP_TOL = 1e-12
_INVERSE_MAX_ITERS = 100


def _check_domain(x: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size and (x.min() < lo - DOMAIN_TOL or x.max() > hi + DOMAIN_TOL):
        raise DataError(
            f"{what}: value outside [{lo}, {hi}] "
            f"(min {x.min():.6g}, max {x.max():.6g})"
        )
    return np.clip(x, lo, hi)


@dataclass(frozen=True)
class BSplineBasis:
    """Open B-spline basis on [0, 1] with clamped (order-fold) end knots.

    Parameters
    ----------
    interior_knots : tuple of float
        Strictly increasing knots inside (0, 1).
    order : int
        Polynomial order (degree + 1); 4 gives cubic splines.
    """

    interior_knots: tuple[float, ...]
    order: int = 4
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    # every basis function as one q-valued spline (coefficients the identity)
    _columns: BSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise DataError(f"B-spline order must be >= 1, got {self.order}")
        ik = np.asarray(self.interior_knots, dtype=float)
        if ik.size and (np.any(np.diff(ik) <= 0) or ik.min() <= 0 or ik.max() >= 1):
            raise DataError("interior knots must be strictly increasing inside (0, 1)")
        full = np.concatenate([np.zeros(self.order), ik, np.ones(self.order)])
        full.flags.writeable = False
        object.__setattr__(self, "interior_knots", tuple(ik.tolist()))
        object.__setattr__(self, "knots", full)
        columns = BSpline.construct_fast(full, np.eye(self.size), self.order - 1)
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def uniform(cls, n_interior: int = 8, order: int = 4) -> "BSplineBasis":
        """Basis with ``n_interior`` equally spaced knots in (0, 1)."""
        if n_interior < 0:
            raise DataError(f"number of interior knots must be >= 0, got {n_interior}")
        ik = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
        return cls(interior_knots=tuple(ik.tolist()), order=order)

    @property
    def size(self) -> int:
        """Number of basis functions q."""
        return len(self.interior_knots) + self.order

    def design(self, x) -> np.ndarray:
        """Design matrix with rows (psi_1(x_j), ..., psi_q(x_j)).

        Dense, from the basis's q-valued spline at the points clipped to
        [0, 1]: byte for byte ``BSpline.design_matrix(...).toarray()``,
        without building a sparse matrix.
        """
        return self._columns(_check_domain(x, 0.0, 1.0, "B-spline design"))

    def spline(self, coef: np.ndarray) -> BSpline:
        """Callable spline with the given coefficients.

        A (q,) vector gives a scalar spline; a (k, q) array gives a
        k-valued one whose values at x are (len(x), k).
        """
        coef = np.asarray(coef, dtype=float)
        if coef.ndim not in (1, 2) or coef.shape[-1] != self.size:
            raise DataError(f"expected {self.size} coefficients, got {coef.shape}")
        # the knots were checked when the basis was built, the shape here
        return BSpline.construct_fast(
            self.knots, np.ascontiguousarray(coef.T), self.order - 1, extrapolate=True
        )


@dataclass(frozen=True)
class TruncatedPowerBasis:
    """Truncated power basis {1, t, (t - k_3)_+, ..., (t - k_K)_+}.

    ``size`` is the total number of columns K; the first two are the
    global linear part and the remaining ``size - 2`` are hinge terms.
    """

    size: int
    knots: tuple[float, ...]

    def __post_init__(self):
        if self.size < 2:
            raise DataError(f"truncated power basis needs size >= 2, got {self.size}")
        kn = np.asarray(self.knots, dtype=float)
        if len(kn) != self.size - 2:
            raise DataError(
                f"expected {self.size - 2} hinge knots for size {self.size}, got {len(kn)}"
            )
        if kn.size and (np.any(np.diff(kn) <= 0) or kn.min() <= 0 or kn.max() >= 1):
            raise DataError(
                "hinge knots must be strictly increasing inside (0, 1); "
                "reduce the basis size if quantiles collide"
            )
        object.__setattr__(self, "knots", tuple(kn.tolist()))

    @classmethod
    def from_quantiles(cls, times, size: int) -> "TruncatedPowerBasis":
        """Place the hinge knots at equally spaced quantiles of ``times``."""
        t = np.unique(np.asarray(times, dtype=float))
        probs = np.arange(1, size - 1) / (size - 1)
        return cls(size=size, knots=tuple(np.quantile(t, probs).tolist()))

    def design(self, x) -> np.ndarray:
        x = _check_domain(x, 0.0, 1.0, "truncated power design")
        cols = [np.ones_like(x), x]
        for k in self.knots:
            cols.append(np.maximum(x - k, 0.0))
        return np.column_stack(cols)


@dataclass(frozen=True)
class MonotoneInterpolant:
    """C1 piecewise-cubic Hermite interpolant with filtered slopes.

    Slopes are limited so that the interpolant is monotone on every
    interval where the data is monotone; evaluation outside the anchor
    span raises.  ``values`` and ``slopes`` may be (..., m), several
    interpolants on the same anchors evaluated together at the same times;
    ``at_rows`` evaluates a stack (N, m) each at its own row of times, and
    ``inverse`` takes one or a stack (N, m).
    """

    anchors: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __call__(self, t) -> np.ndarray:
        y, d = self.values, self.slopes
        idx, h, (h00, h10, h01, h11) = _hermite_cells(self.anchors, t)
        y0, y1 = y.take(idx, axis=-1), y.take(idx + 1, axis=-1)
        d0, d1 = d.take(idx, axis=-1), d.take(idx + 1, axis=-1)
        return y0 * h00 + h * d0 * h10 + y1 * h01 + h * d1 * h11

    def at_rows(self, t) -> np.ndarray:
        """A stack (N, m) of interpolants, row i at row i of the times ``t`` (N, n).

        Each point's value has the bits it has when its interpolant is
        called alone at its row.
        """
        y, d = self.values, self.slopes
        idx, h, (h00, h10, h01, h11) = _hermite_cells(self.anchors, t)
        if y.ndim != 2 or idx.ndim != 2 or len(idx) != len(y):
            raise DataError(f"{len(y)} interpolants cannot take times of shape {idx.shape} by row")
        idx = idx + y.shape[1] * np.arange(len(y))[:, None]  # each row's cells in the flat stack
        y0, y1 = y.take(idx), y.take(idx + 1)
        d0, d1 = d.take(idx), d.take(idx + 1)
        return y0 * h00 + h * d0 * h10 + y1 * h01 + h * d1 * h11

    def inverse(self, values) -> np.ndarray:
        """Abscissae t with self(t) = values, for strictly increasing values.

        ``values`` is 1-D.  An interpolant whose ordinates are a stack
        (N, m) is inverted row by row at the same targets, giving (N, len(values)).
        Each target's cell is found once from the ordinates; the cell's
        cubic p(s) on s in [0, 1] is then solved by Newton from the
        cell-linear guess.  A bracket [lo, hi] follows the sign of
        p(s) - target, and a Newton step that leaves the closed bracket is
        replaced by the bracket midpoint.  A row stops once each of its
        points has taken a small step or is solved, and the iteration cap
        holds per row, so each row of a stack comes back with the bits it
        has when inverted alone.  Targets equal to an ordinate map exactly
        to its anchor, and within a row a larger target never maps lower.
        """
        x, y, d = self.anchors, self.values, self.slopes
        if y.ndim not in (1, 2):
            raise DataError("only one interpolant or a stack (N, m) of them can be inverted")
        y2, d2 = np.atleast_2d(y), np.atleast_2d(d)
        if np.any(np.diff(y2, axis=1) <= 0):
            raise DataError("interpolant values must be strictly increasing to invert")
        targets = np.asarray(values, dtype=float)
        if targets.ndim != 1:
            raise DataError("the targets of an inverse must be 1-D")
        lo_y, hi_y = y2[:, :1], y2[:, -1:]
        if targets.size:
            low, high = targets.min(), targets.max()
            outside = (low < lo_y - DOMAIN_TOL) | (high > hi_y + DOMAIN_TOL)
            if outside.any():
                i = int(np.argmax(outside))
                raise DataError(
                    f"monotone interpolant inverse: value outside [{y2[i, 0]}, {y2[i, -1]}] "
                    f"(min {low:.6g}, max {high:.6g})"
                )
        v = np.clip(targets, lo_y, hi_y)
        # each target's cell, searchsorted(side="right") - 1 clipped to the
        # last cell: the clipped targets lie in [y[0], y[-1]], so it is the
        # count of interior ordinates at or below them
        n_rows, m = y2.shape
        idx = (y2[:, 1:-1, None] <= v[:, None, :]).sum(axis=1)
        flat = idx + m * np.arange(n_rows)[:, None]
        y0, y1 = y2.take(flat), y2.take(flat + 1)
        h = x[idx + 1] - x[idx]
        dy = y1 - y0
        # p(s) - y0 = s * (m0 + s * (c2 + s * c3)), the Hermite cubic
        m0, m1 = h * d2.take(flat), h * d2.take(flat + 1)
        c2 = 3.0 * dy - 2.0 * m0 - m1
        c3 = m0 + m1 - 2.0 * dy
        r = v - y0
        ftol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(y0), np.abs(y1))
        s = r / dy
        solution = np.empty_like(s)
        rows = np.arange(n_rows)  # the rows still iterating
        lo, hi = np.zeros_like(s), np.ones_like(s)
        for _ in range(_INVERSE_MAX_ITERS):
            f = s * (m0 + s * (c2 + s * c3)) - r
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f > 0.0, s, hi)
            # a zero residual stays put, also where the slope is zero
            fp = m0 + s * (2.0 * c2 + 3.0 * s * c3)
            with np.errstate(divide="ignore"):
                newton = s - np.divide(f, fp, out=np.zeros_like(f), where=f != 0.0)
            s_next = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
            small = np.abs(s_next - s) <= _INVERSE_STEP_TOL
            solved = np.abs(f) <= ftol
            # a solved point keeps its iterate: where the slope is near zero
            # the Newton step from a tiny residual can still cross the cell
            s = np.where(solved & ~small, s, s_next)
            stop = small | solved
            if stop.all():
                solution[rows] = s
                break
            done = stop.all(axis=1)
            if done.any():
                solution[rows[done]] = s[done]
                rows = rows[~done]
                s, lo, hi, m0, c2, c3, r, ftol = (
                    a[~done] for a in (s, lo, hi, m0, c2, c3, r, ftol)
                )
        else:
            raise NumericalError(
                f"monotone interpolant inverse did not converge in {_INVERSE_MAX_ITERS} steps"
            )
        t = np.where(v == hi_y, x[-1], np.minimum(x[idx] + h * solution, x[idx + 1]))
        # each solve stops within a residual tolerance, so targets a few ulps
        # apart can come back an ulp out of order; put them back in order.
        # Clipping keeps the targets' order, and equal targets get equal t.
        order = np.argsort(targets, kind="stable")
        t[:, order] = np.maximum.accumulate(t[:, order], axis=1)
        return t if y.ndim == 2 else t[0]


def _hermite_cells(x: np.ndarray, t) -> tuple:
    """Cell index, cell width and the four cubic Hermite basis values at ``t``."""
    t = _check_domain(t, x[0], x[-1], "monotone interpolant")
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    s = (t - x[idx]) / h
    s2 = s * s
    s3 = s2 * s
    return idx, h, (2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s, -2.0 * s3 + 3.0 * s2, s3 - s2)


def hermite_weights(anchors, t) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (W_y, W_d) with interpolant(t) = W_y @ values + W_d @ slopes.

    Both are (len(t), len(anchors)) and depend only on the anchors and
    ``t``, so a warp evaluated many times at fixed times reuses them.
    """
    x = np.asarray(anchors, dtype=float)
    idx, h, (h00, h10, h01, h11) = _hermite_cells(x, t)
    rows = np.arange(len(idx))
    wy = np.zeros((len(idx), len(x)))
    wd = np.zeros((len(idx), len(x)))
    wy[rows, idx] = h00
    wy[rows, idx + 1] = h01
    wd[rows, idx] = h * h10
    wd[rows, idx + 1] = h * h11
    return wy, wd


@functools.lru_cache(maxsize=16)
def _hyman_constants(anchor_bytes: bytes) -> tuple:
    """What ``hyman_slopes`` needs of one anchor grid, computed once per grid.

    The grid's spacings h; the three-point slope of anchor j as
    ``(w[j] * delta[at[j]] + w[m + j] * delta[at[m + j]]) / den[j]`` in the
    secants delta; ``near``, the indices of the left secants of all anchors
    and then of their right ones; whether each anchor is interior; and
    ``rows`` (m, 4, m), its Jacobian row in the values on each filter
    branch: zero, unfiltered, capped at the left secant and capped at the
    right one.  The arrays are read-only.
    """
    x = np.frombuffer(anchor_bytes)
    m = len(x)
    if m < 2:
        raise DataError("need at least two anchors")
    h = np.diff(x)
    if np.any(h <= 0):
        raise DataError("anchors must be strictly increasing")
    if m == 2:
        wa, ia, wb, ib, den = np.ones(2), [0, 0], np.zeros(2), [0, 0], np.ones(2)
    else:
        h0, h1, hl, hm = h[0], h[1], h[-1], h[-2]
        inner = np.arange(1, m - 1)
        wa = np.concatenate([[2.0 * h0 + h1], h[1:], [2.0 * hl + hm]])
        wb = np.concatenate([[-h0], h[:-1], [-hl]])
        ia = np.concatenate([[0], inner - 1, [m - 2]])
        ib = np.concatenate([[1], inner, [m - 3]])
        den = np.concatenate([[h0 + h1], h[:-1] + h[1:], [hl + hm]])
    # The unfiltered slope's weights on the secants, chained through
    # delta_k = (y_{k+1} - y_k) / h_k into rows in the values.
    weights = np.zeros((m, m - 1))
    np.add.at(weights, (np.arange(m), ia), wa / den)
    np.add.at(weights, (np.arange(m), ib), wb / den)
    chained = weights / h
    unfiltered = np.zeros((m, m))
    unfiltered[:, :-1] -= chained
    unfiltered[:, 1:] += chained
    # 3x one secant, for the capped branch
    secant = np.zeros((m - 1, m))
    secant[np.arange(m - 1), np.arange(m - 1)] = -3.0 / h
    secant[np.arange(m - 1), np.arange(1, m)] = 3.0 / h
    lo = np.maximum(np.arange(m) - 1, 0)
    hi = np.minimum(np.arange(m), m - 2)
    rows = np.stack([np.zeros((m, m)), unfiltered, secant[lo], secant[hi]], axis=1)
    interior = (np.arange(m) > 0) & (np.arange(m) < m - 1)
    w, at = np.concatenate([wa, wb]), np.concatenate([ia, ib])
    out = (h, w, at, den, np.concatenate([lo, hi]), interior, np.arange(m), rows)
    for arr in out:
        arr.flags.writeable = False
    return out


def hyman_slopes(anchors, values) -> tuple[np.ndarray, np.ndarray]:
    """Filtered Hermite slopes at the anchors and their Jacobian in the values.

    ``values`` is (..., m) for m anchors: each slice along the last axis is
    one set of ordinates, and the slopes (..., m) and Jacobians (..., m, m)
    keep the leading shape.  Initial slopes are three-point parabolic
    estimates; each is then limited to the monotone region of its two
    adjacent secants (zeroed at data extrema, capped at 3x the smaller
    neighbouring secant).  Between branch switches every filtered slope is
    a fixed linear combination of the secants, so the Jacobian is exact
    away from the switches: each anchor's row is the constant row of its
    branch (``_hyman_constants``).
    """
    x = np.asarray(anchors, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or y.ndim < 1 or y.shape[-1] != len(x):
        raise DataError("anchors must be 1-D and values (..., len(anchors))")
    h, w, at, den, near, interior, index, rows = _hyman_constants(x.tobytes())
    m = len(index)
    delta = (y[..., 1:] - y[..., :-1]) / h
    terms = w * delta.take(at, axis=-1)
    d = (terms[..., :m] + terms[..., m:]) / den
    # Slope filter: zero at extrema, sign-matched and capped elsewhere.  At
    # the two ends both neighbouring secants are the one adjacent secant.
    secants = delta.take(near, axis=-1)
    sizes = np.abs(secants)
    left, right = secants[..., :m], secants[..., m:]
    abs_left, abs_right = sizes[..., :m], sizes[..., m:]
    sign = np.copysign(1.0, right)
    unfiltered = sign * d
    cap = 3.0 * np.minimum(abs_left, abs_right)
    zero = np.where(interior, left * right <= 0.0, right == 0.0)
    slopes = np.where(zero, 0.0, sign * np.minimum(np.maximum(unfiltered, 0.0), cap))
    # branch 0 zero, 1 unfiltered, 2 capped at the left secant, 3 at the right
    branch = np.where(unfiltered > cap, 2 + (abs_left > abs_right), unfiltered > 0.0)
    branch[zero] = 0
    return slopes, rows[index, branch]


def hyman_interp(anchors, values) -> MonotoneInterpolant:
    """Monotonicity-preserving cubic Hermite interpolation.

    Slopes come from ``hyman_slopes``.  Data that is monotone yields a
    monotone interpolant; identity data is reproduced exactly.
    """
    d, _ = hyman_slopes(anchors, values)
    return MonotoneInterpolant(
        anchors=np.asarray(anchors, dtype=float), values=np.asarray(values, dtype=float), slopes=d
    )


def quad_weights(grid) -> np.ndarray:
    """Trapezoidal quadrature weights; exact for degree <= 1 polynomials."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise DataError("quadrature grid must be 1-D with length >= 2")
    if np.any(np.diff(g) <= 0):
        raise DataError("quadrature grid must be strictly increasing")
    w = np.empty(len(g))
    w[0] = 0.5 * (g[1] - g[0])
    w[-1] = 0.5 * (g[-1] - g[-2])
    w[1:-1] = 0.5 * (g[2:] - g[:-2])
    return w


def cross_gram(f_cols: np.ndarray, g_cols: np.ndarray, grid) -> np.ndarray:
    """Matrix of pairwise quadrature inner products between column sets."""
    f_cols = np.atleast_2d(np.asarray(f_cols, dtype=float))
    g_cols = np.atleast_2d(np.asarray(g_cols, dtype=float))
    if f_cols.shape[0] != g_cols.shape[0]:
        raise DataError(
            f"row count mismatch: {f_cols.shape[0]} vs {g_cols.shape[0]}"
        )
    w = quad_weights(grid)
    if len(w) != f_cols.shape[0]:
        raise DataError("grid length does not match column rows")
    return f_cols.T @ (w[:, None] * g_cols)
