"""First-level model: warped nonlinear mixed-effects curve registration.

Each subject's two-coordinate curve is modeled as a group mean profile
(B-spline expansion with shared weights plus centered group deviations)
composed with a subject-specific monotone time warp, plus a smooth
Gaussian-process residual and white noise.  Warps are built from anchor
offsets: a fixed per-group offset vector and a random per-subject one,
interpolated monotonically, with boundary anchors pinned so g(0) = 0 and
g(1) = 1.

Fitting alternates three conditional steps: generalized least squares for
the basis weights, damped Newton steps for the warp anchors (the warp part
of the objective is a sum of squares whose Jacobian and second-order term
are analytic, so the solver has the exact Hessian), and maximum likelihood
for the variance parameters on a linearized model (Newton steps projected
on a box, with the analytic gradient of the profiled likelihood and its
average-information matrix).
The basis-weight step is one GLS pass: each warp and variance state
gets one set of per-group normal equations (``gls_normals``), from which
the shared weights, the group deviations and the ridge weight are solved.
A fit builds the constants of its distinct observation grids once, in one
``GridTable`` that no step changes: the warp's Hermite weights and the
variance stacks.  A variance step returns, with its parameters, each
grid's factor of I + S from their likelihood evaluation, and the next
``GlsContext`` takes them, so only a fit's first state evaluates the curve
kernel grid by grid and factors it (``GridTable.factors``).
A warp problem is assembled from parts built once where they are fixed:
per fit and per variance state in ``GlsContext``, per group in each warp
step.  It holds many subjects of one group, laid out per observation
length: one residual call evaluates all of them (the Hyman slopes of all
at once, each length's warped times and their derivatives in one pass on
its grids' stacked Hermite weights, the mean spline and its two
derivatives once on all warped times, and two triangular solves per grid,
as numpy has no batched one), and the Levenberg-Marquardt solver runs a
batch of problems in lock step, each deciding as if solved alone.
A problem fixes, when it is built, how a call on all of its subjects runs
(``WarpProblem.layout``), and a call is two steps: the warped mean curves,
which depend on the ordinates and the grids only (``_warp_geometry``), then
their whitening against the curves (``_whitened``).  The variance step's
first-order expansion in the warp offsets is those warped mean curves and
their slopes alone (``build_linearization``).
Designs are warped the same way, one ``hyman_interp`` per length.  A warp
step solves each group's subjects as one batch, then the group's offsets
on all members at once; held-out subjects under one group are a batch too
(a held-out subject alone is a batch of one), solved by the same solver.
The solver takes its first evaluation from its caller: a warp step
evaluates its start, and a held-out solve on one grid, which starts every
subject at its class warp, whitens the class warp's geometry on the grid,
cached by value beside the grid's and the group's parts
(``_held_out_start``).
The variance likelihood is evaluated one stack at a time: the grids of one
length with the same number of subjects, whose kernels, factors and
gradient traces are batched, and whose sums run in a fixed order whatever
the number of BLAS threads; the stacks' terms are added in stack order.
The alternation is coordinate descent on one penalized objective
(residual Mahalanobis norms + warp prior + ridge on group deviations), so
its trace is non-increasing once the variance parameters are frozen.
The ridge weight is the ratio of the noise variance to the variance of
the group deviations; it is estimated by maximum marginal likelihood on a
fixed interval each time the variance parameters are, and frozen with them.
Alignment carries curves, a training panel's or held-out ones, to a common
grid through their inverse warps, inverted in one stacked call
(``align_stack``), each row with the bits of its own inverse.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np
from scipy.interpolate import BSpline
# Unused here: perfbench/tracing.py wraps registration.minimize by name.
from scipy.optimize import minimize  # noqa: F401

from .basis import BSplineBasis, hermite_weights, hyman_interp, hyman_slopes
from .codec import decode, encode
from .curves import CurvePanel, SubjectCurve
from .errors import (
    DataError,
    NumericalError,
    check_format_version,
    check_int,
    check_real,
    check_reals,
    check_shape,
)
from .gp import (
    CholFactor,
    MaternParams,
    best_root,
    chol_factors,
    matern_cov,
    profile_loglik_parts,
    spd_inverses,
)

_log = logging.getLogger(__name__)

# Likelihood value where a factorization fails (CholFactor gives up after
# its jitter ladder, or a Woodbury cap loses definiteness in rounding).
_BIG = 1e12
_MONO_EPS = 1e-10
# Warp solver stopping rules: gradient size and relative objective decrease.
# Near the minimum the solver's Newton steps converge quadratically, so the
# tight decrease bound costs little: held-out solves on Study 2 draws took as
# many residual evaluations with a bound of 1e-10.
_FTOL = 1e-13
_GTOL = 1e-5
# Entries kept by each held-out parts cache (_held_out_grid, _held_out_group,
# _held_out_start), which outlive a fit; this bounds their memory.
_GRID_FACTORS_KEPT = 8
# estimate_ridge's interval (a fit's ridge weight lies in it) and its points
# of log lambda, ten a decade.
_RIDGE_MIN = 1e-12
_RIDGE_MAX = 1e12
_RIDGE_GRID = 241
# Variance solver (_projected_newton): L-BFGS-B's default stopping rules, the
# largest projected gradient entry and the relative decrease of one step
# (factr 1e7 times the machine epsilon), and the step halvings it tries.
_VAR_PGTOL = 1e-5
_VAR_FTOL = 1e7 * np.finfo(float).eps
_VAR_HALVINGS = 30
# Bytes of one n x n array over a stack of grids in the variance likelihood;
# more grids of one shape make several stacks, which bounds its memory.
_STACK_BYTES = 2**18
# Format of RegistrationFit.to_dict; a payload of another version is refused.
_FIT_FORMAT_VERSION = 2
# Residual evaluations of one warp solve and iterations of one variance step
# (RegistrationConfig.warp_maxfun and variance_maxiter).
DEFAULT_WARP_MAXFUN = 500
DEFAULT_VARIANCE_MAXITER = 100


@dataclass(frozen=True)
class VarianceParams:
    """Noise SD plus the two relative covariance kernels.

    Kernels are stored unscaled: the model covariance of the smooth
    residual is ``noise_sd**2 * S`` and of the warp anchors is
    ``noise_sd**2 * H``, so only ``noise_sd`` carries units.
    """

    noise_sd: float
    curve_cov: MaternParams
    warp_cov: MaternParams

    def __post_init__(self):
        if not 0 < self.noise_sd < np.inf:  # a NaN fails too
            raise DataError(f"noise_sd must be positive and finite, got {self.noise_sd}")


@dataclass(frozen=True)
class MeanWeights:
    """Shared basis weights (2 x q) and per-group deviations summing to zero."""

    shared: np.ndarray
    group: dict[int, np.ndarray]  # label -> (2, q)

    def coef(self, a: int, label: int) -> np.ndarray:
        return self.shared[a] + self.group[label][a]

    def coefs(self, label: int) -> np.ndarray:
        """Both coordinates' weights (2, q) for one group."""
        return self.shared + self.group[label]


@dataclass
class WarpState:
    """Anchor grid plus fixed (group) and random (subject) ordinate offsets."""

    anchors: np.ndarray
    group_offsets: dict[int, np.ndarray]  # label -> (n_w,), boundary entries 0
    subject_offsets: dict[str, np.ndarray]  # subject_id -> (n_w,), boundary entries 0
    group_of: dict[str, int]  # subject_id -> label

    @classmethod
    def identity(cls, anchors, group_of: dict) -> "WarpState":
        anchors = np.asarray(anchors, dtype=float)
        n_w = len(anchors)
        groups = sorted(set(group_of.values()))
        return cls(
            anchors=anchors,
            group_offsets={k: np.zeros(n_w) for k in groups},
            subject_offsets={sid: np.zeros(n_w) for sid in group_of},
            group_of=dict(group_of),
        )

    def copy(self) -> "WarpState":
        return WarpState(
            anchors=self.anchors.copy(),
            group_offsets={k: v.copy() for k, v in self.group_offsets.items()},
            subject_offsets={s: v.copy() for s, v in self.subject_offsets.items()},
            group_of=dict(self.group_of),
        )

    def ordinates(self, subject_id: str) -> np.ndarray:
        """Warp ordinates at the anchors: t_w + w_group + w_subject."""
        k = self.group_of[subject_id]
        return self.anchors + self.group_offsets[k] + self.subject_offsets[subject_id]


def warp_values(anchors, ordinates, times) -> np.ndarray:
    """Evaluate the monotone warp through (anchors, ordinates) at ``times``."""
    return hyman_interp(anchors, ordinates)(times)


def warp_inverse_values(anchors, ordinates, times) -> np.ndarray:
    """g^{-1}(times) for the monotone warp through (anchors, ordinates).

    Solved cell by cell (``MonotoneInterpolant.inverse``), so that
    g(g^{-1}(t)) = t to rounding and the ends map exactly.  ``ordinates``
    may be a stack (N, m) of warps, inverted together at the same times
    into (N, len(times)), each row with the bits of its own inverse.
    Raises NumericalError unless the ordinates strictly increase.
    """
    if np.any(np.diff(ordinates, axis=-1) <= 0):
        raise NumericalError("non-monotone warp ordinates: the warp has no inverse")
    return hyman_interp(anchors, ordinates).inverse(times)


# ---------------------------------------------------------------------------
# Per-grid constants: once per fit (GridTable), once per variance state (GlsContext).


class GridTable:
    """One fit's constants of its panel's distinct observation grids.

    By the grid's bytes, in order of first appearance: ``times``, the grids,
    and ``weights``, their ``_grid_weights``.  ``stacks``, the variance
    likelihood's (``fit_variance``): grids of one length with the same number
    of subjects, at most ``_STACK_BYTES`` per n x n array, each with its
    grids' bytes and the grids as one (grids, n) array.  Nothing is assigned
    after ``__init__``: ``fit_registration`` builds one per fit, and its
    steps read it.
    """

    def __init__(self, panel: CurvePanel, anchors):
        anchors = np.asarray(anchors, dtype=float)
        if len(anchors) < 3:
            raise DataError("need at least 3 warp anchors (one interior)")
        if abs(anchors[0]) > 1e-12 or abs(anchors[-1] - 1.0) > 1e-12:
            raise DataError("warp anchors must span [0, 1]")
        if np.any(np.diff(anchors) <= 0):
            raise DataError(f"warp anchors must be strictly increasing, got {anchors.tolist()}")
        self.anchors = anchors
        self.times = {c.times.tobytes(): c.times for c in panel.curves}
        n_subjects = Counter(c.times.tobytes() for c in panel.curves)
        self.weights = {key: _grid_weights(anchors, t) for key, t in self.times.items()}
        by_shape: dict = {}
        for key, t in self.times.items():
            by_shape.setdefault((len(t), n_subjects[key]), []).append(key)
        self.stacks = {}
        for (n, n_subj), keys in by_shape.items():
            size = max(1, _STACK_BYTES // (8 * n * n))
            for start in range(0, len(keys), size):
                part = keys[start : start + size]
                grids = np.array([self.times[key] for key in part])
                self.stacks[n, 2 * n_subj, start // size] = (part, grids)

    def factors(self, curve_cov: MaternParams) -> dict:
        """Each grid's factor of I + S under ``curve_cov``, by the grid's bytes: one
        ``matern_cov`` and ``CholFactor`` per grid, for a fit's first ``GlsContext``."""
        return {key: _curve_factor(matern_cov(curve_cov, t)) for key, t in self.times.items()}


def _grid_weights(anchors, times) -> np.ndarray:
    """A grid's warp Hermite weights (W_y, W_d) (``hermite_weights``), read-only,
    transposed to one C-ordered (2 n_w, n) array as ``WarpProblem.of`` stacks them."""
    weights = np.ascontiguousarray(np.concatenate(hermite_weights(anchors, times), axis=1).T)
    weights.flags.writeable = False
    return weights


class GlsContext:
    """Everything static across one variance state.

    Per distinct observation grid, in ``grids`` by the grid's bytes, its
    factor of I + S under ``var.curve_cov`` from ``factors`` (by the grid's
    bytes) and the Hermite weights of the fit's ``table``, with each
    subject's factor in ``s_factors``; and the warp-prior rows
    ``prior_rows`` of the warp covariance H (``_prior_rows``).  A fit's
    first context takes ``table.factors``, each later one the factors its
    variance step returns (``fit_variance``), so only the first factors.
    """

    def __init__(
        self, panel: CurvePanel, basis: BSplineBasis, var: VarianceParams, table: GridTable,
        factors: dict,
    ):
        self.basis = basis
        self.prior_rows = _prior_rows(var.warp_cov, table.anchors)
        self.grids = {key: (factors[key], weights) for key, weights in table.weights.items()}
        self.s_factors = {c.subject_id: factors[c.times.tobytes()] for c in panel.curves}


def _curve_factor(s_mat: np.ndarray) -> CholFactor:
    """Factor of I + S for the curve kernel S on one grid: the curve block over the noise."""
    return CholFactor(np.eye(len(s_mat)) + s_mat)


def _prior_rows(warp_cov: MaternParams, anchors) -> np.ndarray:
    """Warp-prior rows sqrt(2) L_H^{-1}, H on the interior anchors: squared norm 2 u' H^{-1} u."""
    h_factor = CholFactor(matern_cov(warp_cov, anchors[1:-1]))
    return np.sqrt(2.0) * h_factor.half_solve(np.eye(h_factor.n))


def build_context(panel, basis, var, table: GridTable, factors: dict) -> GlsContext:
    return GlsContext(panel, basis, var, table, factors)


def warp_design(panel: CurvePanel, warps: WarpState, basis: BSplineBasis) -> dict:
    """Per-subject B-spline design evaluated at the warped times g(t_ij).

    The subjects with one number of observation times are warped together:
    one ``hyman_interp`` on their stacked ordinates, each row called at its
    own row of their stacked times.
    The designs of all warped times come from one design-matrix call, split
    back per subject.  Each design equals ``basis.design`` at its subject's
    warp values clipped to [0, 1].  Raises NumericalError naming the first
    subject, in panel order, whose ordinates are not strictly increasing.
    """
    ids = panel.subject_ids
    ords = np.array([warps.ordinates(sid) for sid in ids])
    bad = np.flatnonzero(np.any(np.diff(ords, axis=1) <= _MONO_EPS, axis=1))
    if len(bad):
        raise NumericalError(f"non-monotone warp ordinates for subject {ids[bad[0]]}")
    by_length: dict = {}
    for i, c in enumerate(panel.curves):
        by_length.setdefault(len(c.times), []).append(i)
    warped, rows, start = [], {}, 0
    for idx in by_length.values():
        times = np.array([panel.curves[i].times for i in idx])
        g = np.clip(hyman_interp(warps.anchors, ords[idx])(times), 0.0, 1.0)
        warped.append(g.ravel())
        n = g.shape[1]
        for i in idx:
            rows[ids[i]] = slice(start, start + n)
            start += n
    design = basis.design(np.concatenate(warped))
    return {sid: design[rows[sid]] for sid in ids}


# ---------------------------------------------------------------------------
# Conditional step 1: basis weights by blockwise GLS.


def gls_normals(panel: CurvePanel, warps: WarpState, ctx: GlsContext, designs: dict) -> dict:
    """Per-group GLS normal equations of the basis weights.

    Maps each label k to (A_k, b_k): A_k (q, q) sums Psi' (I + S)^{-1} Psi
    over the group's members, shared by both coordinates, and b_k (q, 2)
    sums Psi' (I + S)^{-1} x with one column per coordinate.  ``designs``
    are the members' ``warp_design`` matrices.  The shared-weight,
    deviation and ridge steps all read these, so one warp and variance
    state costs one solve per subject.
    """
    q = ctx.basis.size
    out = {k: (np.zeros((q, q)), np.zeros((q, 2))) for k in sorted(set(warps.group_of.values()))}
    for c in panel.curves:
        sid = c.subject_id
        psi = designs[sid]
        solved = ctx.s_factors[sid].solve(np.column_stack([psi, c.values]))
        normal, rhs = out[warps.group_of[sid]]
        normal += psi.T @ solved[:, :q]
        rhs += psi.T @ solved[:, q:]
    return out


def estimate_c(normals: dict, group_weights: dict) -> np.ndarray:
    """GLS estimate of the shared weights (2, q) given the group deviations.

    Solves (sum_k A_k) c' = sum_k (b_k - A_k d_k') for both coordinates at
    once.  Subtracting the current deviations makes the pair (shared step,
    deviation step) an exact block coordinate descent on the penalized
    objective.
    """
    normal = sum(a for a, _ in normals.values())
    rhs = sum(b - a @ group_weights[k].T for k, (a, b) in normals.items())
    vals = np.linalg.eigvalsh(normal)
    if vals[0] <= 1e-10 * max(vals[-1], 1.0):
        raise DataError(
            "stacked design is rank deficient; reduce the number of mean-curve knots"
        )
    return np.linalg.solve(normal, rhs).T


def estimate_d(normals: dict, c_hat: np.ndarray, ridge_lambda: float) -> tuple[dict, np.ndarray]:
    """Ridge-GLS group deviations, centered so they sum to zero over groups.

    Group k's deviations solve (A_k + lambda I) d_k' = b_k - A_k c'.
    ``ridge_lambda`` is the current ridge weight; ``fit_registration``
    estimates it with ``estimate_ridge``.  The centring keeps the fitted
    curves and cannot raise the ridge term, so it is a descent step.
    Returns the deviations and the shared weights with the shift absorbed.
    """
    if ridge_lambda < 0:
        raise DataError(f"ridge penalty must be >= 0, got {ridge_lambda}")
    ridge = ridge_lambda * np.eye(c_hat.shape[1])
    d = {k: np.linalg.solve(a + ridge, b - a @ c_hat.T).T for k, (a, b) in normals.items()}
    shift = np.mean(list(d.values()), axis=0)
    return {k: v - shift for k, v in d.items()}, c_hat + shift


def estimate_ridge(normals: dict, c_hat: np.ndarray, noise_sd: float) -> float:
    """Ridge weight on the group deviations, lambda = sigma^2 / tau^2, of
    largest marginal likelihood on [``_RIDGE_MIN``, ``_RIDGE_MAX``].

    For the eigenpairs (s, V) of group k's normal matrix A_k, the entries of
    z_k = V'(b_k - A_k c_hat') are N(0, sigma^2 s + tau^2 s^2) with sigma =
    ``noise_sd``; null directions (s <= 1e-12 max s) hold only rounding and
    are dropped.  In log lambda minus the log likelihood has a slope of the
    sign of lambda ||d||^2 / sigma^2 - edf, edf = 2 sum s / (s + lambda) and
    d = z / (s + lambda): Schall's (1991) fixed-point equation, read on
    ``_RIDGE_GRID`` points for ``best_root``.  The deviations are
    uncentred: at a fixed point of ``estimate_c`` and ``estimate_d``,
    (A_k + lambda I) d_k' = b_k - A_k c' and sum_k A_k (c' + d_k') =
    sum_k b_k give lambda sum_k d_k = 0, so centring matters only off it.
    """
    s, zz = [], []
    for a, b in normals.values():
        vals, vecs = np.linalg.eigh(a)
        keep = vals > 1e-12 * vals[-1]
        s.append(vals[keep])
        zz.append(np.sum((vecs[:, keep].T @ (b - a @ c_hat.T)) ** 2, axis=1) / noise_sd**2)
    s, zz = np.concatenate(s), np.concatenate(zz)

    def score(log_lam):
        lam = np.exp(np.asarray(log_lam))[..., None]
        return np.sum(zz * lam / (lam + s) ** 2 - 2.0 * s / (lam + s), axis=-1)

    def neg_loglik(lam):  # up to a constant
        return float(np.sum(np.log1p(s / lam) + zz * lam / (2.0 * s * (lam + s))))

    grid = np.linspace(np.log(_RIDGE_MIN), np.log(_RIDGE_MAX), _RIDGE_GRID)
    return best_root(score, grid, score(grid), (_RIDGE_MIN, _RIDGE_MAX), neg_loglik, np.exp)


# ---------------------------------------------------------------------------
# Conditional step 2: warp anchors by Levenberg-Marquardt.


@dataclass(frozen=True)
class WarpLength:
    """The G grids of a warp problem that have one number of observation times n.

    ``weights`` (G, 2 n_w, n) stacks the grids' Hermite weights (W_y, W_d)
    (``_grid_weights``), each transposed to (2 n_w, n), ``factors`` holds
    their factors of I + S (None in ``build_linearization``'s problems,
    which only ``_warp_geometry`` reads), and
    ``values`` (subjects, 2, n) the curves of all their subjects, one row
    per coordinate, grid by grid in the order the subjects first name the
    grids.  ``subject_warp_residuals`` evaluates all of a length's subjects
    in one pass but for the two triangular solves, made once per grid.
    """

    weights: np.ndarray
    factors: tuple
    values: np.ndarray


@dataclass(frozen=True)
class WarpProblem:
    """The warp residuals of S subjects of one group, all but the free offsets fixed.

    Subject i's ordinates are ``base[i]`` plus its free interior offsets.
    The other fields are shared, built once where they are fixed: per
    observation length, ``lengths`` (``WarpLength``), with
    ``length_of``, ``grid_row`` and ``value_row`` giving each subject's
    length, its grid's row in that length's ``weights`` and ``factors``,
    and its row in that length's ``values``; per group, the 2-valued mean
    spline ``mean`` and its first and second derivatives ``dmean`` and
    ``ddmean`` (``_mean_splines``), which give the residuals' Jacobian and
    their second-order term; per variance state, the warp-prior rows
    ``prior`` (``_prior_rows``), or None to leave them out.  ``of`` builds
    one.  Derived from these: the residual rows of a subject, ``rows``
    (twice the longest length, plus the prior's), and ``layout``, the
    passes of an evaluation of all S subjects (``_passes``).
    """

    anchors: np.ndarray
    base: np.ndarray  # (S, n_w)
    lengths: tuple
    length_of: np.ndarray
    grid_row: np.ndarray
    value_row: np.ndarray
    mean: BSpline
    dmean: BSpline
    ddmean: BSpline
    prior: np.ndarray | None = None
    rows: int = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_max = max(length.values.shape[2] for length in self.lengths)
        rows = 2 * n_max + (0 if self.prior is None else self.prior.shape[0])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "layout", _passes(self, None))

    @classmethod
    def of(cls, anchors, base, times, values, grid_parts, splines, prior=None) -> "WarpProblem":
        """The problem of the subjects observed at ``times`` with curves ``values``.

        ``base`` (S, n_w) are their fixed ordinates.  ``grid_parts(times)``
        gives a grid's factor of I + S and its ``_grid_weights``, and is
        called once per distinct grid; a length with one grid takes a view
        of its weights.  A None factor makes a problem that only
        ``_warp_geometry`` reads (``build_linearization``).  ``splines`` is
        the group's ``_mean_splines`` triple.
        """
        members: dict = {}
        for i, t in enumerate(times):
            members.setdefault(t.tobytes(), []).append(i)
        by_length: dict = {}
        for g, idx in enumerate(members.values()):
            by_length.setdefault(len(times[idx[0]]), []).append(g)
        groups = list(members.values())
        lengths, rows = [], [None] * len(times)  # each subject's length, grid row and value row
        for j, in_length in enumerate(by_length.values()):
            parts = [grid_parts(times[groups[g][0]]) for g in in_length]
            # C-ordered, as einsum's order of summation follows the strides
            weights = parts[0][1][None] if len(parts) == 1 else np.array([w for _, w in parts])
            stacked = np.array([values[i].T for g in in_length for i in groups[g]])
            start = 0
            for row, g in enumerate(in_length):
                for i in groups[g]:
                    rows[i], start = (j, row, start), start + 1
            lengths.append(WarpLength(weights, tuple(s for s, _ in parts), stacked))
        anchors = np.asarray(anchors, dtype=float)
        base = np.asarray(base, dtype=float)
        rows = np.array(rows, dtype=int).reshape(len(times), 3).T
        return cls(anchors, base, tuple(lengths), *rows, *splines, prior)


def _passes(prob: WarpProblem, members) -> list:
    """How one residual call on the subjects ``members`` (None: all, in order)
    runs: one pass per length.

    A pass is (pos, subjects, weights, values, blocks): the positions in
    ``members`` of the length's subjects, grouped by grid and in
    ``members`` order within a grid (a slice of all of them where the
    problem has one grid), those subjects, their grids' Hermite weights
    (the length's own where it has one grid, shared, else gathered per
    subject) and their curves, and per grid the (start, stop) of its
    subjects in the pass with its factor of I + S.  One stable sort by
    length, then grid, orders the passes and their subjects.
    """
    if len(prob.lengths) == 1 and len(prob.lengths[0].factors) == 1:
        # one grid: the value rows are the subjects' order
        (length,) = prob.lengths
        values = length.values if members is None else length.values[members]
        subjects = np.arange(len(values)) if members is None else members
        blocks = [(0, len(values), length.factors[0])]
        return [(slice(None), subjects, length.weights, values, blocks)]
    if members is None:
        members = np.arange(len(prob.base))
    length_of, grid_row = prob.length_of[members], prob.grid_row[members]
    order = np.lexsort((grid_row, length_of))
    length_of, grid_row = length_of[order], grid_row[order]
    passes = []
    for a, b in _runs(length_of):
        pos, length, rows = order[a:b], prob.lengths[length_of[a]], grid_row[a:b]
        if len(length.factors) == 1:
            weights, blocks = length.weights, [(0, b - a, length.factors[0])]
        else:
            weights = length.weights[rows]
            blocks = [(c, d, length.factors[rows[c]]) for c, d in _runs(rows)]
        subjects = members[pos]
        passes.append((pos, subjects, weights, length.values[prob.value_row[subjects]], blocks))
    return passes


def _runs(keys: np.ndarray) -> list:
    """The (start, stop) of each run of equal entries of ``keys``."""
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return list(zip(cuts[:-1], cuts[1:]))


def _mean_splines(basis: BSplineBasis, coefs: np.ndarray) -> tuple[BSpline, BSpline, BSpline]:
    """A group's 2-valued mean spline under the (2, q) weights ``coefs``, and its two derivatives.

    The second derivative of a piecewise linear spline is zero.
    """
    spl = basis.spline(coefs)
    slope = spl.derivative()
    curvature = slope.derivative() if slope.k else BSpline(slope.t, 0.0 * slope.c, 0)
    return spl, slope, curvature


def subject_warp_residuals(prob: WarpProblem, u: np.ndarray, members=None) -> tuple:
    """Residuals, Jacobians, feasibility and second-order terms of the problem's subjects.

    ``u`` (k, m) holds the free offsets of the subjects ``members``, by
    default all S in order.  Returns r (k, rows), J (k, rows, m), ok (k,)
    and S (k, m, m).  Subject i's row of r is
    ``[L_S^{-1}(x_1 - mu_1(g_i)), L_S^{-1}(x_2 - mu_2(g_i)), sqrt(2) L_H^{-1} u_i]``,
    so ``r_i @ r_i`` is its term of the penalized objective; a subject on a
    grid shorter than the problem's longest gets trailing zero rows.  The
    warp g is linear in the ordinates and the Hyman slopes, which are
    piecewise linear in the ordinates, so J is analytic and the second
    derivatives of g vanish.  So the second-order term of the Hessian of
    ``r_i @ r_i / 2``, ``S_i = sum_k r_ik (d^2 r_ik / du^2)``, is
    ``-sum_j w_j dg_j dg_j'`` with ``w = sum_a (L_S^{-T} r_a) * mu_a''(g)``,
    exact away from the slope filter's branch switches, as J is; the prior
    rows are linear and add nothing.  ``ok`` is False where the ordinates
    are not strictly increasing; those rows mean nothing.

    One call takes the Hyman slopes of all k subjects at once and evaluates
    the mean spline and its two derivatives once on all their warped times.
    Each observation length (``WarpLength``) is one pass: one ``einsum`` for
    its subjects' warped times and one batched ``matmul`` for their
    derivatives in the offsets, on its grids' Hermite weights gathered per
    subject (shared, not gathered, where the length has one grid), and one
    set of array operations for its residuals, Jacobians and second-order
    terms.  Only the whitening is made grid by grid, each grid's subjects
    in one triangular solve and their residuals weighted by (I + S)^{-1} in
    one transposed one, both written over the length's arrays: numpy has no
    batched triangular solve, and LAPACK's keeps each column's bytes
    whatever the other columns.  So a subject's numbers do not depend on
    which others are evaluated with it: g sums term by term, and every
    product is one subject's.  The passes of a call on all S subjects are
    the problem's ``layout``; a call on others lays its passes out first
    (``_passes``).  The warped mean curves (``_warp_geometry``) are then
    whitened (``_whitened``).
    """
    layout = prob.layout if members is None else _passes(prob, np.asarray(members))
    ords = prob.base.copy() if members is None else prob.base[members]
    ords[:, 1:-1] += u
    splines = (prob.mean, prob.dmean, prob.ddmean)
    return _whitened(prob, u, layout, *_warp_geometry(prob.anchors, ords, splines, layout))


def _warp_geometry(anchors: np.ndarray, ords: np.ndarray, splines: tuple, layout) -> tuple:
    """The warped mean curves of ``subject_warp_residuals``, before the whitening.

    ``ords`` (k, n_w) are the subjects' ordinates, ``splines`` their
    group's ``_mean_splines`` and ``layout`` their passes (``_passes``), of
    which only pos and weights are read.  Returns ``ok`` (k,) and, per
    pass, (dg, mu, dmu, ddmu): the warped times' derivatives in the free
    offsets (kn, m, n) and the mean curve and its two derivatives at the
    warped times (kn, 2, n).  They depend on the ordinates and the grids,
    not on the curves.
    """
    ok = (ords[:, 1:] - ords[:, :-1]).min(axis=1) > _MONO_EPS
    d, dd = hyman_slopes(anchors, ords)
    n_w = len(anchors)
    ords_slopes = np.concatenate((ords, d), axis=1)
    slopes_t = dd.transpose(0, 2, 1)
    # Warped times (k_n, n) and their derivatives in the free offsets
    # (k_n, m, n), length by length, each grid's subjects together; then the
    # mean curve on all of them at once.
    warped = []
    for pos, _, weights, _, _ in layout:
        g = np.einsum("kj,kjn->kn", ords_slopes[pos], weights)
        dg = (slopes_t[pos] @ weights[:, n_w:])[:, 1:-1] + weights[:, 1 : n_w - 1]
        warped.append((g, dg))
    times = np.concatenate([g.ravel() for g, _ in warped])
    mean, slope, curvature = (spline(times) for spline in splines)
    geometry, start = [], 0
    for g, dg in warped:
        kn, n = g.shape
        stop = start + kn * n
        # the length's spline values and derivatives as (kn, 2, n)
        geometry.append((dg, *(
            v[start:stop].reshape(kn, n, 2).transpose(0, 2, 1) for v in (mean, slope, curvature)
        )))
        start = stop
    return ok, geometry


def _whitened(prob: WarpProblem, u: np.ndarray, layout, ok, geometry) -> tuple:
    """``subject_warp_residuals``'s (r, J, ok, S) from its warped mean curves
    (``_warp_geometry``): the whitening, the second-order term and the prior rows."""
    k, m = u.shape
    r, jac, second = np.empty((k, prob.rows)), np.empty((k, prob.rows, m)), np.empty((k, m, m))
    for (pos, _, _, values, blocks), (dg, mu, dmu, ddmu) in zip(layout, geometry):
        kn, _, n = mu.shape
        # one column per subject, coordinate and [residual, Jacobian column]
        cols = np.empty((kn, 2, 1 + m, n))
        np.subtract(values, mu, out=cols[:, :, 0])
        np.multiply(-dmu[:, :, None], dg[:, None], out=cols[:, :, 1:])
        # each grid's block solved in place: as (n, columns) it is Fortran-ordered
        weighted = np.empty((kn, 2, n))
        for a, b, factor in blocks:
            factor.half_solve(cols[a:b].reshape(-1, n).T, overwrite=True)
            weighted[a:b] = cols[a:b, :, 0]
            factor.half_solve(weighted[a:b].reshape(-1, n).T, transposed=True, overwrite=True)
        w = (weighted * ddmu).sum(axis=1)
        second[pos] = -((dg * w[:, None]) @ dg.transpose(0, 2, 1))
        r[pos, : 2 * n] = cols[:, :, 0].reshape(kn, 2 * n)
        jac[pos, : 2 * n] = cols[:, :, 1:].transpose(0, 1, 3, 2).reshape(kn, 2 * n, m)
        stop = 2 * n
        if prob.prior is not None:
            r[pos, stop : stop + m] = (prob.prior * u[pos, None]).sum(axis=2)
            jac[pos, stop : stop + m] = prob.prior
            stop += m
        if stop < prob.rows:  # a grid shorter than the problem's longest: zero rows
            r[pos, stop:] = 0.0
            jac[pos, stop:] = 0.0
    return r, jac, ok, second


def _damped_steps(damped: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of the damped systems, zero where a system cannot be solved.

    One batched solve; if it finds a singular system, each is solved alone
    so that only the singular ones fail.
    """
    try:
        return np.linalg.solve(damped, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        for i in range(len(rhs)):
            try:
                steps[i] = np.linalg.solve(damped[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _gauss_newton_parts(
    r: np.ndarray, jac: np.ndarray, ok: np.ndarray, second: np.ndarray
) -> tuple:
    """Per problem: f = r'r (inf where infeasible), the half gradient J'r, J'J and J'J + S.

    J'J + S is half the Hessian of f, with ``second`` the residuals'
    second-order term S.  One Gram matrix of [J, r] per problem, so each
    problem's numbers do not depend on the others in the batch.
    """
    aug = np.concatenate([jac, r[..., None]], axis=2)
    gram = aug.transpose(0, 2, 1) @ aug
    jtj = gram[:, :-1, :-1]
    return np.where(ok, gram[:, -1, -1], np.inf), gram[:, :-1, -1], jtj, jtj + second


def _levenberg_marquardt(residuals, u0: np.ndarray, first: tuple, max_evals: int) -> tuple:
    """Minimize ||r_i(u_i)||^2 for a batch of problems by damped Newton steps.

    Each problem is solved as by itself, the batch in lock step.
    ``residuals(u, members)`` returns (r, J, ok, S) for the problems
    ``members`` (all of them, in order, where it is None) at the points
    ``u`` (len(members), m), with ``ok`` False where a point is infeasible
    and S the residuals' second-order term ``sum_k r_k d^2 r_k / du^2``, so
    that J'J + S is half the exact Hessian of f = r'r; ``first`` is what it
    returns for all of them at ``u0`` (S, m), which the caller evaluates, so
    that a caller that knows the start's residuals gives them without a
    call.  A round makes one residual call for the trial points of
    all problems still running, one batched solve of the damped Newton
    systems (J'J + S + lambda D) s = -J'r, and one Gram product [J, r]'[J, r]
    per problem for f, J'r and J'J; each problem then decides on its own
    numbers.  Where the residuals are far from zero at the minimum, as the
    warp residuals are, Gauss-Newton steps (S left out) converge only
    linearly (Dennis & Schnabel 1996, 10.2), and the exact Hessian makes
    them quadratic.  The damping is Levenberg-Marquardt's (More 1978):
    D = diag(J'J) (Marquardt), updated by the gain ratio (Nielsen).  J'J + S
    need not be positive definite; a step whose model decrease is not
    positive, and a damped system that cannot be solved, raise that
    problem's damping without an evaluation.  A trial that is infeasible or
    does not lower its objective is rejected and its damping raised, so
    every accepted step descends.  A problem has converged when the
    gradient of its f is below ``_GTOL`` at the start or at an accepted
    trial, tested as soon as that point is evaluated, or when an accepted
    step, or the model's promise for a rejected one, lowers f by at most
    ``_FTOL * max(f, 1)``; the batch stops short after ``max_evals``
    rounds, counting the first evaluation, so no problem is evaluated more
    than ``max_evals`` times; a problem whose trial in the last round
    lands on a small gradient has converged.  A round in which every
    problem runs takes the batch's arrays as they are, without gathers.
    Returns arrays (u, f, converged, f0, evals), where f0 is the value at
    ``u0`` and evals counts each problem's evaluations; f and f0 are inf for
    an infeasible start.
    """
    u = np.array(u0, dtype=float)
    size, m = u.shape
    f0, grad, jtj, hess = _gauss_newton_parts(*first)
    f, evals = f0.tolist(), [1] * size
    converged = ((f0 < np.inf) & (2.0 * np.abs(grad).max(axis=1) <= _GTOL)).tolist()
    lam, nu = [1e-3] * size, [2.0] * size
    # an infeasible start ends at once, and so does a start on a small gradient
    running = [j for j in range(size) if f[j] < np.inf and not converged[j]]
    eye = np.eye(m)
    for _ in range(max_evals - 1):
        if not running:
            break
        if len(running) == size:
            g, at_jtj, at_hess, at_u = grad, jtj, hess, u
        else:
            idx = np.array(running)
            g, at_jtj, at_hess, at_u = grad[idx], jtj[idx], hess[idx], u[idx]
        diag = at_jtj.diagonal(0, 1, 2)
        diag = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True))
        damping = np.array([lam[j] for j in running])[:, None] * diag
        step = _damped_steps(at_hess + damping[..., None] * eye, -g)
        # the model's decrease -(2 s'g + s'Hs), with Hs = -g - damping * s
        pred = ((damping * step - g) * step).sum(axis=1).tolist()
        point = at_u + step
        tried = []  # positions in ``running`` of the problems evaluated
        for p, j in enumerate(running):
            if pred[p] > 0.0:
                tried.append(p)
            else:  # no solution, or not a descent step of the model
                lam[j], nu[j] = lam[j] * nu[j], 2.0 * nu[j]
        if not tried:
            continue
        if len(tried) == size:
            parts = _gauss_newton_parts(*residuals(point, None))
        else:
            parts = _gauss_newton_parts(*residuals(point[tried], np.array(running)[tried]))
        small = (2.0 * np.abs(parts[1]).max(axis=1) <= _GTOL).tolist()
        for q, p in enumerate(tried):
            j, value = running[p], float(parts[0][q])
            evals[j] += 1
            tol = _FTOL * max(f[j], 1.0)
            if value < f[j]:
                gain = (f[j] - value) / pred[p]
                lam[j] *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu[j] = 2.0
                grad[j], jtj[j], hess[j] = (part[q] for part in parts[1:])
                converged[j] = f[j] - value <= tol or small[q]
                u[j], f[j] = point[p], value
            elif pred[p] <= tol:
                converged[j] = True
            else:
                lam[j], nu[j] = lam[j] * nu[j], 2.0 * nu[j]
        running = [j for j in running if not converged[j]]
    return u, np.array(f), np.array(converged), f0, np.array(evals)


def fit_warps(
    panel: CurvePanel,
    means: MeanWeights,
    ctx: GlsContext,
    warps_init: WarpState,
    maxfun: int = DEFAULT_WARP_MAXFUN,
) -> tuple[WarpState, dict]:
    """Minimize the warp part of the penalized objective.

    Per-subject interior offsets are independent given the group offsets.
    Each group's subjects are one ``WarpProblem``, built once from the
    context's per-grid parts and the group's mean splines, and solved in
    lock step by one batched Levenberg-Marquardt call, so each round
    evaluates all of the group's running subjects in one residual call.
    Group offsets then get their own solve on the members' stacked
    residuals (no prior, as they are fixed effects): the same problem with
    the subject offsets as ``base``, all members evaluated at the shared
    offsets in one call.  ``maxfun`` caps the residual evaluations of each
    subject's and each group's solve.  Subjects are re-centered within each
    group, and updates are kept only if they do not raise their solve's
    objective.  The step is reverted, with a warning, if the total rose:
    before it, the sum of the subject solves' start values; after it, the
    group solves' final values plus each subject's prior term at its
    re-centered offsets.  So the objective never increases.  The stats
    count the solves (``n_opt``), those that converged (``n_converged``),
    their residual evaluations (``n_evals``: one per solve and round that
    evaluates it) and whether the step was reverted (``n_reverted``, 0 or 1).
    """
    warps = warps_init.copy()
    anchors = warps.anchors
    stats = {"n_opt": 0, "n_converged": 0, "n_evals": 0, "n_reverted": 0}

    def solve(residuals, u0):
        first = residuals(np.asarray(u0, dtype=float), None)
        u, f, converged, f0, evals = _levenberg_marquardt(residuals, u0, first, maxfun)
        stats["n_opt"] += len(u)
        stats["n_converged"] += int(np.sum(converged))
        stats["n_evals"] += int(np.sum(evals))
        return u, f, f0

    by_group: dict = {k: [] for k in sorted(set(warps.group_of.values()))}
    for curve in panel.curves:
        by_group[warps.group_of[curve.subject_id]].append(curve)

    def grid_parts(times):
        return ctx.grids[times.tobytes()]

    before = after = 0.0
    for k, curves in by_group.items():
        members = [warps.subject_offsets[c.subject_id] for c in curves]
        prob = WarpProblem.of(
            anchors, np.tile(anchors + warps.group_offsets[k], (len(curves), 1)),
            [c.times for c in curves], [c.values for c in curves], grid_parts,
            _mean_splines(ctx.basis, means.coefs(k)), ctx.prior_rows,
        )
        # never worse than the start: LM accepts only descending steps
        u, _, start = solve(partial(subject_warp_residuals, prob), [w[1:-1] for w in members])
        before += float(np.sum(start))
        for offsets, new in zip(members, u):
            offsets[1:-1] = new

        # Re-center the random offsets; the shift moves into the group part.
        shift = np.mean(members, axis=0)
        shift[0] = shift[-1] = 0.0
        for offsets in members:
            offsets -= shift
        warps.group_offsets[k] = warps.group_offsets[k] + shift

        # Group offsets are fixed effects: only the residual rows move.
        shared = replace(prob, base=anchors + np.array(members), prior=None)

        def group_residuals(v, _one, prob=shared):
            # one problem: every member's rows at the shared offsets v (1, m)
            each = np.broadcast_to(v, (len(prob.base), v.shape[1]))
            r, jac, ok, second = subject_warp_residuals(prob, each)
            return (
                r.reshape(1, -1), jac.reshape(1, -1, v.shape[1]), ok.all(keepdims=True),
                second.sum(axis=0, keepdims=True),
            )

        group = warps.group_offsets[k]
        v, value, _ = solve(group_residuals, group[None, 1:-1])
        group[1:-1] = v[0]
        prior = np.array(members)[:, 1:-1] @ ctx.prior_rows.T
        after += float(value[0]) + float(np.sum(prior * prior))

    if not after <= before + 1e-9 * max(1.0, abs(before)):
        _log.warning("warp step reverted: objective %.12g before, %.12g after", before, after)
        return warps_init.copy(), {**stats, "n_reverted": 1}
    return warps, stats


def penalized_objective(
    panel: CurvePanel,
    means: MeanWeights,
    warps: WarpState,
    ctx: GlsContext,
    ridge_lambda: float,
    designs: dict,
) -> float:
    """The single objective all conditional steps descend.

    Sum over subjects of the (I + S)^{-1}-weighted residual norms, plus
    twice the H^{-1} quadratic form of the random warp offsets (the squared
    norm of their image under ``prior_rows``, as the warp step scores it),
    plus the ridge penalty ``ridge_lambda * ||d||^2`` on group deviations.
    The sum is sigma^2 times a negative log posterior, so the ridge weight
    is sigma^2 / tau^2 (``estimate_ridge``, by marginal likelihood).
    ``designs`` are the ``warp_design`` matrices of ``warps``.
    """
    total = 0.0
    for curve in panel.curves:
        sid = curve.subject_id
        k = warps.group_of[sid]
        psi = designs[sid]
        resid = np.column_stack(
            [curve.values[:, a] - psi @ means.coef(a, k) for a in (0, 1)]
        )
        z = ctx.s_factors[sid].half_solve(resid)
        total += float(np.sum(z * z))
        prior = warps.subject_offsets[sid][1:-1] @ ctx.prior_rows.T
        total += float(np.sum(prior * prior))
    for dev in means.group.values():
        total += ridge_lambda * float(np.sum(dev * dev))
    return total


# ---------------------------------------------------------------------------
# Conditional step 3: variance parameters on the linearized model.


def build_linearization(
    panel: CurvePanel,
    means: MeanWeights,
    warps: WarpState,
    basis: BSplineBasis,
    table: GridTable,
) -> tuple[dict, dict, dict]:
    """First-order expansion of the fitted curves in the random warp offsets.

    The variance step folds the random warps into the error through
    mu(g(w)) ~ mu(g) + mu'(g) dg (w - w0), at each subject's current
    interior anchor offsets w0.  Returns per subject the fitted values
    mu(g) (n, 2), the Jacobian mu'(g) dg in the offsets as a C-ordered
    (2, n, n_int) array, and w0: the warped mean curves of one
    ``_warp_geometry`` call per group, on the Hermite weights of the fit's
    ``table``.  Raises NumericalError naming the first subject, in panel
    order, whose ordinates are not strictly increasing.
    """
    anchors = warps.anchors
    by_group: dict = {}
    for curve in panel.curves:
        by_group.setdefault(warps.group_of[curve.subject_id], []).append(curve)
    out = {}
    for k, curves in by_group.items():
        base = np.tile(anchors + warps.group_offsets[k], (len(curves), 1))
        splines = _mean_splines(basis, means.coefs(k))
        prob = WarpProblem.of(
            anchors, base, [c.times for c in curves], [c.values for c in curves],
            lambda t: (None, table.weights[t.tobytes()]), splines,
        )
        w0 = np.array([warps.subject_offsets[c.subject_id][1:-1] for c in curves])
        ords = base.copy()
        ords[:, 1:-1] += w0
        ok, geometry = _warp_geometry(anchors, ords, splines, prob.layout)
        for (pos, *_), (dg, mu, dmu, _) in zip(prob.layout, geometry):
            jac = np.empty((*mu.shape, dg.shape[1]))  # (kn, 2, n, m)
            np.multiply(dmu[..., None], dg.transpose(0, 2, 1)[:, None], out=jac)
            for q, i in enumerate(np.arange(len(curves))[pos]):
                out[curves[i].subject_id] = (mu[q].T, jac[q], w0[i], ok[i])
    bad = [sid for sid in panel.subject_ids if not out[sid][3]]
    if bad:
        raise NumericalError(f"non-monotone warp ordinates for subject {bad[0]}")
    return tuple({sid: out[sid][j] for sid in panel.subject_ids} for j in range(3))


# Log-scale boxes for (curve amp, curve range, warp amp, warp range); outside
# them the likelihood is flat in practice and the matrices go singular.  Range
# above ~5 on the unit interval only pushes correlations towards one.
_LOG_LO = np.log([1e-3, 0.02, 1e-3, 0.02])
_LOG_HI = np.log([1e3, 5.0, 1e3, 5.0])
_VARIANCE_NAMES = ("curve amplitude", "curve length scale", "warp amplitude", "warp length scale")


def _stack_sums(curve_cov, h_inv, h_grads, h_logdet, grids, cols):
    """One stack's terms of the variance likelihood, its gradient and its AI matrix.

    ``grids`` is the stack's (grids, n) observation times, on which one
    ``matern_cov`` gives the curve kernels S and their slopes dS, and
    ``cols`` its [r, B] rows (``_variance_negloglik``), ``h_inv`` and
    ``h_logdet`` the warp kernel's inverse and log determinant, and
    ``h_grads`` its derivatives in the two warp log parameters.  Returns
    the stack's sums of r' V^-1 r and of log det V, its number of
    observations, the traces of V^-1 and of a a' against (S, dS), the m x m
    sums of B' V^-1 B and B' a a' B, the 4 x 4 sum of (dV_p a)' V^-1 (dV_q
    a), and the factors of its grids' C (``spd_inverses``); None where a
    factorization fails.
    """
    n_grids, n_blocks, _, n = cols.shape
    # The stack's n x n arrays dominate its memory: C^-1, dS and C's factors.
    c_inv, d_s = matern_cov(curve_cov, grids, slope=True)
    diag = np.arange(n)
    c_inv[:, diag, diag] += 1.0
    try:
        c_inv, c_logdets, factors = spd_inverses(c_inv)
    except NumericalError:
        return None
    solved = cols @ c_inv[:, None]
    gram = np.einsum("gkin,gkjn->gkij", cols, solved)
    g_mat = gram[:, :, 1:, 1:]
    caps = h_inv + g_mat
    signs, cap_logdets = np.linalg.slogdet(caps)
    if np.any(signs <= 0):
        return None
    cap_inv = np.linalg.inv(caps)
    cross = gram[:, :, 1:, 0]
    beta = np.einsum("gkij,gkj->gki", cap_inv, cross)
    quads = gram[:, :, 0, 0] - np.einsum("gki,gki->gk", cross, beta)
    quad = float(np.sum(np.maximum(quads, 0.0)))
    logdet = (
        n_blocks * float(np.sum(c_logdets))
        + quads.size * h_logdet
        + float(np.sum(cap_logdets))
    )

    x_gram = np.einsum("gkin,gkjn->gkij", solved, solved)
    d_rows = solved @ d_s[:, None]
    d_gram = np.einsum("gkin,gkjn->gkij", solved, d_rows)
    e = np.concatenate([np.ones((n_grids, n_blocks, 1)), -beta], axis=2)
    proj = cross - np.einsum("gkij,gkj->gki", g_mat, beta)
    inv_traces = (
        n_blocks * float(np.sum(n - np.einsum("gii->g", c_inv)))
        - float(np.einsum("gkij,gkji->", cap_inv, g_mat - x_gram[:, :, 1:, 1:])),
        n_blocks * float(np.einsum("gij,gij->", c_inv, d_s))
        - float(np.einsum("gkij,gkji->", cap_inv, d_gram[:, :, 1:, 1:])),
    )
    outer_traces = (
        float(np.sum(quads - np.einsum("gki,gki->gk", beta, proj)))
        - float(np.einsum("gki,gkij,gkj->", e, x_gram, e)),
        float(np.einsum("gki,gkij,gkj->", e, d_gram, e)),
    )
    warp_inv = np.einsum("gkij->ij", g_mat - g_mat @ cap_inv @ g_mat)
    warp_outer = np.einsum("gki,gkj->ij", proj, proj)

    # The average-information terms v_p' V^-1 v_q of v = dV a.  The curve
    # parameters' v are S a = [r, B] e - a and dS a = (X dS)' e, whose C^-1
    # is one small product per block; the warp parameters' are B w
    # with w = dH B'a, whose C^-1 is Y w for Y = C^-1 B.  With V^-1 = C^-1 -
    # Y cap^-1 Y', all four then need only the m-vectors q = Y' v.
    a = np.einsum("gki,gkin->gkn", e, solved)
    curve_v = np.stack(
        [np.einsum("gki,gkin->gkn", e, cols) - a, np.einsum("gki,gkin->gkn", e, d_rows)], axis=2
    )
    curve_z = curve_v @ c_inv[:, None]
    w = np.einsum("pij,gkj->gkpi", h_grads, proj)
    q = np.concatenate([curve_v @ solved[:, :, 1:].swapaxes(2, 3), w @ g_mat], axis=2)
    # v_p' C^-1 v_q for a warp q is q_p' w_q: rows 0-1 pair the curve
    # parameters with the warp ones, rows 2-3 the warp ones with each other
    with_warp = np.einsum("gkpi,gkqi->pq", q, w)
    ai = np.block(
        [
            [np.einsum("gkpn,gkqn->pq", curve_v, curve_z), with_warp[:2]],
            [with_warp[:2].T, with_warp[2:]],
        ]
    ) - np.einsum("gkpi,gkqi->pq", q @ cap_inv, q)
    return quad, logdet, quads.size * n, inv_traces, outer_traces, warp_inv, warp_outer, ai, factors


def _variance_negloglik(log_params, smooth_curve, smooth_warp, grids, blocks, anchors) -> tuple:
    """Profiled negative Gaussian log likelihood of the linearized model.

    Block covariance per subject and coordinate is V = C + B H B' with
    C = I + S (times the profiled-out noise variance).  ``grids`` and
    ``blocks`` are keyed by stack: observation grids of one length that
    carry the same number of blocks (``fit_variance``).  ``grids`` holds
    each stack's (grids, n) observation times and ``blocks`` its [r, B]
    columns, one block per subject and coordinate, stored as rows:
    (grids, blocks, 1 + m, n) for the m interior points of ``anchors``, on
    which one ``matern_cov`` gives the warp kernel H and its slope.  One
    pass per stack (``_stack_sums``) evaluates the curve kernel and its
    slope in one ``matern_cov`` on all its grids, and factors and inverts
    every C of the stack at once (``spd_inverses``).
    Each block's X = C^-1 [r, B] and Gram matrix [r, B]' X give r' C^-1 r,
    g = B' C^-1 r and G = B' C^-1 B, and the warp term enters by the
    Woodbury identity through one batched determinant and inverse of the
    caps H^-1 + G.

    The derivative in a log parameter is ``1/2 sum tr((V^-1 - a a' /
    sigma2) dV)`` with ``a = V^-1 r`` (Rasmussen & Williams 2006, 5.4.1),
    and a = X e with e = [1, -cap^-1 g].  With Y = C^-1 B, a block gives
    tr(V^-1 D) = tr(C^-1 D) - tr(cap^-1 Y' D Y) for a curve derivative D.
    The length scale's D = dS enters through X' dS X, one small product of
    each block's rows with dS.  The amplitude's D = S = C - I needs no
    product with S: tr(V^-1 S) = n - tr(C^-1) - tr(cap^-1 (G - Y'Y)), and
    a' S a = a' C a - a'a, where a' C a = r' V^-1 r - (cap^-1 g)'(g - G
    cap^-1 g).  A warp parameter has dV = B dH B', whose traces need only
    the m x m matrices B' V^-1 B = G - G cap^-1 G and B' a = g - G cap^-1 g.
    Sums over observations run in LAPACK's Cholesky and triangular solves,
    in ``einsum``, or in one BLAS product per block of 1 + m rows.  None of
    these depends on the number of BLAS threads, except OpenBLAS's Cholesky
    on grids of 128 points or more.  A stack sums its grids and blocks in
    one fixed order, and the stacks' terms are summed in the order of
    ``blocks``.

    The average-information (AI) matrix (Gilmour, Thompson & Cullis 1995)
    of the four log parameters, with sigma2 removed by its Schur
    complement, is AI_pq = (dV_p a)' V^-1 (dV_q a) / (2 sigma2) - (a' dV_p
    a)(a' dV_q a) / (2 n sigma2^2) at sigma2 = r' V^-1 r / n.  Its second
    term reuses the gradient's a' dV a; ``_stack_sums`` forms the first.
    It is positive semidefinite and approximates the Hessian of the value.

    Returns (value, grad, ai, sigma2, factors): the value, its gradient in
    the four log parameters, the AI matrix, the profiled noise variance and
    each stack's factors of C, as ``spd_inverses`` gives them, by stack.
    Where a factorization fails they are ``_BIG``, a zero gradient and AI
    matrix, NaN and no factors.
    """
    amp_s, rg_s, amp_h, rg_h = np.exp(np.asarray(log_params, dtype=float))
    failed = (_BIG, np.zeros(4), np.zeros((4, 4)), float("nan"), {})
    curve_cov = MaternParams(amp_s, rg_s, smooth_curve)
    h_kernels = matern_cov(MaternParams(amp_h, rg_h, smooth_warp), anchors[1:-1], slope=True)
    try:
        h_fac = CholFactor(h_kernels[0])
    except NumericalError:
        return failed
    m = len(h_kernels[0])
    h_grads = np.stack(h_kernels)
    h_inv = h_fac.solve(np.eye(m))
    h_logdet = h_fac.logdet()
    quad_sum = logdet_sum = 0.0
    n_tot = 0
    # Traces of the summed V^-1 and of the summed a a' against S and dS,
    # the m x m sums of B' V^-1 B and B' a a' B that the warp parameters
    # trace against dH, and the AI matrix's products.
    totals = [np.zeros(2), np.zeros(2), np.zeros((m, m)), np.zeros((m, m)), np.zeros((4, 4))]
    factors = {}
    for key, cols in blocks.items():
        sums = _stack_sums(curve_cov, h_inv, h_grads, h_logdet, grids[key], cols)
        if sums is None:
            return failed
        quad, logdet, n_obs, *parts, factors[key] = sums
        quad_sum += quad
        logdet_sum += logdet
        n_tot += n_obs
        for total, part in zip(totals, parts):
            total += part
    inv_traces, outer_traces, warp_inv, warp_outer, ai_sum = totals
    loglik, sigma2 = profile_loglik_parts(quad_sum, logdet_sum, n_tot)
    if not np.isfinite(loglik):
        return failed
    warp = 0.5 * (warp_inv - warp_outer / sigma2)
    grad = np.concatenate(
        [0.5 * (inv_traces - outer_traces / sigma2), np.einsum("ij,pij->p", warp, h_grads)]
    )
    outer = np.concatenate([outer_traces, np.einsum("ij,pij->p", warp_outer, h_grads)])
    ai = (ai_sum + ai_sum.T) / (4.0 * sigma2) - np.outer(outer, outer) / (2.0 * n_tot * sigma2**2)
    return -loglik, grad, ai, sigma2, factors


def _projected_newton(evaluate, x, point, maxiter: int) -> tuple:
    """Minimize over the box ``_LOG_LO``..``_LOG_HI`` by projected Newton steps.

    ``evaluate(x)`` returns a tuple that starts with the value, its
    gradient and a positive semidefinite curvature matrix; ``point`` is its
    evaluation at the start ``x``, which lies in the box.  Each iteration
    fixes the parameters that sit on a bound with the gradient pointing out
    of the box, takes the Newton step in the others (solved through a
    ``CholFactor`` of their curvature, whose jitter ladder is a small ridge
    where the curvature is singular), projects it on the box and halves it
    until the value does not rise (Bertsekas 1982, *SIAM J. Control Optim.*
    20:221-246).  A trial that projects onto one rejected earlier in the
    call is not evaluated again: the value only falls, so it would be
    rejected again.  It stops on L-BFGS-B's default
    tests: the largest projected gradient entry at most ``_VAR_PGTOL``, or
    a relative decrease at most ``_VAR_FTOL``.

    Returns the last accepted point and its evaluation, the iterations and
    the evaluations it made, and why it stopped short: None when it converged.
    """
    n_iter = n_evals = 0
    rejected = set()
    while True:
        value, grad, curvature = point[:3]
        if np.max(np.abs(np.clip(x - grad, _LOG_LO, _LOG_HI) - x)) <= _VAR_PGTOL:
            return x, point, n_iter, n_evals, None
        if n_iter == maxiter:
            return x, point, n_iter, n_evals, "iteration cap reached"
        n_iter += 1
        free = ~(((x <= _LOG_LO) & (grad > 0)) | ((x >= _LOG_HI) & (grad < 0)))
        step = np.zeros_like(x)
        step[free] = CholFactor(curvature[np.ix_(free, free)]).solve(-grad[free])
        for halving in range(_VAR_HALVINGS):
            trial = np.clip(x + 0.5**halving * step, _LOG_LO, _LOG_HI)
            if trial.tobytes() in rejected:
                continue
            new = evaluate(trial)
            n_evals += 1
            if new[0] <= value:
                break
            rejected.add(trial.tobytes())
            del new  # before the next evaluation: an evaluation may hold large arrays
        else:
            return x, point, n_iter, n_evals, "no step along the Newton direction lowered it"
        x, point = trial, new
        if value - new[0] <= _VAR_FTOL * max(abs(value), abs(new[0]), 1.0):
            return x, point, n_iter, n_evals, None


def fit_variance(
    panel: CurvePanel,
    fitted: dict,
    jac: dict,
    w0: dict,
    var_init: VarianceParams,
    table: GridTable,
    maxiter: int = DEFAULT_VARIANCE_MAXITER,
) -> tuple[VarianceParams, tuple, int, dict]:
    """Maximize the profiled likelihood over the four covariance parameters.

    Projected Newton steps (``_projected_newton``) in log space over
    (curve amplitude, curve range, warp amplitude, warp range) on the box
    ``_LOG_LO``..``_LOG_HI``, with the analytic gradient of
    ``_variance_negloglik`` and its average-information matrix as the
    curvature, and at most ``maxiter`` iterations.  The two
    smoothness orders stay fixed and the noise variance is profiled out in
    closed form.  The residuals r = x - mu(g) + B w0 and the Jacobians B of
    ``build_linearization`` are gathered once per call into the stacks of
    the fit's ``table``, each grid's [r, B] blocks (subjects x 2
    coordinates) in panel order, on the table's anchors.  An evaluation is
    one ``_variance_negloglik`` call, whose tuple ``_projected_newton``
    reads, with one kernel evaluation (``matern_cov`` on the stack's grids,
    with its slope) and one batched factorization per stack.  The
    start is data-driven and projected into the box.  Returns the updated
    parameters, the (initial, final) log likelihood, the number of
    likelihood evaluations, and each grid's factor of I + S under the
    returned curve kernel, by the grid's bytes: those of the evaluation of
    the returned parameters (the start's when no step is accepted), as
    ``chol_factors`` keeps them.  A rejected trial's factors are dropped
    before the next evaluation.  A stop short of convergence (at ``maxiter``
    or when no step along the Newton direction raises the likelihood) is
    logged, and so is each parameter that ends on its box bound.
    """
    by_grid, resid = {}, {}
    for curve in panel.curves:
        sid = curve.subject_id
        back = np.stack([jac[sid][0] @ w0[sid], jac[sid][1] @ w0[sid]], axis=1)
        resid[sid] = curve.values - fitted[sid] + back
        cols = by_grid.setdefault(curve.times.tobytes(), [])
        cols.extend(np.vstack([resid[sid][:, a], jac[sid][a].T]) for a in (0, 1))
    grids = {key: stack for key, (_, stack) in table.stacks.items()}
    blocks = {key: np.array([by_grid[g] for g in keys]) for key, (keys, _) in table.stacks.items()}
    smooth_curve, smooth_warp = var_init.curve_cov.smoothness, var_init.warp_cov.smoothness

    # Data-driven start for the curve amplitude: residual variance in excess
    # of the assumed noise floor, in units of the noise variance.
    sig0 = max(var_init.noise_sd, 1e-6)
    resid_var = float(np.mean([np.mean(r * r) for r in resid.values()]))
    amp0 = max(resid_var / sig0**2 - 1.0, 0.5)
    x0 = np.log(
        [
            amp0,
            var_init.curve_cov.length_scale,
            var_init.warp_cov.amplitude,
            var_init.warp_cov.length_scale,
        ]
    )
    x0 = np.clip(x0, _LOG_LO, _LOG_HI)

    def evaluate(log_params):
        return _variance_negloglik(log_params, smooth_curve, smooth_warp, grids, blocks, table.anchors)

    start = evaluate(x0)
    if start[0] >= _BIG:
        raise NumericalError("variance likelihood is not finite at the initial point")
    best, point, n_iter, n_evals, short = _projected_newton(evaluate, x0, start, maxiter)
    if short is not None:
        _log.warning("variance step stopped short after %d Newton iterations: %s", n_iter, short)
    for name, value, lo, hi in zip(_VARIANCE_NAMES, best, _LOG_LO, _LOG_HI):
        if value <= lo or value >= hi:
            bound = np.exp(lo if value <= lo else hi)
            _log.warning("variance parameter %s ends on its box bound %g", name, bound)
    amp_s, rg_s, amp_h, rg_h = np.exp(best)
    curve_cov = replace(var_init.curve_cov, amplitude=amp_s, length_scale=rg_s)
    warp_cov = replace(var_init.warp_cov, amplitude=amp_h, length_scale=rg_h)
    out = VarianceParams(float(np.sqrt(point[3])), curve_cov, warp_cov)
    factors = {}
    for key, (low, jitters) in point[4].items():
        factors.update(zip(table.stacks[key][0], chol_factors(low, jitters)))
    return out, (-start[0], -point[0]), 1 + n_evals, factors


# ---------------------------------------------------------------------------
# Outer loop.


@dataclass(frozen=True)
class RegistrationConfig:
    """Tuning constants of the alternating fit; defaults match the studies.

    ``warp_maxfun`` caps the residual evaluations of each warp solve (one
    subject, one group, or one held-out subject's fit).
    ``variance_maxiter`` caps the projected Newton iterations of each
    variance step (``fit_variance``).
    """

    n_interior_knots: int = 8
    spline_order: int = 4
    warp_anchors: tuple = (0.0, 0.33, 0.67, 1.0)
    noise_sd_init: float = 0.05
    curve_cov_init: tuple = (1.0, 0.3, 3.0)
    warp_cov_init: tuple = (1.0, 0.3, 3.0)
    warp_maxfun: int = DEFAULT_WARP_MAXFUN
    variance_maxiter: int = DEFAULT_VARIANCE_MAXITER
    n_variance_updates: int = 2
    max_outer: int = 20
    tol_rel: float = 1e-4
    n_align_grid: int = 101

    def __post_init__(self):
        # BSplineBasis.uniform and GridTable check the ranges of the basis
        # sizes and the anchors when the fit starts; only their types here.
        check_int("n_interior_knots", self.n_interior_knots)
        check_int("spline_order", self.spline_order)
        check_reals("warp_anchors", self.warp_anchors)
        for name, low in (
            ("warp_maxfun", 1), ("variance_maxiter", 1), ("n_variance_updates", 0),
            ("max_outer", 1), ("n_align_grid", 2),
        ):
            check_int(name, getattr(self, name), low)
        check_real("tol_rel", self.tol_rel, 0.0)
        check_real("noise_sd_init", self.noise_sd_init, 0.0, strict=True)
        check_reals("curve_cov_init", self.curve_cov_init, 3, low=0.0, strict=True)
        check_reals("warp_cov_init", self.warp_cov_init, 3, low=0.0, strict=True)

    def initial_variance(self) -> VarianceParams:
        return VarianceParams(
            self.noise_sd_init,
            MaternParams(*self.curve_cov_init),
            MaternParams(*self.warp_cov_init),
        )

    def to_dict(self) -> dict:
        """Field values by name, tuples as lists."""
        return encode(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RegistrationConfig":
        """Inverse of ``to_dict`` for this class or a subclass; absent keys take defaults."""
        return decode(cls, payload, "config")


@dataclass
class RegistrationFit:
    """Everything the second level and prediction need from level one.

    Built, by ``fit_registration`` or from a dict, only with warps that
    strictly increase: every class warp (anchors plus class offsets) and
    every subject warp (``warps.ordinates``), else DataError names the
    class or the subject.  A fitted one always does, as the warp solver
    accepts only increasing points and a class warp is the mean of its
    members' (their offsets are re-centred before the class solve).  Its
    ridge weight lies in ``estimate_ridge``'s interval, else DataError.
    """

    basis: BSplineBasis
    means: MeanWeights
    warps: WarpState
    var: VarianceParams
    config: RegistrationConfig
    trace_phases: list[list[float]]
    converged: bool
    n_outer: int
    warp_opt_total: int
    warp_opt_converged: int
    # Estimated ridge weight on the group deviations.
    ridge_lambda: float
    # Warp steps that fit_warps reverted because they raised the objective.
    warp_steps_reverted: int
    # Residual evaluations of the fit's warp solves (fit_warps' n_evals,
    # summed over its warp steps).
    warp_evaluations: int
    # Likelihood evaluations of the fit's variance steps (fit_variance's
    # count, summed over its steps).
    variance_evaluations: int

    def __post_init__(self):
        # a decoded artifact is checked here, before any array broadcasts
        lam = self.ridge_lambda
        if not _RIDGE_MIN <= lam <= _RIDGE_MAX:  # NaN fails too
            raise DataError(f"ridge_lambda must lie in [{_RIDGE_MIN:g}, {_RIDGE_MAX:g}], got {lam!r}")
        means, warps, q = self.means, self.warps, self.basis.size
        labels = sorted(warps.group_offsets)
        if sorted(means.group) != labels:
            raise DataError(
                f"means.group labels {sorted(means.group)} differ from warps.group_offsets {labels}"
            )
        if not set(warps.group_of.values()) <= set(labels):
            raise DataError(f"warps.group_of has labels outside {labels}")
        if set(warps.subject_offsets) != set(warps.group_of):
            raise DataError("warps.subject_offsets and warps.group_of name different subjects")
        check_shape("warps.anchors", warps.anchors, ("n_anchors",))
        check_shape("means.shared", means.shared, (2, q))
        for k, v in means.group.items():
            check_shape(f"means.group.{k}", v, (2, q))
        for name in ("group_offsets", "subject_offsets"):
            for key, v in getattr(warps, name).items():
                check_shape(f"warps.{name}.{key}", v, warps.anchors.shape)
        named = [(f"group_offsets.{k}", f"class {k}", warps.anchors + warps.group_offsets[k])
                 for k in labels]
        named += [(f"subject_offsets.{s}", f"subject {s}", warps.ordinates(s))
                  for s in warps.subject_offsets]
        for field, whose, ords in named:
            if not np.all(np.diff(ords) > 0):  # NaN ordinates fail too
                raise DataError(f"warps.{field}: the warp of {whose} is not strictly increasing")

    @property
    def trace(self) -> list:
        """Objective trace after the last variance rebase; non-increasing."""
        return self.trace_phases[-1] if self.trace_phases else []

    @property
    def warp_opt_converged_fraction(self) -> float:
        if self.warp_opt_total == 0:
            return 1.0
        return self.warp_opt_converged / self.warp_opt_total

    def to_dict(self) -> dict:
        return {**encode(self), "format_version": _FIT_FORMAT_VERSION}

    @classmethod
    def from_dict(cls, payload: dict) -> "RegistrationFit":
        """Inverse of ``to_dict``; a malformed payload raises DataError naming the field."""
        check_format_version(payload, _FIT_FORMAT_VERSION, "registration fit")
        return decode(cls, {k: v for k, v in payload.items() if k != "format_version"}, "fit")


def fit_registration(panel: CurvePanel, config: RegistrationConfig | None = None) -> RegistrationFit:
    """Alternating conditional estimation of the full first-level model.

    Each warp state gets its designs once (at identity, then after each
    warp step), and each warp and variance state its GLS normal equations
    once (``gls_normals``); the shared-weight, deviation and ridge steps
    all solve from those, and the objective reuses the designs.
    Variance parameters are refreshed only during the first
    ``n_variance_updates`` outer iterations, and the ridge weight on the
    group deviations is re-estimated with them (``estimate_ridge``).  Each
    refresh changes the objective, so its trace restarts there.  After the
    freeze the loop is plain coordinate descent and the recorded trace
    cannot increase.
    """
    cfg = config or RegistrationConfig()
    if not panel.has_labels:
        raise DataError("registration requires a group label for every subject")
    basis = BSplineBasis.uniform(cfg.n_interior_knots, cfg.spline_order)
    anchors = np.asarray(cfg.warp_anchors, dtype=float)
    group_of = dict(panel.group_of)
    groups = sorted(set(group_of.values()))
    if len(groups) < 2:
        raise DataError("registration requires at least two groups")

    var = cfg.initial_variance()
    warps = WarpState.identity(anchors, group_of)
    table = GridTable(panel, anchors)
    ctx = build_context(panel, basis, var, table, table.factors(var.curve_cov))
    designs = warp_design(panel, warps, basis)
    normals = gls_normals(panel, warps, ctx, designs)

    def refresh_variance():
        """Variance step at the current means and warps, then what depends on it."""
        nonlocal var, ctx, normals, lam, n_var_evals
        fitted, jac, w0 = build_linearization(panel, means, warps, basis, table)
        ctx = None  # its factors go before the variance step makes its own
        var, _, n_step, factors = fit_variance(
            panel, fitted, jac, w0, var, table, cfg.variance_maxiter
        )
        n_var_evals += n_step
        ctx = build_context(panel, basis, var, table, factors)
        normals = gls_normals(panel, warps, ctx, designs)
        lam = estimate_ridge(normals, means.shared, var.noise_sd)

    # Initialization pass: means and variance at identity warps, so the first
    # warp fit already works under a realistic GLS metric.  Otherwise warps
    # chase smooth curve-level deviations that the process term should absorb.
    # The ridge weight is re-estimated whenever the variance parameters change.
    c_init = estimate_c(normals, {k: np.zeros((2, basis.size)) for k in groups})
    lam = estimate_ridge(normals, c_init, var.noise_sd)
    d_init, c_init = estimate_d(normals, c_init, lam)
    means = MeanWeights(c_init, d_init)
    n_var_evals = 0
    refresh_variance()

    trace_phases: list = [[]]
    n_var_done = 0
    converged = False
    n_outer = 0
    opt_total = 0
    opt_conv = 0
    n_evals = 0
    n_reverted = 0
    for _ in range(cfg.max_outer):
        n_outer += 1
        c_hat = estimate_c(normals, means.group)
        d_hat, c_hat = estimate_d(normals, c_hat, lam)
        means = MeanWeights(c_hat, d_hat)

        warps, stats = fit_warps(panel, means, ctx, warps, cfg.warp_maxfun)
        opt_total += stats["n_opt"]
        opt_conv += stats["n_converged"]
        n_evals += stats["n_evals"]
        n_reverted += stats["n_reverted"]
        designs = warp_design(panel, warps, basis)

        if n_var_done < cfg.n_variance_updates:
            refresh_variance()
            n_var_done += 1
            trace_phases.append([])
        else:
            normals = gls_normals(panel, warps, ctx, designs)

        value = penalized_objective(panel, means, warps, ctx, lam, designs)
        phase = trace_phases[-1]
        if phase and abs(phase[-1] - value) <= cfg.tol_rel * max(1.0, abs(phase[-1])):
            phase.append(value)
            converged = True
            break
        phase.append(value)

    trace_phases = [p for p in trace_phases if p]
    return RegistrationFit(
        basis=basis,
        means=means,
        warps=warps,
        var=var,
        config=cfg,
        trace_phases=trace_phases,
        converged=converged,
        n_outer=n_outer,
        warp_opt_total=opt_total,
        warp_opt_converged=opt_conv,
        ridge_lambda=lam,
        warp_steps_reverted=n_reverted,
        warp_evaluations=n_evals,
        variance_evaluations=n_var_evals,
    )


# ---------------------------------------------------------------------------
# Alignment to the common grid, and warp fitting for held-out subjects.


@dataclass(frozen=True)
class AlignedPanel:
    """Curves carried back to common time by the inverse warps."""

    grid: np.ndarray
    subject_ids: tuple
    values: np.ndarray  # (n_subjects, n_grid, 2)


def _resample(curve: SubjectCurve, times, out: np.ndarray) -> np.ndarray:
    """The curve at ``times`` by linear interpolation, written into ``out`` (len(times), 2)."""
    for a in (0, 1):
        out[:, a] = np.interp(times, curve.times, curve.values[:, a])
    return out


def align_single(curve: SubjectCurve, anchors, ordinates, grid) -> np.ndarray:
    """One subject's curve evaluated at g^{-1}(grid) by linear interpolation."""
    ginv = warp_inverse_values(anchors, ordinates, grid)
    return _resample(curve, ginv, np.empty((len(ginv), 2)))


def align_stack(curves, anchors, ordinates, grid) -> np.ndarray:
    """Curves (N) at the inverses of their warps (N, n_w) on ``grid``, (N, n_grid, 2), inverted
    in one stacked call, each row equal to ``align_single``'s byte for byte."""
    ginv = warp_inverse_values(anchors, ordinates, grid)
    values = np.empty((len(curves), len(grid), 2))
    for curve, row, out in zip(curves, ginv, values):
        _resample(curve, row, out)
    return values


def align_curves(panel: CurvePanel, fit: RegistrationFit) -> AlignedPanel:
    """Register every curve onto the fit's uniform grid of ``n_align_grid``
    points via its inverse warp, the whole panel in one ``align_stack``."""
    grid = np.linspace(0.0, 1.0, fit.config.n_align_grid)
    ids = tuple(panel.subject_ids)
    ords = np.array([fit.warps.ordinates(sid) for sid in ids])
    values = align_stack(panel.curves, fit.warps.anchors, ords, grid)
    return AlignedPanel(grid=grid, subject_ids=ids, values=values)


@lru_cache(maxsize=_GRID_FACTORS_KEPT)
def _held_out_grid(curve_cov: MaternParams, anchor_bytes: bytes, time_bytes: bytes) -> tuple:
    """A held-out grid's entry as in a fit's ``GlsContext``, cached by its inputs:
    the factor of I + S and the ``_grid_weights``."""
    times = np.frombuffer(time_bytes)
    weights = _grid_weights(np.frombuffer(anchor_bytes), times)
    return _curve_factor(matern_cov(curve_cov, times)), weights


@lru_cache(maxsize=_GRID_FACTORS_KEPT)
def _held_out_group(warp_cov: MaternParams, anchor_bytes: bytes, basis, coef_bytes: bytes):
    """The warp-prior rows (read-only) and a group's ``_mean_splines``, cached by their inputs."""
    anchors = np.frombuffer(anchor_bytes)
    prior = _prior_rows(warp_cov, anchors)
    prior.flags.writeable = False
    return prior, _mean_splines(basis, np.frombuffer(coef_bytes).reshape(2, basis.size))


@lru_cache(maxsize=_GRID_FACTORS_KEPT)
def _held_out_start(
    curve_cov: MaternParams, warp_cov: MaternParams, anchor_bytes: bytes, basis,
    coef_bytes: bytes, class_bytes: bytes, time_bytes: bytes,
) -> tuple:
    """A class warp's geometry on one held-out grid, cached by its inputs.

    ``_warp_geometry``'s ok and (dg, mu, dmu, ddmu) of one subject whose
    ordinates are the class warp (``class_bytes``), on the grid's Hermite
    weights (``_held_out_grid``) under the class's mean splines
    (``_held_out_group``), as read-only arrays: what a held-out solve's
    first evaluation, at zero offsets, shares with every subject of the
    class on the grid.
    """
    _, weights = _held_out_grid(curve_cov, anchor_bytes, time_bytes)
    _, splines = _held_out_group(warp_cov, anchor_bytes, basis, coef_bytes)
    ords = np.frombuffer(class_bytes)[None].copy()
    (ok,), ((dg, *curves),) = _warp_geometry(
        np.frombuffer(anchor_bytes), ords, splines, [(slice(None), None, weights[None], None, None)]
    )
    parts = (ok, dg[0], *(np.ascontiguousarray(c[0]) for c in curves))
    for part in parts[1:]:
        part.flags.writeable = False
    return parts


def fit_subject_warp(curves, fit: RegistrationFit, label: int) -> tuple:
    """Fit the warps of subjects not in the training fit under class ``label``.

    ``curves`` is a sequence of S ``SubjectCurve``.  The class warp
    and all model parameters stay at their fitted values; only each
    subject's interior anchor offsets are optimized, from zero, the S
    subjects as one ``WarpProblem`` by one lock-step call of the warp
    step's solver (about four residual evaluations per subject, at most
    ``fit.config.warp_maxfun``), in which each takes the steps it would
    take alone.  Returns the ordinates at the anchors (the class warp plus
    the offsets), (S, n_w), and whether each solve converged, (S,).  They
    strictly increase: the class warp does (``RegistrationFit``), and the
    solver accepts only increasing points.  A kernel that cannot be
    factored raises NumericalError.

    The problem's fixed parts are cached by the values they are built from,
    not on the fit: each grid's (``_held_out_grid``), the group's
    (``_held_out_group``) and the class warp's geometry on each grid
    (``_held_out_start``).  At zero offsets every subject's warped mean
    curve is the class warp's, so where the subjects share one grid (a
    subject alone always does) the solver's first evaluation whitens the
    cached geometry against each subject's curve, with no Hyman slopes or
    spline evaluations.  Subjects on several grids are evaluated at zero
    offsets by one residual call, as a warp step's are: a geometry per grid
    would cost a call per grid.  A hit gives the parts a miss would build,
    and the first evaluation has the bytes of a residual call at zero
    offsets, so the offsets do not depend on what any fit predicted before.
    """
    anchors = fit.warps.anchors
    if label not in fit.warps.group_offsets:
        raise DataError(f"unknown group label {label!r}")
    class_warp = anchors + fit.warps.group_offsets[label]
    anchor_bytes, coef_bytes = anchors.tobytes(), fit.means.coefs(label).tobytes()
    prior, splines = _held_out_group(fit.var.warp_cov, anchor_bytes, fit.basis, coef_bytes)
    prob = WarpProblem.of(
        anchors, np.tile(class_warp, (len(curves), 1)), [c.times for c in curves],
        [c.values for c in curves],
        lambda t: _held_out_grid(fit.var.curve_cov, anchor_bytes, t.tobytes()), splines, prior,
    )
    u0 = np.zeros((len(curves), len(anchors) - 2))
    if len(prob.lengths) == 1 and len(prob.lengths[0].factors) == 1:
        ok, *start = _held_out_start(
            fit.var.curve_cov, fit.var.warp_cov, anchor_bytes, fit.basis, coef_bytes,
            class_warp.tobytes(), curves[0].times.tobytes(),
        )
        geometry = [tuple(np.repeat(part[None], len(curves), axis=0) for part in start)]
        first = _whitened(prob, u0, prob.layout, np.full(len(curves), ok), geometry)
    else:  # one residual call evaluates all grids at once
        first = subject_warp_residuals(prob, u0)
    u, _, converged, _, _ = _levenberg_marquardt(
        partial(subject_warp_residuals, prob), u0, first, fit.config.warp_maxfun
    )
    offsets = np.zeros((len(curves), len(anchors)))
    offsets[:, 1:-1] = u
    return class_warp + offsets, converged
