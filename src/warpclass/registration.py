"""First-level model: warped nonlinear mixed-effects curve registration.

Each subject's two-coordinate curve is modeled as a group mean profile
(B-spline expansion with shared weights plus centered group deviations)
composed with a subject-specific monotone time warp, plus a smooth
Gaussian-process residual and white noise.  Warps are built from anchor
offsets: a fixed per-group offset vector and a random per-subject one,
interpolated monotonically, with boundary anchors pinned so g(0) = 0 and
g(1) = 1.

Fitting alternates three conditional steps: generalized least squares for
the basis weights, Levenberg-Marquardt for the warp anchors (the warp part
of the objective is a sum of squares whose Jacobian is analytic), and
maximum likelihood for the variance parameters on a linearized model
(bounded L-BFGS-B on the analytic gradient of the profiled likelihood).
The basis-weight step is one GLS pass: each warp and variance state
gets one set of per-group normal equations (``gls_normals``), from which
the shared weights, the group deviations and the ridge weight are solved.
A warp problem is assembled from parts built once where they are fixed:
per grid and per variance state in ``GlsContext``, per group in each warp
step.
The alternation is coordinate descent on one penalized objective
(residual Mahalanobis norms + warp prior + ridge on group deviations), so
its trace is non-increasing once the variance parameters are frozen.
The ridge weight is the ratio of the noise variance to the variance of
the group deviations; it is estimated by an effective-degrees-of-freedom
fixed point each time the variance parameters are, and frozen with them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from .basis import BSplineBasis, hermite_weights, hyman_interp, hyman_slopes
from .codec import decode, encode
from .curves import CurvePanel, SubjectCurve
from .errors import DataError, NumericalError, check_int, check_real, check_reals, check_shape
from .gp import (
    CholFactor,
    GridDistances,
    MaternParams,
    matern_cov,
    matern_cov_grad,
    profile_loglik_parts,
)

_log = logging.getLogger(__name__)

# Likelihood value where a factorization fails (CholFactor gives up after
# its jitter ladder, or a Woodbury cap loses definiteness in rounding).
_BIG = 1e12
_MONO_EPS = 1e-10
# Warp solver stopping rules: gradient size and relative objective decrease.
# Near the minimum LM steps are cheap and converge fast, so the tight decrease
# bound costs about two extra residual evaluations per solve.
_FTOL = 1e-13
_GTOL = 1e-5
# Held-out grid factors kept per fitted model (see _kernel_factors).
_GRID_FACTORS_KEPT = 8
# Ridge-weight fixed point (estimate_ridge): iteration cap, relative
# tolerance, and the weight used once the deviations vanish.
_RIDGE_ITERS = 200
_RIDGE_TOL = 1e-10
_RIDGE_MAX = 1e12
# Format 1 stores each Matern kernel as this list of its parameters.
_MATERN = tuple(f.name for f in fields(MaternParams))


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
        if not self.noise_sd > 0:
            raise DataError(f"noise_sd must be positive, got {self.noise_sd}")


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


def _check_increasing(ordinates, who: str) -> None:
    if np.any(np.diff(ordinates) <= _MONO_EPS):
        raise NumericalError(f"non-monotone warp ordinates for {who}")


def eval_warp(warps: WarpState, group, subject, times) -> np.ndarray:
    """Warp g(t) for one subject; strictly increasing with g(0)=0, g(1)=1."""
    if warps.group_of.get(subject) != group:
        raise DataError(f"subject {subject!r} is not in group {group!r}")
    ords = warps.ordinates(subject)
    _check_increasing(ords, f"subject {subject}")
    return np.clip(warp_values(warps.anchors, ords, times), 0.0, 1.0)


def warp_inverse_values(anchors, ordinates, times) -> np.ndarray:
    """g^{-1}(times) for the monotone warp through (anchors, ordinates).

    Solved cell by cell (``MonotoneInterpolant.inverse``), so that
    g(g^{-1}(t)) = t to rounding and the ends map exactly.  Raises
    NumericalError unless the ordinates strictly increase.
    """
    if np.any(np.diff(ordinates) <= 0):
        raise NumericalError("non-monotone warp ordinates: the warp has no inverse")
    return hyman_interp(anchors, ordinates).inverse(times)


# ---------------------------------------------------------------------------
# GLS context: everything static across one variance state.


class GlsContext:
    """Everything static across one variance state.

    Per distinct observation grid, the Cholesky factor of (I + S_i) and the
    warp's Hermite weights (``_grid_parts``), mapped to each subject by
    ``s_factors`` and ``hermite``.  For the warp covariance H on the
    interior anchors, its factor ``warp_prior`` and the warp-prior rows
    ``prior_rows`` (``_prior_rows``).
    """

    def __init__(self, panel: CurvePanel, basis: BSplineBasis, anchors, var: VarianceParams):
        self.basis = basis
        anchors = np.asarray(anchors, dtype=float)
        if len(anchors) < 3:
            raise DataError("need at least 3 warp anchors (one interior)")
        if abs(anchors[0]) > 1e-12 or abs(anchors[-1] - 1.0) > 1e-12:
            raise DataError("warp anchors must span [0, 1]")
        if np.any(np.diff(anchors) <= 0):
            raise DataError(f"warp anchors must be strictly increasing, got {anchors.tolist()}")
        self.warp_prior = CholFactor(matern_cov(var.warp_cov, anchors[1:-1]))
        self.prior_rows = _prior_rows(self.warp_prior)
        grids: dict = {}
        self.s_factors: dict = {}
        self.hermite: dict = {}
        for c in panel.curves:
            key = c.times.tobytes()
            if key not in grids:
                grids[key] = _grid_parts(var.curve_cov, anchors, c.times)
            self.s_factors[c.subject_id], self.hermite[c.subject_id] = grids[key]


def _curve_factor(s_mat: np.ndarray) -> CholFactor:
    """Factor of I + S for the curve kernel S on one grid: the curve block over the noise."""
    return CholFactor(np.eye(len(s_mat)) + s_mat)


def _grid_parts(curve_cov: MaternParams, anchors, times) -> tuple:
    """One grid's constants: the factor of I + S and the Hermite weights at ``times``."""
    return _curve_factor(matern_cov(curve_cov, times)), hermite_weights(anchors, times)


def _prior_rows(h_factor: CholFactor) -> np.ndarray:
    """Warp-prior rows sqrt(2) L_H^{-1}: their squared norm at u is 2 u' H^{-1} u."""
    return np.sqrt(2.0) * h_factor.half_solve(np.eye(h_factor.n))


def build_context(panel, basis, anchors, var) -> GlsContext:
    return GlsContext(panel, basis, anchors, var)


def warp_design(panel: CurvePanel, warps: WarpState, basis: BSplineBasis) -> dict:
    """Per-subject B-spline design evaluated at the warped times g(t_ij)."""
    out = {}
    for c in panel.curves:
        g = eval_warp(warps, warps.group_of[c.subject_id], c.subject_id, c.times)
        out[c.subject_id] = basis.design(g)
    return out


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
    estimates it with ``estimate_ridge``.  Returns the deviations and the
    shared weights with the centering shift absorbed.
    """
    if ridge_lambda < 0:
        raise DataError(f"ridge penalty must be >= 0, got {ridge_lambda}")
    ridge = ridge_lambda * np.eye(c_hat.shape[1])
    d = {k: np.linalg.solve(a + ridge, b - a @ c_hat.T).T for k, (a, b) in normals.items()}
    shift = np.mean(list(d.values()), axis=0)
    return {k: v - shift for k, v in d.items()}, c_hat + shift


def estimate_ridge(normals: dict, c_hat: np.ndarray, noise_sd: float, start: float) -> float:
    """Ridge weight on the group deviations as a variance ratio.

    The group deviations are fixed effects with a Gaussian prior of
    variance tau^2, so in the sigma^2-scaled objective their weight is
    lambda = sigma^2 / tau^2, with sigma = ``noise_sd``.  tau^2 is found by
    the effective-degrees-of-freedom fixed point (Schall, 1991):
    tau^2 = sum_k ||d_k||^2 / edf with edf = sum_k tr((A_k + lambda I)^{-1} A_k)
    over both coordinates, where d_k are the centered ridge-GLS deviations
    from ``c_hat`` and A_k is group k's GLS normal matrix.  Iterates from
    ``start``; the result does not depend on it.
    """
    noise_var = noise_sd**2
    eigs = []
    for a, b in normals.values():
        vals, vecs = np.linalg.eigh(a)
        eigs.append((np.maximum(vals, 0.0), vecs, vecs.T @ (b - a @ c_hat.T)))
    lam = float(start)
    for _ in range(_RIDGE_ITERS):
        # a zero eigenvalue at lam = 0 contributes nothing (pseudo-inverse)
        inv = [
            np.divide(1.0, vals + lam, out=np.zeros_like(vals), where=vals + lam > 0)
            for vals, _, _ in eigs
        ]
        raw = [vecs @ (proj * w[:, None]) for (_, vecs, proj), w in zip(eigs, inv)]
        shift = np.mean(raw, axis=0)
        ss = sum(float(np.sum((r - shift) ** 2)) for r in raw)
        edf = 2.0 * sum(float(vals @ w) for (vals, _, _), w in zip(eigs, inv))
        new = min(noise_var * edf / ss, _RIDGE_MAX) if ss > 0 else _RIDGE_MAX
        done = abs(new - lam) <= _RIDGE_TOL * new
        lam = new
        if done:
            break
    return lam


# ---------------------------------------------------------------------------
# Conditional step 2: warp anchors by Levenberg-Marquardt.


@dataclass(frozen=True)
class WarpProblem:
    """One subject's warp residual with everything but the free offsets fixed.

    The ordinates are ``base`` plus the free interior offsets u.  The other
    fields are shared, built once where they are fixed: per grid, the
    Hermite weights ``hermite`` at the subject's times and the factor of
    I + S ``s_factor`` that whitens the curve rows (``_grid_parts``); per
    group, the 2-valued mean spline ``mean`` and its derivative ``dmean``
    (``_mean_splines``); per variance state, the warp-prior rows ``prior``
    (``_prior_rows``).  ``s_factor`` or ``prior`` may be None to leave
    that part out.
    """

    anchors: np.ndarray
    base: np.ndarray
    hermite: tuple
    values: np.ndarray
    mean: BSpline
    dmean: BSpline
    s_factor: CholFactor | None = None
    prior: np.ndarray | None = None


def _mean_splines(basis: BSplineBasis, coefs: np.ndarray) -> tuple[BSpline, BSpline]:
    """A group's 2-valued mean spline under the (2, q) weights ``coefs``, and its derivative."""
    spl = basis.spline(coefs)
    return spl, spl.derivative()


def subject_warp_residuals(prob: WarpProblem, u: np.ndarray):
    """Residual vector r(u) and its Jacobian J (len(r), len(u)).

    ``r = [L_S^{-1}(x_1 - mu_1(g)), L_S^{-1}(x_2 - mu_2(g)), sqrt(2) L_H^{-1} u]``,
    so ``r @ r`` is the subject's term of the penalized objective.  The
    warp g is linear in the ordinates and the Hyman slopes, which are
    piecewise linear in the ordinates, so J is analytic.  Returns None
    when the ordinates are not strictly increasing.
    """
    ords = prob.base.copy()
    ords[1:-1] += u
    if np.any(np.diff(ords) <= _MONO_EPS):
        return None
    d, dd = hyman_slopes(prob.anchors, ords)
    wy, wd = prob.hermite
    g = wy @ ords + wd @ d
    dg = (wy + wd @ dd)[:, 1:-1]
    slope = prob.dmean(g)
    cols = np.hstack([prob.values - prob.mean(g), -slope[:, :1] * dg, -slope[:, 1:] * dg])
    if prob.s_factor is not None:
        cols = prob.s_factor.half_solve(cols)
    m = dg.shape[1]
    r = np.concatenate([cols[:, 0], cols[:, 1]])
    jac = np.vstack([cols[:, 2 : 2 + m], cols[:, 2 + m :]])
    if prob.prior is not None:
        r = np.concatenate([r, prob.prior @ u])
        jac = np.vstack([jac, prob.prior])
    return r, jac


def _levenberg_marquardt(residuals, u0: np.ndarray, max_evals: int) -> tuple:
    """Minimize ||r(u)||^2 by damped Gauss-Newton steps (More, 1978).

    ``residuals(u)`` returns (r, J), or None where u is infeasible.  A trial
    that is infeasible or does not lower the objective is rejected and the
    damping raised, so every accepted step descends.  Damping is scaled by
    diag(J'J) (Marquardt) and updated by the gain ratio (Nielsen).  It has
    converged when the gradient of f is below ``_GTOL``, or when an accepted
    step, or the model's promise for a rejected one, lowers f by at most
    ``_FTOL * max(f, 1)``; it stops short after ``max_evals`` evaluations of
    ``residuals``.  Returns (u, f, converged, f0), where f0 is the value at
    ``u0``; f and f0 are inf for an infeasible start.
    """
    out = residuals(u0)
    if out is None:
        return u0, np.inf, False, np.inf
    r, jac = out
    f0 = float(r @ r)
    u, f = u0, f0
    lam, nu = 1e-3, 2.0
    for _ in range(max_evals - 1):
        grad = jac.T @ r
        if 2.0 * np.max(np.abs(grad), initial=0.0) <= _GTOL:
            return u, f, True, f0
        jtj = jac.T @ jac
        diag = np.maximum(np.diag(jtj), 1e-12 * np.max(np.diag(jtj)))
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError:
            lam, nu = lam * nu, 2.0 * nu
            continue
        pred = -float(2.0 * step @ grad + step @ jtj @ step)
        tol = _FTOL * max(f, 1.0)
        trial = residuals(u + step)
        f_new = np.inf if trial is None else float(trial[0] @ trial[0])
        if not f_new < f:
            if pred <= tol:
                return u, f, True, f0
            lam, nu = lam * nu, 2.0 * nu
            continue
        gain = (f - f_new) / pred if pred > 0 else 0.0
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        nu = 2.0
        done = f - f_new <= tol
        u, f = u + step, f_new
        r, jac = trial
        if done:
            return u, f, True, f0
    return u, f, False, f0


def fit_warps(
    panel: CurvePanel,
    means: MeanWeights,
    ctx: GlsContext,
    warps_init: WarpState,
    maxfun: int = 500,
) -> tuple[WarpState, dict]:
    """Minimize the warp part of the penalized objective.

    Per-subject interior offsets are independent given the group offsets
    and are fit as separate Levenberg-Marquardt problems; group offsets
    get their own pass on their members' stacked residuals (no prior, as
    they are fixed effects).  ``maxfun`` caps the residual evaluations of
    each solve.  Each subject's problem is built once, from the context's
    parts and its group's mean splines; the group pass reuses it with the
    subject offsets as ``base`` and no prior rows.  Subjects are re-centered
    within each group, and updates are kept only if they do not raise their
    solve's objective.  The step is reverted, with a warning, if the total
    rose: before it, the sum of the subject solves' start values; after
    it, the group solves' final values plus each subject's prior term at
    its re-centered offsets.  So the objective never increases.
    """
    warps = warps_init.copy()
    anchors = warps.anchors
    stats = {"n_opt": 0, "n_converged": 0}

    def solve(residuals, u0):
        u, f, converged, f0 = _levenberg_marquardt(residuals, u0, maxfun)
        stats["n_opt"] += 1
        stats["n_converged"] += int(converged)
        return u, f, f0

    by_group: dict = {k: [] for k in sorted(set(warps.group_of.values()))}
    for curve in panel.curves:
        by_group[warps.group_of[curve.subject_id]].append(curve)

    before = after = 0.0
    for k, curves in by_group.items():
        splines = _mean_splines(ctx.basis, means.coefs(k))
        base = anchors + warps.group_offsets[k]
        probs = []
        for curve in curves:
            sid = curve.subject_id
            prob = WarpProblem(
                anchors, base, ctx.hermite[sid], curve.values, *splines,
                ctx.s_factors[sid], ctx.prior_rows,
            )
            # never worse than the start: LM accepts only descending steps
            offsets = warps.subject_offsets[sid]
            offsets[1:-1], _, start = solve(
                partial(subject_warp_residuals, prob), offsets[1:-1].copy()
            )
            before += start
            probs.append(prob)

        # Re-center the random offsets; the shift moves into the group part.
        members = [warps.subject_offsets[c.subject_id] for c in curves]
        shift = np.mean(members, axis=0)
        shift[0] = shift[-1] = 0.0
        for offsets in members:
            offsets -= shift
        warps.group_offsets[k] = warps.group_offsets[k] + shift

        # Group offsets are fixed effects: only the residual rows move.
        probs = [replace(p, base=anchors + u, prior=None) for p, u in zip(probs, members)]

        def group_residuals(v, probs=probs):
            outs = [subject_warp_residuals(prob, v) for prob in probs]
            if any(out is None for out in outs):
                return None
            return np.concatenate([o[0] for o in outs]), np.vstack([o[1] for o in outs])

        group = warps.group_offsets[k]
        group[1:-1], value, _ = solve(group_residuals, group[1:-1].copy())
        prior = np.array(members)[:, 1:-1] @ ctx.prior_rows.T
        after += value + float(np.sum(prior * prior))

    if not after <= before + 1e-9 * max(1.0, abs(before)):
        _log.warning("warp step reverted: objective %.12g before, %.12g after", before, after)
        return warps_init.copy(), stats
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
    twice the H^{-1} quadratic form of the random warp offsets, plus the
    ridge penalty ``ridge_lambda * ||d||^2`` on group deviations.  The sum
    is sigma^2 times a negative log posterior, so the ridge weight is the
    variance ratio sigma^2 / tau^2 (see ``estimate_ridge``).  ``designs``
    are the ``warp_design`` matrices of ``warps``.
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
        total += 2.0 * ctx.warp_prior.quad(warps.subject_offsets[sid][1:-1])
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
) -> tuple[dict, dict, dict]:
    """First-order expansion of the fitted curves in the random warp offsets.

    Returns per-subject fitted values (n, 2), the Jacobian with respect to
    the interior anchor offsets (2, n, n_int), and the current offsets.
    Both come from ``subject_warp_residuals`` on zero data without
    whitening, where the residual is minus the fitted curves.
    """
    anchors = warps.anchors
    splines = {k: _mean_splines(basis, means.coefs(k)) for k in warps.group_offsets}
    fitted, jac, w0 = {}, {}, {}
    for curve in panel.curves:
        sid = curve.subject_id
        k = warps.group_of[sid]
        n = len(curve.times)
        prob = WarpProblem(
            anchors, anchors + warps.group_offsets[k], hermite_weights(anchors, curve.times),
            np.zeros((n, 2)), *splines[k],
        )
        w0[sid] = warps.subject_offsets[sid][1:-1].copy()
        out = subject_warp_residuals(prob, w0[sid])
        if out is None:
            raise NumericalError(f"non-monotone warp ordinates for subject {sid}")
        r, dr = out
        fitted[sid] = -r.reshape(2, n).T
        jac[sid] = -dr.reshape(2, n, -1)
    return fitted, jac, w0


# Log-scale boxes for (curve amp, curve range, warp amp, warp range); outside
# them the likelihood is flat in practice and the matrices go singular.  Range
# above ~5 on the unit interval only pushes correlations towards one.
_LOG_LO = np.log([1e-3, 0.02, 1e-3, 0.02])
_LOG_HI = np.log([1e3, 5.0, 1e3, 5.0])
_VARIANCE_NAMES = ("curve amplitude", "curve length scale", "warp amplitude", "warp length scale")


def _variance_negloglik(
    log_params, smooth_curve, smooth_warp, grids, blocks, anchor_dists, grad=None
):
    """Profiled negative Gaussian log likelihood of the linearized model.

    Block covariance per subject and coordinate is V = C + B H B' with
    C = I + S (times the profiled-out noise variance).  ``blocks`` holds,
    per distinct observation grid, the columns [r, B] of every subject and
    coordinate on it side by side; ``grids`` holds the same grids'
    ``GridDistances`` and ``anchor_dists`` those of the interior anchors.
    One evaluation factors C once per grid and whitens that grid's block,
    together with S and dS, in one triangular solve.  The Gram matrix of
    each whitened [r, B] gives r' C^-1 r, g = B' C^-1 r and G = B' C^-1 B,
    and the warp term enters by the Woodbury identity through one batched
    determinant and solve over the caps H^-1 + G.

    The derivative in a log parameter is ``1/2 sum tr((V^-1 - a a' /
    sigma2) dV)`` with ``a = V^-1 r`` (Rasmussen & Williams 2006, 5.4.1).
    A curve parameter has the same dV = dS on every block of a grid: the
    blocks' sums of V^-1 and a a' are formed in whitened coordinates and
    traced against L^-1 dS L^-T, one more triangular solve per grid.  A
    warp parameter has dV = B dH B', whose traces need only the m x m
    matrices B' V^-1 B = G - G cap^-1 G and B' a = g - G cap^-1 g.  Grids
    are summed in the order of ``blocks``.

    Returns the value and the profiled noise variance, and writes the
    gradient in the four log parameters into ``grad`` when it is given.
    Where a factorization fails the value is ``_BIG``, the variance NaN
    and the gradient zero.
    """
    amp_s, rg_s, amp_h, rg_h = np.exp(np.asarray(log_params, dtype=float))
    if grad is not None:
        grad[:] = 0.0
    failed = (_BIG, float("nan"))
    curve_cov = MaternParams(amp_s, rg_s, smooth_curve)
    h_kernels = matern_cov_grad(MaternParams(amp_h, rg_h, smooth_warp), anchor_dists)
    try:
        h_fac = CholFactor(h_kernels[0])
    except NumericalError:
        return failed
    m = len(h_kernels[0])
    h_inv = h_fac.solve(np.eye(m))
    h_logdet = h_fac.logdet()
    quad_sum = 0.0
    logdet_sum = 0.0
    n_tot = 0
    # Traces of the grids' summed V^-1 (row 0) and a a' (row 1) against dS
    # for each log curve parameter (column), and the m x m sums of
    # B' V^-1 B and B' a a' B that the warp parameters trace against dH.
    curve_terms = np.zeros((2, 2))
    warp_inv = np.zeros((m, m))
    warp_outer = np.zeros((m, m))
    for key, block in blocks.items():
        s_kernels = matern_cov_grad(curve_cov, grids[key])
        try:
            c_fac = _curve_factor(s_kernels[0])
        except NumericalError:
            return failed
        n = len(block)
        solved = c_fac.half_solve(np.hstack([block, *s_kernels]))
        z = solved[:, : block.shape[1]].reshape(n, -1, 1 + m)
        gram = np.einsum("nki,nkj->kij", z, z)
        caps = h_inv + gram[:, 1:, 1:]
        signs, cap_logdets = np.linalg.slogdet(caps)
        if np.any(signs <= 0):
            return failed
        cross = gram[:, 1:, :1]
        beta = np.linalg.solve(caps, cross)
        quads = gram[:, 0, 0] - np.sum(cross * beta, axis=(1, 2))
        quad_sum += float(np.sum(np.maximum(quads, 0.0)))
        logdet_sum += len(quads) * (c_fac.logdet() + h_logdet) + float(np.sum(cap_logdets))
        n_tot += n * len(quads)

        cap_inv = np.linalg.inv(caps)
        zb = z[:, :, 1:]
        u = z[:, :, 0] - np.einsum("nki,ki->nk", zb, beta[:, :, 0])
        inner = len(quads) * np.eye(n) - (
            np.einsum("nki,kij->nkj", zb, cap_inv).reshape(n, -1) @ zb.reshape(n, -1).T
        )
        outer = u @ u.T
        half = solved[:, block.shape[1] :]
        white = c_fac.half_solve(np.hstack([half[:, :n].T, half[:, n:].T])).reshape(n, 2, n)
        curve_terms += np.einsum("aij,ipj->ap", np.stack([inner, outer]), white)
        g_mat = gram[:, 1:, 1:]
        warp_inv += np.einsum("kij->ij", g_mat - g_mat @ cap_inv @ g_mat)
        proj = gram[:, 1:, 0] - (g_mat @ beta)[:, :, 0]
        warp_outer += np.einsum("ki,kj->ij", proj, proj)
    loglik, sigma2 = profile_loglik_parts(quad_sum, logdet_sum, n_tot)
    if not np.isfinite(loglik):
        return failed
    if grad is not None:
        grad[:2] = 0.5 * (curve_terms[0] - curve_terms[1] / sigma2)
        warp = 0.5 * (warp_inv - warp_outer / sigma2)
        grad[2:] = np.einsum("ij,pij->p", warp, np.stack(h_kernels))
    return -loglik, sigma2


def fit_variance(
    panel: CurvePanel,
    fitted: dict,
    jac: dict,
    w0: dict,
    var_init: VarianceParams,
    anchors,
    maxiter: int = 100,
) -> tuple[VarianceParams, tuple]:
    """Maximize the profiled likelihood over the four covariance parameters.

    Bounded L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) in log space over
    (curve amplitude, curve range, warp amplitude, warp range) on the box
    ``_LOG_LO``..``_LOG_HI``, with the analytic gradient of
    ``_variance_negloglik`` and at most ``maxiter`` iterations.  The two
    smoothness orders stay fixed and the noise variance is profiled out in
    closed form.  The residuals and Jacobians are stacked once per call
    into one [r, B] block per distinct grid, in panel order, and each
    grid's pair distances are grouped once (``GridDistances``), so each
    evaluation makes one whitening solve per grid, batches the caps and
    evaluates the kernels once per distinct distance.  The start is
    data-driven and projected into the box.  Returns the updated parameters
    and the (initial, final) log likelihood.  A stop short of convergence
    (at ``maxiter`` or on a failed line search) is logged, and so is each
    parameter that ends on its box bound.
    """
    anchors = np.asarray(anchors, dtype=float)
    grids, cols, resid = {}, {}, {}
    for curve in panel.curves:
        sid = curve.subject_id
        key = curve.times.tobytes()
        if key not in grids:
            grids[key] = GridDistances.of(curve.times)
        back = np.stack([jac[sid][0] @ w0[sid], jac[sid][1] @ w0[sid]], axis=1)
        resid[sid] = curve.values - fitted[sid] + back
        cols.setdefault(key, []).extend(
            np.column_stack([resid[sid][:, a], jac[sid][a]]) for a in (0, 1)
        )
    blocks = {key: np.hstack(c) for key, c in cols.items()}
    anchor_dists = GridDistances.of(anchors[1:-1])
    smooth_curve, smooth_warp = var_init.curve_cov.smoothness, var_init.warp_cov.smoothness

    # The latest evaluation, so that the start (which L-BFGS-B evaluates
    # again) and the returned point are not evaluated twice.
    last = {}

    def objective(log_params):
        x = np.asarray(log_params, dtype=float)
        if "x" not in last or not np.array_equal(x, last["x"]):
            grad = np.empty(4)
            value, sigma2 = _variance_negloglik(
                x, smooth_curve, smooth_warp, grids, blocks, anchor_dists, grad
            )
            last.update(x=x.copy(), value=value, grad=grad, sigma2=sigma2)
        return last["value"], last["grad"].copy()

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
    f0, _ = objective(x0)
    if f0 >= _BIG:
        raise NumericalError("variance likelihood is not finite at the initial point")
    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(_LOG_LO, _LOG_HI)),
        options={"maxiter": maxiter},
    )
    if res.status != 0:
        _log.warning(
            "variance step stopped short after %d L-BFGS-B iterations: %s", res.nit, res.message
        )
    best = res.x if res.fun <= f0 else x0
    objective(best)  # leaves the noise variance at ``best`` in ``last``
    for name, value, lo, hi in zip(_VARIANCE_NAMES, best, _LOG_LO, _LOG_HI):
        if value <= lo or value >= hi:
            bound = np.exp(lo if value <= lo else hi)
            _log.warning("variance parameter %s ends on its box bound %g", name, bound)
    amp_s, rg_s, amp_h, rg_h = np.exp(best)
    curve_cov = replace(var_init.curve_cov, amplitude=amp_s, length_scale=rg_s)
    warp_cov = replace(var_init.warp_cov, amplitude=amp_h, length_scale=rg_h)
    out = VarianceParams(float(np.sqrt(last["sigma2"])), curve_cov, warp_cov)
    return out, (-f0, -float(min(res.fun, f0)))


# ---------------------------------------------------------------------------
# Outer loop.


@dataclass(frozen=True)
class RegistrationConfig:
    """Tuning constants of the alternating fit; defaults match the studies.

    ``ridge_lambda`` is only the start of the ridge-weight fixed point
    (``estimate_ridge``); the weight itself is estimated with the
    variance parameters and stored on the fit.  ``warp_maxfun`` caps the
    residual evaluations of each warp solve (one subject, one group, or
    one held-out subject's fit).  ``variance_maxiter`` caps the L-BFGS-B
    iterations of each variance step (``fit_variance``).
    """

    n_interior_knots: int = 8
    spline_order: int = 4
    warp_anchors: tuple = (0.0, 0.33, 0.67, 1.0)
    ridge_lambda: float = 1.0
    noise_sd_init: float = 0.05
    curve_cov_init: tuple = (1.0, 0.3, 3.0)
    warp_cov_init: tuple = (1.0, 0.3, 3.0)
    warp_maxfun: int = 500
    variance_maxiter: int = 100
    n_variance_updates: int = 2
    max_outer: int = 20
    tol_rel: float = 1e-4
    n_align_grid: int = 101

    def __post_init__(self):
        # BSplineBasis.uniform and GlsContext check the ranges of the basis
        # sizes and the anchors when the fit starts; only their types here.
        check_int("n_interior_knots", self.n_interior_knots)
        check_int("spline_order", self.spline_order)
        check_reals("warp_anchors", self.warp_anchors)
        for name, low in (
            ("warp_maxfun", 1), ("variance_maxiter", 1), ("n_variance_updates", 0),
            ("max_outer", 1), ("n_align_grid", 2),
        ):
            check_int(name, getattr(self, name), low)
        check_real("ridge_lambda", self.ridge_lambda, 0.0)
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
    """Everything the second level and prediction need from level one."""

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
    # Estimated ridge weight on the group deviations; None means the
    # config's start value, which older artifacts were fitted with.
    ridge_lambda: float | None = None
    # Kernel factors reused by fit_subject_warp; never serialized.
    _factors: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ridge_lambda is None:
            self.ridge_lambda = self.config.ridge_lambda
        # a decoded artifact is checked here, before any array broadcasts
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
        """Format 1: ``anchors`` beside ``warps``, Matern triples as lists under ``variance``."""
        out = encode(self)
        out["anchors"] = out["warps"].pop("anchors")
        var = out.pop("var")
        out["variance"] = {k: v if k == "noise_sd" else list(v.values()) for k, v in var.items()}
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RegistrationFit":
        """Inverse of ``to_dict``; a malformed payload raises DataError naming the field."""
        if not isinstance(payload, dict):
            raise DataError("fit must be an object")
        fit = dict(payload)
        if "anchors" in fit:
            anchors = fit.pop("anchors")
            # artifacts written before the whole config was stored lack warp_anchors
            for block, key in (("warps", "anchors"), ("config", "warp_anchors")):
                if isinstance(fit.get(block), dict):
                    fit[block] = {key: anchors, **fit[block]}
        if isinstance(fit.get("variance"), dict):
            fit["var"] = {
                k: dict(zip(_MATERN, v)) if isinstance(v, list) and len(v) == len(_MATERN) else v
                for k, v in fit.pop("variance").items()
            }
        return decode(cls, fit, "fit")


def fit_registration(panel: CurvePanel, config: RegistrationConfig | None = None) -> RegistrationFit:
    """Alternating conditional estimation of the full first-level model.

    Each warp state gets its designs once (at identity, then after each
    warp step), and each warp and variance state its GLS normal equations
    once (``gls_normals``); the shared-weight, deviation and ridge steps
    all solve from those, and the objective reuses the designs.
    Variance parameters are refreshed only during the first
    ``n_variance_updates`` outer iterations, and the ridge weight on the
    group deviations is re-estimated with them (``estimate_ridge``,
    started from ``config.ridge_lambda``).  Each refresh changes the
    objective, so its trace restarts there.  After the freeze the loop is
    plain coordinate descent and the recorded trace cannot increase.
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
    ctx = build_context(panel, basis, anchors, var)
    designs = warp_design(panel, warps, basis)
    normals = gls_normals(panel, warps, ctx, designs)

    def refresh_variance():
        """Variance step at the current means and warps, then what depends on it."""
        nonlocal var, ctx, normals, lam
        fitted, jac, w0 = build_linearization(panel, means, warps, basis)
        var, _ = fit_variance(panel, fitted, jac, w0, var, anchors, cfg.variance_maxiter)
        ctx = build_context(panel, basis, anchors, var)
        normals = gls_normals(panel, warps, ctx, designs)
        lam = estimate_ridge(normals, means.shared, var.noise_sd, lam)

    # Initialization pass: means and variance at identity warps, so the first
    # warp fit already works under a realistic GLS metric.  Otherwise warps
    # chase smooth curve-level deviations that the process term should absorb.
    # The ridge weight is re-estimated whenever the variance parameters change.
    c_init = estimate_c(normals, {k: np.zeros((2, basis.size)) for k in groups})
    lam = estimate_ridge(normals, c_init, var.noise_sd, cfg.ridge_lambda)
    d_init, c_init = estimate_d(normals, c_init, lam)
    means = MeanWeights(c_init, d_init)
    refresh_variance()

    trace_phases: list = [[]]
    n_var_done = 0
    converged = False
    n_outer = 0
    opt_total = 0
    opt_conv = 0
    for _ in range(cfg.max_outer):
        n_outer += 1
        c_hat = estimate_c(normals, means.group)
        d_hat, c_hat = estimate_d(normals, c_hat, lam)
        means = MeanWeights(c_hat, d_hat)

        warps, stats = fit_warps(panel, means, ctx, warps, cfg.warp_maxfun)
        opt_total += stats["n_opt"]
        opt_conv += stats["n_converged"]
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
    )


# ---------------------------------------------------------------------------
# Alignment to the common grid, and warp fitting for held-out subjects.


@dataclass(frozen=True)
class AlignedPanel:
    """Curves carried back to common time by the inverse warps."""

    grid: np.ndarray
    subject_ids: tuple
    values: np.ndarray  # (n_subjects, n_grid, 2)


def align_single(curve: SubjectCurve, anchors, ordinates, grid) -> np.ndarray:
    """One subject's curve evaluated at g^{-1}(grid) by linear interpolation."""
    ginv = warp_inverse_values(anchors, ordinates, grid)
    return np.column_stack(
        [np.interp(ginv, curve.times, curve.values[:, a]) for a in (0, 1)]
    )


def align_curves(panel: CurvePanel, fit: RegistrationFit, n_grid: int | None = None) -> AlignedPanel:
    """Register every curve onto a uniform grid via its inverse warp."""
    if n_grid is None:
        n_grid = fit.config.n_align_grid
    grid = np.linspace(0.0, 1.0, n_grid)
    ids = tuple(panel.subject_ids)
    values = np.empty((len(ids), n_grid, 2))
    for i, sid in enumerate(ids):
        ords = fit.warps.ordinates(sid)
        _check_increasing(ords, f"subject {sid}")
        values[i] = align_single(panel.curve(sid), fit.warps.anchors, ords, grid)
    return AlignedPanel(grid=grid, subject_ids=ids, values=values)


def _kernel_factors(fit: RegistrationFit, times: np.ndarray) -> tuple:
    """Factor of I + S and Hermite weights on ``times``, and the prior rows, from a cache.

    The cache is an immutable snapshot on the fit, replaced by one
    attribute assignment, so concurrent predictions never see it half
    built.  It is keyed by the variance parameters and anchors, holds the
    prior rows (``_prior_rows``) and at most ``_GRID_FACTORS_KEPT`` grids'
    ``_grid_parts`` (oldest dropped first), and a hit returns the parts a
    miss would compute.
    """
    anchors = fit.warps.anchors
    key = (fit.var, anchors.tobytes())
    snap = fit._factors
    if snap is None or snap[0] != key:
        snap = (key, _prior_rows(CholFactor(matern_cov(fit.var.warp_cov, anchors[1:-1]))), {})
    grid = times.tobytes()
    parts = snap[2].get(grid)
    if parts is None:
        parts = _grid_parts(fit.var.curve_cov, anchors, times)
        kept = list(snap[2].items())[-(_GRID_FACTORS_KEPT - 1) :]
        snap = (key, snap[1], dict(kept + [(grid, parts)]))
    fit._factors = snap
    return (*parts, snap[1])


def fit_subject_warp(
    curve: SubjectCurve,
    fit: RegistrationFit,
    label: int,
) -> tuple[np.ndarray, bool]:
    """Estimate random warp offsets for a subject not in the training fit.

    Group offsets and all model parameters stay at their fitted values;
    only the subject's interior anchor offsets are optimized, by one
    Levenberg-Marquardt solve from zero offsets with at most
    ``fit.config.warp_maxfun`` residual evaluations.  Returns the full
    offset vector (boundaries zero) and whether the solve converged; the
    offsets stay zero where the zero start is infeasible.  They also stay
    zero, leaving the subject on its group's warp, where the kernels cannot
    be factored on its grid; a warning then names the subject.
    """
    anchors = fit.warps.anchors
    if label not in fit.warps.group_offsets:
        raise DataError(f"unknown group label {label!r}")
    out = np.zeros(len(anchors))
    try:
        s_fac, hermite, prior = _kernel_factors(fit, curve.times)
    except NumericalError as exc:
        _log.warning("subject %s keeps zero warp offsets: %s", curve.subject_id, exc)
        return out, False
    prob = WarpProblem(
        anchors, anchors + fit.warps.group_offsets[label], hermite, curve.values,
        *_mean_splines(fit.basis, fit.means.coefs(label)), s_fac, prior,
    )
    out[1:-1], _, converged, _ = _levenberg_marquardt(
        partial(subject_warp_residuals, prob), np.zeros(len(anchors) - 2), fit.config.warp_maxfun
    )
    return out, converged
