"""Synthetic data generators and the estimation/classification metric suite.

Both studies draw their subjects through one loop: smooth group-mean
curves are projected onto the cubic B-spline space, and each subject adds
a Matern Gaussian-process wiggle and is observed through a random
monotone time warp with added white noise.  A study supplies only its
grid, its mean functions and its outcome step, which maps uniforms to the
scalar covariate (a group-specific uniform) and the label.  Every subject
draws from its own counter-based random substream; the curves are then
computed a block of subjects at a time by stacked products that give each
subject the bits it has alone.  So output is bit-reproducible for a given
seed no matter how the work is scheduled or blocked.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .basis import BSplineBasis, hyman_interp, quad_weights
from .classify import _sigmoid
from .codec import encode
from .curves import CurvePanel, ScalarRecord, SubjectCurve
from .errors import DataError
from .gp import MaternParams, chol_lower, matern_cov
from .rng import substream

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configurations.

_O_GROUP0 = ((10.0, 4.0), (4.0, 8.0))
_O_GROUP1 = ((10.0, 8.0), (8.0, 15.0))
_ANCHORS = (0.0, 0.33, 0.67, 1.0)
_CURVE_COV = (100.0, 0.3, 3.0)
# Subjects whose curves are computed in one stacked pass; the draws are
# made subject by subject, so the size bounds memory and moves no byte.
_BLOCK = 64


def _check_draw(cfg) -> None:
    """Checks both studies share: grid size, noise scales, warp covariances."""
    if cfg.n_obs < 4:
        raise DataError("need at least 4 observation points")
    for name in ("sigma_r", "sigma_w", "sigma"):
        if not getattr(cfg, name) >= 0:
            raise DataError(f"{name} must be >= 0")
    for name in ("o_group0", "o_group1"):
        arr = np.asarray(getattr(cfg, name), dtype=float)
        if arr.shape != (2, 2) or not np.allclose(arr, arr.T):
            raise DataError(f"{name} must be symmetric 2x2")
        if np.linalg.eigvalsh(arr)[0] <= 0:
            raise DataError(f"{name} must be positive definite")


@dataclass(frozen=True)
class Study1Config:
    """Estimation study: Bernoulli outcomes from warped bivariate curves."""

    n_subjects: int = 80
    n_obs: int = 100
    sigma_r: float = 0.02
    sigma_w: float = 0.005
    sigma: float = 0.02
    rho_r: tuple = _CURVE_COV
    o_group0: tuple = _O_GROUP0
    o_group1: tuple = _O_GROUP1
    b0: float = 0.1
    b1: float = -0.5
    anchors: tuple = _ANCHORS
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 4:
            raise DataError("need at least 4 subjects")
        _check_draw(self)


_SCENARIOS = {
    "A": {"delta1": 0.18, "delta2": 0.7, "sigma": 0.03, "sigma_r": 0.03, "sigma_w": 0.0075},
    "B": {"delta1": 0.15, "delta2": 0.5, "sigma": 0.02, "sigma_r": 0.02, "sigma_w": 0.005},
}


@dataclass(frozen=True)
class Study2Config:
    """Classification study: two fixed groups of 60, deterministic split.

    The scenario fields left as None are filled with the scenario's
    defaults when the config is built, and every scenario field is then a
    float, checked there.  Each can be overridden on its own (e.g. delta1
    = delta2 = 0 makes the groups indistinguishable).  Since the values are
    filled in, ``dataclasses.replace`` keeps them: a replaced scenario
    keeps the old scenario's values.
    """

    scenario: str = "A"
    seed: int = 0
    n_subjects: int = 120
    n_obs: int = 100
    delta1: float | None = None
    delta2: float | None = None
    sigma: float | None = None
    sigma_r: float | None = None
    sigma_w: float | None = None
    rho_r: tuple = _CURVE_COV
    o_group0: tuple = _O_GROUP0
    o_group1: tuple = _O_GROUP1
    anchors: tuple = _ANCHORS

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise DataError(f"scenario must be A or B, got {self.scenario!r}")
        for name, default in _SCENARIOS[self.scenario].items():
            given = getattr(self, name)
            object.__setattr__(self, name, float(default if given is None else given))
        if self.n_subjects < 4 or self.n_subjects % 2:
            raise DataError("n_subjects must be even and >= 4")
        _check_draw(self)


@dataclass(frozen=True)
class SimTruth:
    """Generator-side quantities kept for scoring a fit against the truth."""

    groups: np.ndarray  # generating group per subject, in subject-id order
    labels: np.ndarray  # outcome used for supervision
    v: np.ndarray
    anchors: np.ndarray
    warp_offsets: dict[str, np.ndarray]  # subject_id -> full anchor ordinate offsets
    b0: float
    b1: float
    eta: np.ndarray | None = None
    train_mask: np.ndarray | None = None

    def warp_on_grid(self, subject_id: str, grid) -> np.ndarray:
        """True warp g(t) for one subject evaluated on a grid."""
        ords = self.anchors + self.warp_offsets[subject_id]
        return hyman_interp(self.anchors, ords)(grid)


def study1_beta(coordinate: int, times) -> np.ndarray:
    """True functional coefficients of the outcome model."""
    t = np.asarray(times, dtype=float)
    if coordinate == 0:
        return np.cos(2.0 * np.pi * t)
    if coordinate == 1:
        return 2.0 * (t - 1.0) ** 2
    raise DataError(f"coordinate must be 0 or 1, got {coordinate}")


def _study1_mean(times, group):
    t = np.asarray(times, dtype=float)
    if group == 0:
        m1 = 0.6 * stats.norm.pdf(t, 0.0, 1.0) + 0.4 * stats.beta.pdf(t, 2.0, 3.0)
        m2 = np.sin(2.0 * np.pi * t + 0.5)
    else:
        m1 = 0.5 * stats.norm.pdf(t, 0.5, 0.5) + 0.5 * stats.beta.pdf(t, 3.0, 4.0)
        m2 = np.sin(2.0 * np.pi * t ** 1.2 + 0.5)
    return np.column_stack([m1, m2])


def _study2_mean(times, group, delta1):
    t = np.asarray(times, dtype=float)
    if group == 0:
        m1 = np.exp(np.cos(2.0 * np.pi * t))
        m2 = np.exp(np.sin(2.0 * np.pi * t))
    else:
        m1 = np.exp(np.cos(2.0 * np.pi * t ** 1.1 - delta1))
        m2 = np.exp(np.sin(2.0 * np.pi * t ** 1.2 + delta1))
    return np.column_stack([m1, m2])


class _Generator:
    """Shared machinery: spline projection, GP factor, and a block's curves."""

    # dense grid for projecting the smooth group means; fixed so the truth
    # coefficients do not depend on the observation frequency
    _MEAN_GRID = np.linspace(0.0, 1.0, 401)

    def __init__(self, grid, cfg, mean_fn):
        self.cfg = cfg
        self.grid = np.asarray(grid, dtype=float)
        self.basis = BSplineBasis.uniform(8, 4)
        self.design = self.basis.design(self.grid)
        self.project = np.linalg.pinv(self.design)
        self.anchors = np.asarray(cfg.anchors, dtype=float)
        self.chol_o = np.stack([chol_lower(cfg.o_group0), chol_lower(cfg.o_group1)])
        self.chol_m = None
        if cfg.sigma_r > 0:
            self.chol_m = chol_lower(matern_cov(MaternParams(*cfg.rho_r), self.grid))
        self.mean_coefs = self._mean_coefs(mean_fn)

    def _mean_coefs(self, mean_fn) -> np.ndarray:
        """Project each group's mean onto the spline space, pinning endpoints.

        Least squares on a dense grid subject to exact interpolation at
        t = 0 and t = 1; since warps fix both endpoints, the generated
        truth then matches the analytic mean exactly at the boundary.
        Returns (2, q, 2): group, coefficient, coordinate.
        """
        ends = np.array([0.0, 1.0])
        a_mat, e_mat = self.basis.design(self._MEAN_GRID), self.basis.design(ends)
        q = self.basis.size
        kkt = np.block([[a_mat.T @ a_mat, e_mat.T], [e_mat, np.zeros((2, 2))]])
        out = np.empty((2, q, 2))
        for g in (0, 1):
            values, end_values = mean_fn(self._MEAN_GRID, g), mean_fn(ends, g)
            for a in (0, 1):
                rhs = np.concatenate([a_mat.T @ values[:, a], end_values[:, a]])
                out[g, :, a] = np.linalg.solve(kkt, rhs)[:q]
        return out

    def block_curves(self, groups, normals):
        """The curves of a block of k subjects from their standard normals.

        Row i of ``normals`` holds subject i's draws z1, z2 (n each), gamma
        (2), eps1 and eps2 (n each).  Each product is a stack of the
        per-subject products, so every curve has the bits it has when
        computed alone; one gemm over the block's 2k wiggle draws would
        not.  Returns the observed and the smooth unwarped values (k, n, 2),
        the warp ordinate offsets (k, m) and which warps are the identity.
        """
        cfg = self.cfg
        k, n = len(groups), len(self.grid)
        coef = self.mean_coefs[groups]
        if self.chol_m is not None:
            z = normals[:, : 2 * n].reshape(k, 2, n)
            wiggle = (self.chol_m @ z[..., None])[..., 0].swapaxes(1, 2)
            coef = coef + self.project @ (cfg.sigma_r * np.ascontiguousarray(wiggle))

        gamma = normals[:, 2 * n : 2 * n + 2, None]
        offsets = np.zeros((k, len(self.anchors)))
        offsets[:, 1:-1] = cfg.sigma_w * (self.chol_o[groups] @ gamma)[..., 0]
        identity = (np.diff(self.anchors + offsets, axis=1) <= 0).any(axis=1)
        offsets[identity] = 0.0
        warped_t = hyman_interp(self.anchors, self.anchors + offsets)(self.grid)

        eps = normals[:, 2 * n + 2 :].reshape(k, 2, n).swapaxes(1, 2)
        smooth = self.design @ coef
        observed = self.basis.design(np.clip(warped_t, 0.0, 1.0)) @ coef + cfg.sigma * eps
        return observed, smooth, offsets, identity


def _simulate(study, cfg, grid, mean_fn, n_uniform, outcome, **truth) -> tuple[CurvePanel, SimTruth]:
    """Draw every subject of a study: the loop both generators share.

    The first ``n_subjects // 2`` subjects are group 0, the rest group 1,
    each with the mean ``mean_fn(t, group)``.  Subject i draws from the
    substream ``study{study}/subject/{i}`` the normals of its curve, then
    ``n_uniform`` uniforms.  The curves are computed ``_BLOCK`` subjects at
    a time, and ``outcome(groups, uniforms, smooth)`` maps a block's arrays
    to its covariates, labels and linear predictors (None in a study
    without one).  ``truth`` holds the study's own ``SimTruth`` fields.
    """
    gen = _Generator(grid, cfg, mean_fn)
    n_total, n = cfg.n_subjects, len(gen.grid)
    groups = (np.arange(n_total) >= n_total // 2).astype(int)
    observed, parts = [], []
    for start in range(0, n_total, _BLOCK):
        block = groups[start : start + _BLOCK]
        normals, uniforms = np.empty((len(block), 4 * n + 2)), np.empty((len(block), n_uniform))
        for row in range(len(block)):
            rng = substream(cfg.seed, f"study{study}/subject/{start + row}")
            rng.standard_normal(out=normals[row])
            rng.random(out=uniforms[row])
        values, smooth, offsets, identity = gen.block_curves(block, normals)
        observed.extend(values)
        parts.append((*outcome(block, uniforms, smooth), offsets, identity))
    v, labels, etas, offsets, identity = zip(*parts)
    v, labels, offsets, identity = (np.concatenate(a) for a in (v, labels, offsets, identity))
    if identity.any():
        _log.warning("%d of %d subjects drew warp ordinates that do not increase; "
                     "their warps are the identity", identity.sum(), n_total)
    sids = [f"s{i:04d}" for i in range(n_total)]
    curves = [SubjectCurve(sid, gen.grid, x) for sid, x in zip(sids, observed)]
    scalars = [ScalarRecord(sid, v[i : i + 1], labels[i]) for i, sid in enumerate(sids)]
    eta = None if etas[0] is None else np.concatenate(etas)
    return CurvePanel(curves, scalars), SimTruth(
        groups=groups, labels=labels, v=v, anchors=gen.anchors,
        warp_offsets=dict(zip(sids, offsets)), eta=eta, **truth,
    )


def simulate_study1(cfg: Study1Config) -> tuple[CurvePanel, SimTruth]:
    """Warped curves with Bernoulli outcomes driven by the aligned curves.

    Subjects split evenly between the two generating groups (first half
    group 0).  The linear predictor averages the noiseless unwarped
    spline curves against the true functional coefficients over the grid.
    """
    grid = np.linspace(0.0, 1.0, cfg.n_obs)
    beta_grid = np.column_stack([study1_beta(0, grid), study1_beta(1, grid)])

    def outcome(groups, u, smooth):
        v = np.where(groups == 0, 1.0, 0.5) + u[:, 0]
        eta = cfg.b0 + v * cfg.b1 + np.mean(np.sum(smooth * beta_grid, axis=2), axis=1)
        return v, (u[:, 1] < _sigmoid(eta)).astype(int), eta

    return _simulate(1, cfg, grid, _study1_mean, 2, outcome, b0=cfg.b0, b1=cfg.b1)


def simulate_study2(cfg: Study2Config) -> tuple[CurvePanel, SimTruth]:
    """Two-population curves for classification, with a fixed half split.

    Labels equal the generating group (60 per group); the training mask
    marks the first half of each group in generation order.
    """
    j = np.arange(1, cfg.n_obs + 1)
    grid = (j + 1.0) / (cfg.n_obs + 2.0)

    def outcome(groups, u, smooth):
        return np.where(groups == 0, 1.0, 1.0 - cfg.delta2) + u[:, 0], groups, None

    half = cfg.n_subjects // 2
    within_group = np.arange(cfg.n_subjects) % half
    return _simulate(
        2, cfg, grid, lambda t, g: _study2_mean(t, g, cfg.delta1), 1, outcome,
        b0=0.0, b1=0.0, train_mask=within_group < half // 2,
    )


# ---------------------------------------------------------------------------
# Metrics.


def _as_labels(truth, pred):
    a = np.asarray(truth).ravel()
    b = np.asarray(pred).ravel()
    if len(a) != len(b):
        raise DataError(f"label vectors differ in length: {len(a)} vs {len(b)}")
    return a, b


def metric_ca(truth, pred) -> float:
    """Classification accuracy: fraction of exact label matches."""
    a, b = _as_labels(truth, pred)
    if len(a) == 0:
        raise DataError("empty label vectors")
    return float(np.mean(a == b))


def _pair_counts(truth, pred):
    """Pairs together in both partitions, in the first, in the second, and all pairs."""
    a, b = _as_labels(truth, pred)
    n = len(a)
    if n < 2:
        raise DataError("need at least 2 items for pair-counting indices")
    cats_a = {c: i for i, c in enumerate(dict.fromkeys(a.tolist()))}
    cats_b = {c: i for i, c in enumerate(dict.fromkeys(b.tolist()))}
    table = np.zeros((len(cats_a), len(cats_b)), dtype=np.int64)
    for x, y in zip(a.tolist(), b.tolist()):
        table[cats_a[x], cats_b[y]] += 1
    return _comb2(table), _comb2(table.sum(axis=1)), _comb2(table.sum(axis=0)), n * (n - 1) / 2.0


def _comb2(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return float(np.sum(counts * (counts - 1) // 2))


def metric_rand(truth, pred) -> float:
    """Rand index: pair agreement between the two partitions."""
    same_both, same_a, same_b, total = _pair_counts(truth, pred)
    # agreements = pairs together in both + pairs apart in both
    return float((total + 2.0 * same_both - same_a - same_b) / total)


def metric_ari(truth, pred) -> float:
    """Adjusted Rand index by the standard contingency-table formula."""
    same_both, same_a, same_b, total = _pair_counts(truth, pred)
    expected = same_a * same_b / total
    denom = 0.5 * (same_a + same_b) - expected
    if denom == 0.0:
        return 1.0 if metric_rand(truth, pred) == 1.0 else 0.0
    return float((same_both - expected) / denom)


def metric_bias_ssd(estimates, truth) -> tuple[np.ndarray, np.ndarray]:
    """Absolute bias and sample SD of scalar estimates across replicates.

    ``estimates`` is (n_replicates, n_coefficients); the bias is reported
    as a magnitude.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    tr = np.atleast_1d(np.asarray(truth, dtype=float))
    if est.shape[0] < 2:
        raise DataError("need at least 2 replicates for bias/SSD")
    if est.shape[1] != len(tr):
        raise DataError("estimate columns must match the number of coefficients")
    bias = np.abs(est.mean(axis=0) - tr)
    ssd = est.std(axis=0, ddof=1)
    return bias, ssd


def metric_isbias_imse(curve_estimates, truth_on_grid, grid) -> tuple[float, float]:
    """Integrated squared bias and integrated MSE of a functional estimate.

    Expectations are replicate means; integrals use trapezoid quadrature
    on the common grid.  IMSE dominates ISBIAS by construction.
    """
    est = np.atleast_2d(np.asarray(curve_estimates, dtype=float))
    tr = np.asarray(truth_on_grid, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if est.shape[1] != len(grid) or len(tr) != len(grid):
        raise DataError("curve estimates, truth, and grid must share one grid")
    w = quad_weights(grid)
    isbias = float(w @ (est.mean(axis=0) - tr) ** 2)
    imse = float(np.mean((est - tr) ** 2 @ w))
    return isbias, imse


def warp_imse(estimated, true, grid) -> float:
    """Mean over subjects of the integrated squared warp error."""
    if set(estimated.keys()) != set(true.keys()):
        raise DataError("estimated and true warps cover different subjects")
    if not estimated:
        raise DataError("no subjects to score")
    grid = np.asarray(grid, dtype=float)
    w = quad_weights(grid)
    total = 0.0
    for sid in sorted(estimated.keys()):
        ghat = np.asarray(estimated[sid], dtype=float)
        gtrue = np.asarray(true[sid], dtype=float)
        if len(ghat) != len(grid) or len(gtrue) != len(grid):
            raise DataError(f"warp values for {sid} do not match the grid")
        total += float(w @ (ghat - gtrue) ** 2)
    return total / len(estimated)


@dataclass
class MetricsReport:
    """Bundle of study metrics; any block may be absent for a given run."""

    ca: float | None = None
    ri: float | None = None
    ari: float | None = None
    bias: np.ndarray | None = None
    ssd: np.ndarray | None = None
    signed_bias: np.ndarray | None = None
    isbias: dict[int, float] = field(default_factory=dict)  # coordinate -> value
    imse: dict[int, float] = field(default_factory=dict)
    warp_imse: float | None = None

    def __post_init__(self):
        for name in ("ca", "ri"):
            val = getattr(self, name)
            if val is not None and not (0.0 <= val <= 1.0):
                raise DataError(f"{name} must lie in [0, 1], got {val}")
        if self.ari is not None and not (-1.0 <= self.ari <= 1.0 + 1e-12):
            raise DataError(f"ari must lie in [-1, 1], got {self.ari}")

    def to_dict(self) -> dict:
        return encode(self)
