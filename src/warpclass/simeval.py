"""Synthetic data generators and the estimation/classification metric suite.

Both studies draw their subjects through one loop: smooth group-mean
curves are projected onto the cubic B-spline space, and each subject adds
a Matern Gaussian-process wiggle and is observed through a random
monotone time warp with added white noise.  A study supplies only its
grid, its mean functions and its outcome step, which draws the scalar
covariate from a group-specific uniform and the label.  Every subject
draws from its own counter-based random substream, so output is
bit-reproducible for a given seed no matter how the work is scheduled.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Configurations.

_O_GROUP0 = ((10.0, 4.0), (4.0, 8.0))
_O_GROUP1 = ((10.0, 8.0), (8.0, 15.0))
_ANCHORS = (0.0, 0.33, 0.67, 1.0)
_CURVE_COV = (100.0, 0.3, 3.0)


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
    """Shared machinery: spline projection, GP factor, warp draw, noise."""

    # dense grid for projecting the smooth group means; fixed so the truth
    # coefficients do not depend on the observation frequency
    _MEAN_GRID = np.linspace(0.0, 1.0, 401)

    def __init__(self, grid, cfg):
        self.cfg = cfg
        self.grid = np.asarray(grid, dtype=float)
        self.basis = BSplineBasis.uniform(8, 4)
        self.design = self.basis.design(self.grid)
        self.project = np.linalg.pinv(self.design)
        self.anchors = np.asarray(cfg.anchors, dtype=float)
        self.chol_o = {0: chol_lower(cfg.o_group0), 1: chol_lower(cfg.o_group1)}
        self.chol_m = None
        if cfg.sigma_r > 0:
            m_cov = matern_cov(MaternParams(*cfg.rho_r), self.grid)
            self.chol_m = chol_lower(m_cov)

    def mean_coef(self, mean_fn) -> np.ndarray:
        """Project a mean function onto the spline space, pinning endpoints.

        Least squares on a dense grid subject to exact interpolation at
        t = 0 and t = 1; since warps fix both endpoints, the generated
        truth then matches the analytic mean exactly at the boundary.
        """
        tg = self._MEAN_GRID
        a_mat = self.basis.design(tg)
        e_mat = self.basis.design(np.array([0.0, 1.0]))
        q = self.basis.size
        out = np.empty((q, 2))
        values = mean_fn(tg)
        ends = mean_fn(np.array([0.0, 1.0]))
        gram = a_mat.T @ a_mat
        kkt = np.block([[gram, e_mat.T], [e_mat, np.zeros((2, 2))]])
        for a in (0, 1):
            rhs = np.concatenate([a_mat.T @ values[:, a], ends[:, a]])
            out[:, a] = np.linalg.solve(kkt, rhs)[:q]
        return out

    def subject_curve(self, rng, group, mean_coef):
        """One subject: fixed draw order z1, z2, gamma, eps1, eps2.

        Returns (observed values (n, 2), smooth unwarped values (n, 2),
        full warp ordinate offsets).
        """
        cfg = self.cfg
        n = len(self.grid)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        gamma = rng.standard_normal(2)
        eps1 = rng.standard_normal(n)
        eps2 = rng.standard_normal(n)

        coef = mean_coef.copy()
        if self.chol_m is not None:
            wiggle = cfg.sigma_r * np.column_stack([self.chol_m @ z1, self.chol_m @ z2])
            coef = coef + self.project @ wiggle

        offsets = np.zeros(len(self.anchors))
        offsets[1:-1] = cfg.sigma_w * (self.chol_o[group] @ gamma)
        ords = self.anchors + offsets
        if np.any(np.diff(ords) <= 0):
            # Draws this extreme do not occur at the study scales; guard anyway.
            offsets[:] = 0.0
            ords = self.anchors.copy()
        warped_t = hyman_interp(self.anchors, ords)(self.grid)

        smooth = self.design @ coef
        observed = self.basis.design(np.clip(warped_t, 0.0, 1.0)) @ coef
        observed = observed + cfg.sigma * np.column_stack([eps1, eps2])
        return observed, smooth, offsets


def _simulate(study: int, cfg, grid, mean_fn, outcome, **truth) -> tuple[CurvePanel, SimTruth]:
    """Draw every subject of a study: the loop both generators share.

    The first ``n_subjects // 2`` subjects are group 0, the rest group 1,
    each with the mean ``mean_fn(t, group)``.  Subject i draws from the
    substream ``study{study}/subject/{i}``: its curve, then
    ``outcome(rng, group, smooth)``, which returns its covariate, its label
    and its linear predictor (None in a study without one).  ``truth``
    holds the study's own ``SimTruth`` fields.
    """
    gen = _Generator(grid, cfg)
    mean_coefs = [gen.mean_coef(lambda t, g=g: mean_fn(t, g)) for g in (0, 1)]
    curves, scalars, draws, warp_offsets = [], [], [], {}
    for i in range(cfg.n_subjects):
        sid = f"s{i:04d}"
        group = int(i >= cfg.n_subjects // 2)
        rng = substream(cfg.seed, f"study{study}/subject/{i}")
        observed, smooth, warp_offsets[sid] = gen.subject_curve(rng, group, mean_coefs[group])
        v, label, eta = outcome(rng, group, smooth)
        curves.append(SubjectCurve(sid, gen.grid, observed))
        scalars.append(ScalarRecord(sid, np.array([v]), label))
        draws.append((group, label, v, eta))
    groups, labels, v, etas = zip(*draws)
    return CurvePanel(curves, scalars), SimTruth(
        groups=np.array(groups),
        labels=np.array(labels),
        v=np.array(v),
        anchors=gen.anchors,
        warp_offsets=warp_offsets,
        eta=None if etas[0] is None else np.array(etas),
        **truth,
    )


def simulate_study1(cfg: Study1Config) -> tuple[CurvePanel, SimTruth]:
    """Warped curves with Bernoulli outcomes driven by the aligned curves.

    Subjects split evenly between the two generating groups (first half
    group 0).  The linear predictor averages the noiseless unwarped
    spline curves against the true functional coefficients over the grid.
    """
    grid = np.linspace(0.0, 1.0, cfg.n_obs)
    beta_grid = np.column_stack([study1_beta(0, grid), study1_beta(1, grid)])

    def outcome(rng, group, smooth):
        u_v = rng.random()
        u_y = rng.random()
        v = (1.0 + u_v) if group == 0 else (0.5 + u_v)
        eta = cfg.b0 + v * cfg.b1 + float(np.mean(np.sum(smooth * beta_grid, axis=1)))
        return v, int(u_y < _sigmoid(np.array([eta]))[0]), eta

    return _simulate(1, cfg, grid, _study1_mean, outcome, b0=cfg.b0, b1=cfg.b1)


def simulate_study2(cfg: Study2Config) -> tuple[CurvePanel, SimTruth]:
    """Two-population curves for classification, with a fixed half split.

    Labels equal the generating group (60 per group); the training mask
    marks the first half of each group in generation order.
    """
    j = np.arange(1, cfg.n_obs + 1)
    grid = (j + 1.0) / (cfg.n_obs + 2.0)

    def outcome(rng, group, smooth):
        u_v = rng.random()
        v = (1.0 + u_v) if group == 0 else (1.0 - cfg.delta2 + u_v)
        return v, group, None

    half = cfg.n_subjects // 2
    within_group = np.arange(cfg.n_subjects) % half
    return _simulate(
        2, cfg, grid, lambda t, g: _study2_mean(t, g, cfg.delta1), outcome,
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
    a, b = _as_labels(truth, pred)
    n = len(a)
    if n < 2:
        raise DataError("need at least 2 items for pair-counting indices")
    cats_a = {c: i for i, c in enumerate(dict.fromkeys(a.tolist()))}
    cats_b = {c: i for i, c in enumerate(dict.fromkeys(b.tolist()))}
    table = np.zeros((len(cats_a), len(cats_b)), dtype=np.int64)
    for x, y in zip(a.tolist(), b.tolist()):
        table[cats_a[x], cats_b[y]] += 1
    return table, n


def _comb2(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return float(np.sum(counts * (counts - 1) // 2))


def metric_rand(truth, pred) -> float:
    """Rand index: pair agreement between the two partitions."""
    table, n = _pair_counts(truth, pred)
    total = n * (n - 1) / 2.0
    same_both = _comb2(table)
    same_a = _comb2(table.sum(axis=1))
    same_b = _comb2(table.sum(axis=0))
    # agreements = pairs together in both + pairs apart in both
    return float((total + 2.0 * same_both - same_a - same_b) / total)


def metric_ari(truth, pred) -> float:
    """Adjusted Rand index by the standard contingency-table formula."""
    table, n = _pair_counts(truth, pred)
    total = n * (n - 1) / 2.0
    same_both = _comb2(table)
    same_a = _comb2(table.sum(axis=1))
    same_b = _comb2(table.sum(axis=0))
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
