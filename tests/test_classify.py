"""Second level: FPCA, penalized logistic GLMM, prediction."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpclass.classify as classify
from warpclass import registration
from warpclass.basis import TruncatedPowerBasis, quad_weights
from warpclass.classify import (
    ClassifierModel,
    FpcaModel,
    PredictionResult,
    classify_prob,
    compute_J,
    cross_validate_K,
    fit_classifier,
    fit_glmm,
    fpca_decompose,
    functional_coefficient,
    predict_new,
    predict_panel,
    project_scores,
    scalar_only_prob,
    smooth_covariance,
)
from warpclass.curves import CurvePanel, SubjectCurve
from warpclass.errors import DataError, NumericalError
from warpclass.gp import CholFactor, MaternParams, matern_cov
from warpclass.registration import (
    RegistrationConfig,
    RegistrationFit,
    align_curves,
    align_single,
    fit_registration,
    fit_subject_warp,
)
from warpclass.simeval import Study2Config, metric_ca, simulate_study2


def _orthonormal_family(grid, k):
    """Quadrature-orthonormal functions via a smooth auxiliary covariance."""
    cov = matern_cov(MaternParams(1.0, 0.2, 2.5), grid)
    return fpca_decompose(cov, grid, k).eigenfunctions


# ---------------------------------------------------------------------------
# Covariance smoothing and FPCA.


def test_smooth_covariance_window_one_is_raw_covariance():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((7, 20))
    centered = vals - vals.mean(axis=0)
    raw = centered.T @ centered / 7
    got = smooth_covariance(vals, window=1)
    assert np.max(np.abs(got - raw)) < 1e-12


def test_smooth_covariance_preserves_flat_diagonals():
    # per-subject constant curves give a constant covariance matrix, which
    # diagonal averaging must leave untouched
    rng = np.random.default_rng(7)
    vals = np.outer(rng.standard_normal(9), np.ones(15))
    raw = smooth_covariance(vals, window=1)
    smoothed = smooth_covariance(vals, window=5)
    assert np.max(np.abs(smoothed - raw)) < 1e-12


def _loop_smoothed_covariance(vals, window):
    """The diagonal smoother as one loop over the diagonals, the reference."""
    centered = vals - vals.mean(axis=0)
    cov = np.einsum("ki,kj->ij", centered, centered) / vals.shape[0]
    out = np.empty_like(cov)
    g = cov.shape[0]
    half = window // 2
    for off in range(-(g - 1), g):
        diag = np.diagonal(cov, offset=off)
        m = len(diag)
        csum = np.concatenate([[0.0], np.cumsum(diag)])
        idx = np.arange(m)
        hi = np.minimum(idx + half + 1, m)
        lo = np.maximum(idx - half, 0)
        sm = (csum[hi] - csum[lo]) / (hi - lo)
        if off >= 0:
            out[idx, idx + off] = sm
        else:
            out[idx - off, idx] = sm
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("window", [1, 3, 11, 45])
def test_smooth_covariance_equals_the_diagonal_loop(window):
    # 45 is wider than the 21-point grid: every diagonal is averaged whole
    vals = np.random.default_rng(11).standard_normal((9, 21))
    assert np.array_equal(smooth_covariance(vals, window), _loop_smoothed_covariance(vals, window))


def test_smooth_covariance_validates_input():
    with pytest.raises(DataError, match="window"):
        smooth_covariance(np.zeros((5, 8)), window=4)
    with pytest.raises(DataError, match="at least 2"):
        smooth_covariance(np.zeros((1, 8)))


def test_fpca_recovers_a_rank_one_covariance():
    grid = np.linspace(0, 1, 51)
    w = quad_weights(grid)
    f = np.sin(2 * np.pi * grid) + 0.3
    phi = f / np.sqrt(w @ f**2)
    lam = 2.7
    cov = lam * np.outer(phi, phi)
    out = fpca_decompose(cov, grid, k_x=3)
    assert abs(out.eigenvalues[0] - lam) < 1e-6
    assert np.max(np.abs(out.eigenfunctions[:, 0] - phi)) < 1e-6
    assert np.all(out.eigenvalues[1:] < 1e-8)


def test_fpca_eigenfunctions_are_quadrature_orthonormal():
    grid = np.linspace(0, 1, 41)
    cov = matern_cov(MaternParams(1.5, 0.15, 1.5), grid)
    out = fpca_decompose(cov, grid, k_x=6)
    w = quad_weights(grid)
    gram = out.eigenfunctions.T @ (w[:, None] * out.eigenfunctions)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-6
    assert np.all(np.diff(out.eigenvalues) <= 1e-12)
    assert np.all(out.eigenvalues >= 0)


def test_fpca_sign_convention_is_reproducible():
    grid = np.linspace(0, 1, 31)
    w = quad_weights(grid)
    f = np.cos(np.pi * grid) + 0.2
    phi = f / np.sqrt(w @ f**2)
    a = fpca_decompose(np.outer(phi, phi), grid, k_x=1)
    b = fpca_decompose(np.outer(-phi, -phi), grid, k_x=1)
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
    assert w @ a.eigenfunctions[:, 0] >= 0


def test_a_curves_scores_do_not_depend_on_its_stack():
    # a BLAS product blocks the rows of a stack, so a row's last bits would
    # depend on the rows around it
    grid = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(31)
    fpca = fpca_decompose(matern_cov(MaternParams(1.0, 0.2, 2.5), grid), grid, 18,
                          mean=rng.standard_normal(101))
    values = rng.standard_normal((300, 101))
    stacked = project_scores(values, fpca)
    for i in range(len(values)):
        assert project_scores(values[i : i + 1], fpca).tobytes() == stacked[i].tobytes(), i
    for rows in (rng.permutation(300)[:60], [7], [7, 7, 3]):
        assert project_scores(values[rows], fpca).tobytes() == stacked[rows].tobytes()


def test_a_subjects_probability_does_not_depend_on_its_rows():
    # the linear predictor is summed row by row on the grid too
    rng = np.random.default_rng(37)
    model = _model(
        rng.standard_normal(3), rng.standard_normal((2, 10)), rng.standard_normal((2, 18, 10)),
        scalar_b=rng.standard_normal(4),
    )
    aligned, v = rng.standard_normal((300, 41, 2)), rng.standard_normal((300, 3))
    pi, start = classify_prob(model, aligned, v), scalar_only_prob(model, v)
    assert 0.05 < np.mean(pi >= 0.5) < 0.95  # probabilities of both labels
    for i in range(300):
        alone = classify_prob(model, aligned[i : i + 1], v[i : i + 1])
        assert alone.tobytes() == pi[i : i + 1].tobytes()
        assert scalar_only_prob(model, v[i : i + 1]) == start[i]
    for rows in (rng.permutation(300)[:40], [7, 7, 3], np.arange(300)[::-1]):
        assert classify_prob(model, aligned[rows], v[rows]).tobytes() == pi[rows].tobytes()


def test_fpca_validates_input():
    grid = np.linspace(0, 1, 10)
    with pytest.raises(DataError, match="square"):
        fpca_decompose(np.zeros((10, 9)), grid, 2)
    bad = np.eye(10)
    bad[0, 1] = 0.5
    with pytest.raises(DataError, match="symmetric"):
        fpca_decompose(bad, grid, 2)
    with pytest.raises(DataError, match="k_x"):
        fpca_decompose(np.eye(10), grid, 11)


def test_project_scores_recovers_coordinates():
    grid = np.linspace(0, 1, 41)
    funcs = _orthonormal_family(grid, 4)
    mean = np.exp(grid)
    fpca = FpcaModel(grid=grid, mean=mean, eigenfunctions=funcs, eigenvalues=np.ones(4))
    rng = np.random.default_rng(11)
    c = rng.standard_normal((3, 4))
    curves = mean + c @ funcs.T
    got = project_scores(curves, fpca)
    assert np.max(np.abs(got - c)) < 1e-8
    # a panel only: one curve is a panel of one
    assert project_scores(curves[:1], fpca).tobytes() == got[:1].tobytes()
    with pytest.raises(DataError, match=r"values has shape \(41,\), expected \(N, 41\)"):
        project_scores(curves[0], fpca)
    with pytest.raises(DataError, match=r"values has shape \(3, 40\), expected \(N, 41\)"):
        project_scores(curves[:, :-1], fpca)


def test_compute_J_matches_manual_quadrature():
    grid = np.linspace(0, 1, 37)
    funcs = _orthonormal_family(grid, 3)
    fpca = FpcaModel(
        grid=grid, mean=np.zeros(37), eigenfunctions=funcs, eigenvalues=np.ones(3)
    )
    tp = TruncatedPowerBasis.from_quantiles(grid, 5)
    got = compute_J(fpca, tp)
    cols = tp.design(grid)
    w = quad_weights(grid)
    want = np.array(
        [[float(np.sum(w * funcs[:, l] * cols[:, m])) for m in range(5)] for l in range(3)]
    )
    assert got.shape == (3, 5)
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# Penalized logistic fits.


def _firth_newton(design, y, iters=200):
    """Firth's (1993) modified-score iteration by full steps, as Heinze &
    Schemper (2002) give it: beta += I^-1 X'(y - p + h (1/2 - p)), with the
    hat values h from the explicit inverse.  Independent of the
    implementation."""
    beta = np.zeros(design.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        info = (design.T * (p * (1 - p))) @ design
        hat = p * (1 - p) * np.einsum("ij,jk,ik->i", design, np.linalg.inv(info), design)
        step = np.linalg.solve(info, design.T @ (y - p + hat * (0.5 - p)))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    return beta


def _logistic_data(seed=13, n=40):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 2))
    eta = 0.3 - 0.8 * v[:, 0] + 0.5 * v[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    design = np.hstack([np.ones((n, 1)), v])
    return design, y


def test_unpenalized_fit_matches_newton_oracle():
    design, y = _logistic_data()
    model = fit_glmm(design, None, y)
    want = _firth_newton(design, y)
    got = np.concatenate([[model.b0], model.b1])
    assert np.max(np.abs(got - want)) < 1e-6
    assert model.converged and model.n_passes == len(model.deviance_trace) == 1
    assert model.sigma_e == 0.0


def test_null_model_intercept_is_the_logit_of_the_class_fraction():
    # Firth adds half a subject to each class: logit(3.5 / 11)
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
    model = fit_glmm(np.ones((10, 1)), None, y)
    assert abs(model.b0 - np.log(3.5 / 7.5)) < 1e-6
    assert model.b1.size == 0


def test_separable_scalar_direction_grows_with_zero_functional_scores():
    # labels perfectly aligned with a +-1 covariate, 10 and 10 subjects: the
    # maximum-likelihood slope is infinite, Firth's adds half a subject to
    # cell of the 2 x 2 table: b0 + b1 = log(10.5 / 0.5) = -(b0 - b1), b1 = log 21
    n = 20
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = (v > 0).astype(float)
    scalar = np.column_stack([np.ones(n), v])
    model = fit_glmm(scalar, None, y)
    assert abs(model.b1[0] - np.log(21.0)) < 1e-6 and abs(model.b0) < 1e-10
    # an identically zero functional block makes M singular: the factor's
    # jitter keeps the fit finite, its spline coefficients at zero
    model = fit_glmm(scalar, np.zeros((n, 6)), y)
    assert 0.0 < model.b1[0] < 5.0 and abs(model.b0) < 1e-10
    assert np.all(model.e == 0.0) and model.converged


def test_penalty_off_limit_matches_newton_on_the_full_design():
    rng = np.random.default_rng(31)
    n = 60
    scalar, _ = _logistic_data(seed=31, n=n)
    func = 0.5 * rng.standard_normal((n, 4))
    eta = 0.2 + scalar[:, 1] - 0.6 * func[:, 0] + 0.4 * func[:, 3]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    design = np.hstack([scalar, func])
    zero = np.zeros(design.shape[1])
    theta, trace, _, converged = classify._irls_pass(design, y, zero, zero)
    assert converged and len(trace) < 26
    # the modified-score step converges linearly, and the decrease test stops
    # it at a step that lowers Phi by at most 1e-10 relative: ~1e-6 from the mode
    assert np.max(np.abs(theta - _firth_newton(design, y))) < 1e-5


def test_glmm_deviance_is_monotone_within_every_pass():
    rng = np.random.default_rng(17)
    design, y = _logistic_data(seed=17)
    func = 0.5 * rng.standard_normal((len(y), 8))
    model = fit_glmm(design, func, y)
    assert len(model.deviance_trace) == model.n_passes >= 9
    for trace in model.deviance_trace:
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-12


def _pen_mask(n_scalar, k_e):
    mask = np.zeros(n_scalar + 2 * k_e, dtype=bool)
    for a in (0, 1):
        mask[n_scalar + a * k_e + 2 : n_scalar + (a + 1) * k_e] = True
    return mask


def _score_and_criterion(design, labels, pen, sigmas):
    """The marginal likelihood's slope in log sigma_e^2 and V at each of
    ``sigmas`` (increasing), each mode by ``_irls_pass`` warm-started from
    the last, with M's inverse and log determinant from ``np.linalg``."""
    theta, out = np.zeros(design.shape[1]), []
    for sigma in sigmas:
        penalty = pen / sigma**2
        theta, trace, _, _ = classify._irls_pass(design, labels, penalty, theta)
        pi = 1.0 / (1.0 + np.exp(-(design @ theta)))
        m = (design.T * (pi * (1 - pi))) @ design + np.diag(penalty)
        inv = np.linalg.inv(m)
        ee = theta[pen] @ theta[pen]
        score = pen.sum() - (np.trace(inv[np.ix_(pen, pen)]) + ee) / sigma**2
        crit = trace[-1] + 2.0 * np.linalg.slogdet(m)[1] + 2.0 * pen.sum() * np.log(sigma)
        out.append((score, crit))
    return np.array(out)


def _functional_draw(seed, signal):
    """Two scalar covariates and a (40, 8) functional design; the labels
    depend on three of its penalized columns with weight ``signal``."""
    rng = np.random.default_rng(seed)
    scalar, y = _logistic_data(seed=seed, n=40)
    func = rng.standard_normal((40, 8))
    eta = 0.3 + scalar[:, 1] + signal * (2.0 * func[:, 2] - 1.5 * func[:, 3] + func[:, 6])
    if signal:
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return scalar, func, y


def test_sigma_e_is_the_best_root_of_its_marginal_likelihood_score():
    # a dense grid of log sigma_e, 15 points a decade, agrees with the
    # search's 9 signs and brentq: the returned sigma_e lies in a cell where
    # the score turns from - to +, and no such cell has a smaller V
    scalar, func, y = _functional_draw(100, 1.0)
    fit = fit_glmm(scalar, func, y)
    assert classify._SIGMA_MIN < fit.sigma_e < classify._SIGMA_MAX and fit.converged
    sigmas = np.geomspace(classify._SIGMA_MIN, classify._SIGMA_MAX, 121)
    dense = _score_and_criterion(np.hstack([scalar, func]), y, _pen_mask(3, 4), sigmas)
    score, crit = dense.T
    turns = np.flatnonzero((score[:-1] < 0.0) & (score[1:] >= 0.0))
    k = np.searchsorted(sigmas, fit.sigma_e) - 1
    assert k in turns
    assert score[0] < 0.0 < score[-1]  # neither end counts
    best = min(turns, key=lambda i: min(crit[i], crit[i + 1]))
    assert best == k
    # the returned coefficients are the mode at sigma_e: its score is ~0
    theta = np.concatenate([[fit.b0], fit.b1, fit.e.ravel()])
    design, pen = np.hstack([scalar, func]), _pen_mask(3, 4)
    pi = 1.0 / (1.0 + np.exp(-(design @ theta)))
    m = (design.T * (pi * (1 - pi))) @ design + np.diag(pen / fit.sigma_e**2)
    slope = pen.sum() - (np.trace(np.linalg.inv(m)[np.ix_(pen, pen)]) + theta[pen] @ theta[pen]) / fit.sigma_e**2
    assert abs(slope) < 1e-4


@pytest.mark.parametrize(
    "seed, signal, scale, end",
    [(203, 0.0, 1.0, "_SIGMA_MIN"), (200, 1.0, 1e-4, "_SIGMA_MAX")],
)
def test_a_score_of_one_sign_puts_sigma_e_exactly_on_the_end(seed, signal, scale, end):
    # functional columns unrelated to the labels: V rises from the lower
    # end; a strong signal on columns scaled by 1e-4 needs coefficients
    # beyond 1e3: V falls towards the upper end
    scalar, func, y = _functional_draw(seed, signal)
    fit = fit_glmm(scalar, scale * func, y)
    sigmas = np.geomspace(classify._SIGMA_MIN, classify._SIGMA_MAX, 61)
    score = _score_and_criterion(np.hstack([scalar, scale * func]), y, _pen_mask(3, 4), sigmas)[:, 0]
    if end == "_SIGMA_MIN":
        assert np.all(score > 0.0)
    else:
        assert np.all(score <= 0.0) and score[-1] < 0.0
    assert fit.sigma_e == getattr(classify, end)
    assert fit.converged and fit.n_passes == 9  # the sign reads alone


def _two_branch_sigmoid(eta):
    """The logistic function with one exponential per sign of eta."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _two_branch_prob(eta):
    """The logistic probability with one exponential per sign of eta, clipped."""
    return np.clip(_two_branch_sigmoid(eta), 1e-15, 1.0 - 1e-15)


def test_prob_equals_the_two_branch_formula_byte_for_byte():
    # _sigmoid makes one division for both signs; its bytes are the
    # two-branch form's, unclipped, on all of [-800, 800] and at the ends
    rng = np.random.default_rng(37)
    special = [0.0, -0.0, 34.5, -34.5, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    for size in (1, 7, 60, 129):
        for scale in (1e-3, 1.0, 30.0, 1e3):
            eta = np.concatenate([rng.standard_normal(size) * scale, special])
            assert classify._prob(eta).tobytes() == _two_branch_prob(eta).tobytes()
            assert classify._sigmoid(eta).tobytes() == _two_branch_sigmoid(eta).tobytes()
    assert classify._prob(2.5) == _two_branch_prob(2.5)
    eta = np.concatenate([np.linspace(-800.0, 800.0, 400_001), rng.uniform(-800.0, 800.0, 10_000)])
    assert classify._sigmoid(eta).tobytes() == _two_branch_sigmoid(eta).tobytes()
    signed_zero = classify._sigmoid(np.array([0.0, -0.0, np.inf, -np.inf]))
    assert signed_zero.tobytes() == np.array([0.5, 0.5, 1.0, 0.0]).tobytes()


def _recomputing_irls_pass(design, labels, penalty_vec, theta, max_newton=25):
    """Firth-penalized IRLS that forms eta, pi, M and M's factor afresh at
    every Newton step and for the returned factor.

    The oracle for byte-identical results of ``_irls_pass``, which carries
    the accepted trial's probabilities and factor into the next step.
    """
    prob = _two_branch_prob

    def factor_at(theta):
        pi = prob(design @ theta)
        weights = pi * (1.0 - pi)
        return pi, weights, CholFactor((design.T * weights) @ design + np.diag(penalty_vec))

    def objective(theta):
        pi, _, factor = factor_at(theta)
        dev = -2.0 * float(labels @ np.log(pi) + (1.0 - labels) @ np.log(1.0 - pi))
        return dev + float(theta @ (penalty_vec * theta)) - factor.logdet()

    current = objective(theta)
    trace = [current]
    converged = False
    for _ in range(max_newton):
        pi, weights, factor = factor_at(theta)
        hat = weights * np.sum(factor.half_solve(design.T) ** 2, axis=0)
        step = factor.solve(design.T @ (labels - pi + hat * (0.5 - pi)) - penalty_vec * theta)
        scale = 1.0
        for _ in range(30):
            cand_phi = objective(theta + scale * step)
            if cand_phi <= current + 1e-12:
                break
            scale *= 0.5
        else:
            converged = True
            break
        theta = theta + scale * step
        moved = current - cand_phi
        current = cand_phi
        trace.append(current)
        if moved <= 1e-10 * max(1.0, abs(current)):
            converged = True
            break
    return theta, trace, factor_at(theta)[2], converged


def _glmm_designs():
    """A design whose scalar covariate separates the classes, and one whose does not."""
    rng = np.random.default_rng(23)
    n = 40
    v = rng.standard_normal(n)
    y_sep = (v > 0).astype(float)
    func = 0.5 * rng.standard_normal((n, 8))
    separated = (np.column_stack([np.ones(n), v]), func, y_sep)
    design, y = _logistic_data(seed=29, n=n)
    return {"separated": separated, "overlapping": (design[:, :2], func, y)}


def _same_pass(a, b):
    """Byte equality of two ``_irls_pass`` results, the factors compared by
    their log determinants and inverse lower factors."""
    eye = np.eye(len(a[0]))
    assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1] and a[3] == b[3]
    assert a[2].logdet() == b[2].logdet()
    assert a[2].half_solve(eye).tobytes() == b[2].half_solve(eye).tobytes()


@pytest.mark.parametrize("case", ["separated", "overlapping"])
def test_irls_keeping_its_accepted_trial_is_byte_identical(monkeypatch, case):
    scalar, func, y = _glmm_designs()[case]
    steps = []
    original = classify._irls_pass

    def both(design, labels, penalty_vec, theta, max_newton=25):
        got = original(design, labels, penalty_vec, theta, max_newton)
        want = _recomputing_irls_pass(design, labels, penalty_vec, theta, max_newton)
        steps.append(len(want[1]) - 1)
        _same_pass(got, want)
        return got

    got = fit_glmm(scalar, func, y)
    with monkeypatch.context() as patch:
        patch.setattr(classify, "_irls_pass", both)
        fit_glmm(scalar, func, y)
        patch.setattr(classify, "_irls_pass", _recomputing_irls_pass)
        want = fit_glmm(scalar, func, y)
    for name in ("b0", "sigma_e", "deviance_trace", "converged", "n_passes"):
        assert getattr(got, name) == getattr(want, name)
    assert got.b1.tobytes() == want.b1.tobytes() and got.e.tobytes() == want.e.tobytes()
    # a pass cut short, or not started, returns the same factor
    design, theta0 = np.hstack([scalar, func]), np.zeros(2 + func.shape[1])
    penalty = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5])
    for max_newton in (0, 1, 3):
        _same_pass(
            original(design, y, penalty, theta0, max_newton),
            _recomputing_irls_pass(design, y, penalty, theta0, max_newton),
        )
    # Firth's term keeps the separated fit finite: no solve reaches the Newton cap
    assert len(steps) == got.n_passes and max(steps) < 25


def test_glmm_validates_inputs():
    design, y = _logistic_data()
    with pytest.raises(DataError, match="0/1"):
        fit_glmm(design, None, y + 1)
    with pytest.raises(DataError, match="both classes"):
        fit_glmm(design, None, np.zeros(len(y)))
    with pytest.raises(DataError, match="number of subjects"):
        fit_glmm(design[:-1], None, y)
    with pytest.raises(DataError, match=r"2\*k_e"):
        fit_glmm(design, np.zeros((len(y), 5)), y)


def _model(b1, e, j_mats, coef_basis=None, scalar_b=None):
    """A complete ClassifierModel around the given coefficients; the FPCA
    pair is a consistent placeholder: orthonormal functions on a 41-point
    grid with a mean per coordinate."""
    k_x, k_e = j_mats.shape[1:]
    grid = np.linspace(0.0, 1.0, 41)
    funcs = _orthonormal_family(grid, k_x)
    fpca = tuple(FpcaModel(grid, mean, funcs, np.ones(k_x)) for mean in (np.sin(grid), grid**2))
    return ClassifierModel(
        b0=0.4,
        b1=b1,
        e=e,
        sigma_e=1.0,
        deviance_trace=[],
        converged=True,
        n_passes=1,
        scalar_b=np.zeros(1 + len(b1)) if scalar_b is None else scalar_b,
        coef_basis=coef_basis or TruncatedPowerBasis.from_quantiles(grid, k_e),
        j_mats=j_mats,
        fpca=fpca,
    )


def test_the_weights_on_the_grid_give_the_scores_linear_predictor(small_pipeline):
    # eta = b0 + v'b1 + sum_a (x_a - mu_a)'beta_a with beta_a = W_a J_a e_a,
    # derived once per model, against the design rows CV fits on
    panel, _, reg, model = small_pipeline
    aligned, v = align_curves(panel, reg).values, panel.covariates
    design = classify._functional_design(classify._score_panel(aligned, model.fpca), model.j_mats)
    want = classify._eta(model, v, design)
    on_grid = np.einsum("nga,ga->n", aligned - model.grid_mean, model.beta_grid)
    eta = model.b0 + np.einsum("np,p->n", v, model.b1) + on_grid
    assert np.all(np.abs(eta - want) <= 1e-12 * np.abs(want))
    assert classify_prob(model, aligned, v).tobytes() == classify._prob(eta).tobytes()
    # the model is frozen, so its weights cannot go stale; a changed copy
    # derives its own
    with pytest.raises(AttributeError):
        model.e = np.zeros_like(model.e)
    stripped = replace(model, e=np.zeros_like(model.e))
    assert not stripped.beta_grid.any() and model.beta_grid.any()


def test_classify_prob_round_trips_the_logit():
    rng = np.random.default_rng(23)
    model = _model(
        np.array([-0.7, 0.2]), rng.standard_normal((2, 3)), rng.standard_normal((2, 4, 3))
    )
    aligned = rng.standard_normal((41, 2))
    v = np.array([0.3, -1.1])
    (pi,) = classify_prob(model, aligned[None], v[None])
    eta = model.b0 + v @ model.b1
    for a in (0, 1):
        eta += project_scores(aligned[None, :, a], model.fpca[a])[0] @ model.j_mats[a] @ model.e[a]
    assert abs(np.log(pi / (1 - pi)) - eta) < 1e-10


def test_functional_coefficient_evaluates_the_spline():
    tp = TruncatedPowerBasis(4, knots=(0.4, 0.7))
    e = np.array([[0.5, -1.0, 2.0, 3.0], [0.0, 1.0, 0.0, -2.0]])
    model = _model(np.zeros(1), e, np.zeros((2, 5, 4)), coef_basis=tp)
    t = np.linspace(0, 1, 9)
    want = tp.design(t) @ e[1]
    assert np.max(np.abs(functional_coefficient(model, 1, t) - want)) < 1e-12
    with pytest.raises(DataError, match="coordinate"):
        functional_coefficient(model, 2, t)


def test_prediction_result_validates_probability():
    with pytest.raises(DataError, match="pi_hat"):
        PredictionResult("s1", 1.2, 1, 1, True)


def test_scalar_only_prob_requires_refit():
    scalar_b = np.array([0.3, -1.2])
    model = _model(np.zeros(1), np.zeros((2, 2)), np.zeros((2, 3, 2)), scalar_b=scalar_b)
    (pi,) = scalar_only_prob(model, np.array([[0.5]]))
    assert abs(np.log(pi / (1 - pi)) - (0.3 - 0.6)) < 1e-12
    payload = model.to_dict()
    del payload["scalar_b"]
    with pytest.raises(DataError, match="model.scalar_b is missing"):
        ClassifierModel.from_dict(payload)


def test_aligned_curves_and_covariates_of_another_shape_raise():
    # a model with p = 1 on a 41-point grid: four covariates for two
    # subjects, or two per subject, must not broadcast its one scalar
    # coefficient, and curves on another grid must not broadcast either
    model = _model(np.array([0.4]), np.zeros((2, 2)), np.zeros((2, 3, 2)))
    aligned = np.zeros((2, 41, 2))
    assert classify_prob(model, aligned, np.zeros((2, 1))).shape == (2,)
    assert scalar_only_prob(model, np.zeros((3, 1))).shape == (3,)
    for bad in (np.zeros(4), np.zeros((2, 2)), np.zeros((3, 1)), np.zeros(2)):
        with pytest.raises(DataError, match="scalars has shape"):
            classify_prob(model, aligned, bad)
    for bad in (np.zeros((2, 41, 3)), np.zeros((2, 41)), np.zeros((2, 40, 2)), np.zeros((41, 2))):
        with pytest.raises(DataError, match="aligned has shape"):
            classify_prob(model, bad, np.zeros((2, 1)))
    for bad in (np.zeros((3, 2)), np.zeros(3), np.zeros((3, 0))):
        with pytest.raises(DataError, match="scalars has shape"):
            scalar_only_prob(model, bad)


# ---------------------------------------------------------------------------
# Pipeline on a small simulated panel.


@pytest.fixture(scope="module")
def small_pipeline():
    panel, truth = simulate_study2(
        Study2Config(scenario="A", seed=9, n_subjects=16, n_obs=30)
    )
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=40, max_outer=4)
    reg = fit_registration(panel, cfg)
    model = fit_classifier(reg, panel, k_x=5, k_e=3)
    return panel, truth, reg, model


def test_fit_classifier_validates_arguments(small_pipeline):
    panel, _, reg, _ = small_pipeline
    with pytest.raises(DataError, match="k_x >= k_e"):
        fit_classifier(reg, panel, k_x=3, k_e=5)


def test_classifier_model_round_trips_through_json(small_pipeline):
    panel, _, reg, model = small_pipeline
    back = ClassifierModel.from_dict(json.loads(json.dumps(model.to_dict())))
    rng = np.random.default_rng(29)
    for _ in range(5):
        aligned = rng.standard_normal((1, len(model.fpca[0].grid), 2))
        v = rng.standard_normal((1, 1))
        got, want = classify_prob(back, aligned, v), classify_prob(model, aligned, v)
        assert got.tobytes() == want.tobytes()
        assert scalar_only_prob(back, v) == scalar_only_prob(model, v)
    t = np.linspace(0, 1, 17)
    for a in (0, 1):
        assert np.array_equal(
            functional_coefficient(back, a, t), functional_coefficient(model, a, t)
        )


@pytest.mark.parametrize(
    "index, cls, version",
    [(3, ClassifierModel, 1), (2, RegistrationFit, 2)],
    ids=["ClassifierModel", "RegistrationFit"],
)
def test_classifier_model_rejects_other_format_versions(small_pipeline, index, cls, version):
    payload = small_pipeline[index].to_dict()
    assert payload["format_version"] == version
    payload["format_version"] = version + 1
    with pytest.raises(DataError, match=f"format_version {version + 1}; expected {version}"):
        cls.from_dict(payload)
    del payload["format_version"]
    with pytest.raises(DataError, match=f"no format_version; expected {version}"):
        cls.from_dict(payload)


def test_classifier_refit_is_bit_identical(small_pipeline):
    panel, _, reg, model = small_pipeline
    again = fit_classifier(reg, panel, k_x=5, k_e=3)
    assert again.b0 == model.b0
    assert np.array_equal(again.b1, model.b1)
    assert np.array_equal(again.e, model.e)
    assert again.sigma_e == model.sigma_e


def test_predict_with_zero_functional_part_reduces_to_scalars(small_pipeline):
    panel, _, reg, model = small_pipeline
    stripped = replace(model, e=np.zeros_like(model.e))
    res = predict_new(reg, stripped, panel.curves[0], panel.covariates[0])
    v = panel.covariates[0]
    eta = stripped.b0 + float(v @ stripped.b1)
    want = 1.0 / (1.0 + np.exp(-eta))
    assert abs(res.pi_hat - want) < 1e-12
    assert res.label == int(want >= 0.5)
    assert res.iterations == 1


def test_infeasible_group_warp_falls_back_to_the_identity(small_pipeline):
    # a fit whose class warp does not strictly increase is refused when it
    # is built, from its fields or from its dict, so prediction never meets one
    _, _, reg, _ = small_pipeline
    for k in reg.warps.group_offsets:
        warps = reg.warps.copy()
        warps.group_offsets[k] = np.array([0.0, 0.4, -0.4, 0.0])
        message = f"warps.group_offsets.{k}: the warp of class {k} is not strictly increasing"
        with pytest.raises(DataError, match=message):
            replace(reg, warps=warps)
        payload = reg.to_dict()
        payload["warps"]["group_offsets"][str(k)] = [0.0, 0.4, -0.4, 0.0]
        with pytest.raises(DataError, match=message):
            RegistrationFit.from_dict(json.loads(json.dumps(payload)))


def _two_alignment_model(reg, model, curve, v, start, etas):
    """A copy of ``model`` under which ``curve`` aligned to label k's
    template has linear predictor ``etas[k]``, and whose scalar-only start
    is ``start``."""
    grid, anchors = model.fpca[0].grid, reg.warps.anchors
    z = []
    for k in (0, 1):
        (ords,), (ok,) = fit_subject_warp([curve], reg, k)
        assert ok
        aligned = align_single(curve, anchors, ords, grid)
        z.append(np.concatenate(
            [project_scores(aligned[None, :, a], model.fpca[a])[0] @ model.j_mats[a]
             for a in (0, 1)]
        ))
    gap = z[0] - z[1]
    e = (etas[0] - etas[1]) * gap / (gap @ gap)
    return replace(
        model,
        e=e.reshape(2, -1),
        b0=etas[0] - float(v @ model.b1) - float(e @ z[0]),
        scalar_b=np.concatenate([[5.0 if start else -5.0], np.zeros_like(model.b1)]),
    )


def _cycling_model(reg, model, curve, v, start):
    """A copy of ``model`` under which ``curve`` aligned as either label
    classifies as the other one (pi = 0.73 under label 0, 0.27 under label
    1), and whose scalar-only start is ``start``."""
    return _two_alignment_model(reg, model, curve, v, start, (1.0, -1.0))


@pytest.mark.parametrize("start", [0, 1])
def test_two_label_cycle_is_reported_after_two_alignments(small_pipeline, start):
    panel, _, reg, model = small_pipeline
    curve, v = panel.curves[0], panel.covariates[0]
    cycling = _cycling_model(reg, model, curve, v, start)
    res = predict_new(reg, cycling, curve, v)
    assert not res.converged and res.iterations == 2
    # the last alignment tried is the other label's; its probability
    # points back to the start
    assert res.label == start == int(res.pi_hat >= 0.5)
    assert abs(res.pi_hat - 1.0 / (1.0 + np.exp(-1.0 if start else 1.0))) < 1e-9


def _label_loop(reg_fit, model, curve, scalars, max_iter=10):
    """The general label fixed point ``predict_new`` was reduced from, the
    reference: alternate label and alignment until the label is stable and
    the probability moves less than 1e-6, or the two labels point at each
    other."""
    v = np.atleast_1d(np.asarray(scalars, dtype=float))[None]
    grid, anchors = model.fpca[0].grid, reg_fit.warps.anchors
    (pi,) = scalar_only_prob(model, v)
    label = int(pi >= 0.5)
    cache = {}
    degraded = converged = False
    iterations = 0
    pi_prev = None
    for _ in range(max_iter):
        iterations += 1
        if label not in cache:
            (ords,), (ok,) = classify.fit_subject_warp([curve], reg_fit, label)
            if not ok:
                degraded = True
            cache[label] = align_single(curve, anchors, ords, grid)[None]
        (pi,) = classify_prob(model, cache[label], v)
        new_label = int(pi >= 0.5)
        if new_label == label and pi_prev is not None and abs(pi - pi_prev) < 1e-6:
            converged = True
            break
        if new_label != label and new_label in cache:
            label = new_label
            break
        pi_prev = pi
        label = new_label
    return PredictionResult(curve.subject_id, pi, label, iterations, converged and not degraded)


def _predict_against_the_label_loop(monkeypatch, reg, model, curve, v):
    """``predict_new`` and the reference loop on one subject: the same
    result and the same warp solves, one per alignment scored."""
    solved = []
    real_fit = classify.fit_subject_warp

    def counted(curves, fit, label):
        solved.append(label)
        return real_fit(curves, fit, label)

    with monkeypatch.context() as m:
        m.setattr(classify, "fit_subject_warp", counted)
        res = predict_new(reg, model, curve, v)
        n_new = len(solved)
        ref = _label_loop(reg, model, curve, v)
    assert (res.pi_hat, res.label, res.converged) == (ref.pi_hat, ref.label, ref.converged)
    assert res.iterations == n_new == len(solved) - n_new
    start = int(scalar_only_prob(model, v[None])[0] >= 0.5)
    assert solved[:n_new] == [start, 1 - start][:n_new]
    return res, start


def test_two_alignments_decide_as_the_general_label_loop(small_pipeline, monkeypatch):
    panel, _, reg, model = small_pipeline
    for i, sid in enumerate(panel.subject_ids):
        res, start = _predict_against_the_label_loop(
            monkeypatch, reg, model, panel.curve(sid), panel.covariates[i]
        )
        assert (res.iterations == 1) == (res.label == start)
    curve, v = panel.curves[0], panel.covariates[0]
    for start in (0, 1):
        cycling = _cycling_model(reg, model, curve, v, start)
        res, _ = _predict_against_the_label_loop(monkeypatch, reg, cycling, curve, v)
        assert res.iterations == 2 and res.label == start and not res.converged
        # one switch: the first alignment points away from the start, the
        # second one back to itself
        etas = (-2.0, -1.0) if start else (1.0, 2.0)
        switching = _two_alignment_model(reg, model, curve, v, start, etas)
        res, _ = _predict_against_the_label_loop(monkeypatch, reg, switching, curve, v)
        assert res.iterations == 2 and res.label == 1 - start and res.converged


@pytest.fixture(scope="module")
def held_out_cases(small_pipeline):
    """A held-out panel of 12 subjects on 6 grids, and three models, each
    with every subject's ``predict_new`` result: the fitted one; one whose
    scalar-only start points the other way, so most subjects are aligned
    twice; and one under which subject 0's two alignments point at each
    other."""
    panel, _, reg, model = small_pipeline
    held, _ = simulate_study2(Study2Config(scenario="A", seed=21, n_subjects=12, n_obs=30))
    rng = np.random.default_rng(43)
    curves = []
    for i, c in enumerate(held.curves):
        if i < 5:  # five subjects on the shared grid
            curves.append(c)
        elif i < 9:  # four jittered grids
            t = c.times.copy()
            t[1:-1] += rng.uniform(-0.004, 0.004, len(t) - 2)
            curves.append(SubjectCurve(c.subject_id, t, c.values))
        else:  # three subjects on one shorter grid
            curves.append(SubjectCurve(c.subject_id, c.times[::2], c.values[::2]))
    held = CurvePanel(curves, held.scalars)
    flipped = replace(model, scalar_b=-model.scalar_b)
    v0 = held.covariates[0]
    start = int(scalar_only_prob(model, v0[None])[0] >= 0.5)
    models = (model, flipped, _cycling_model(reg, model, held.curves[0], v0, start))
    alone = [
        [predict_new(reg, m, c, v) for c, v in zip(held.curves, held.covariates)]
        for m in models
    ]
    return reg, held, models, alone


def _bits(res):
    return (res.subject_id, res.pi_hat.hex(), res.label, res.iterations, res.converged)


def test_held_out_cases_reach_both_rounds_and_the_cycle(held_out_cases):
    _, _, _, alone = held_out_cases
    results = [r for per_model in alone for r in per_model]
    assert {r.iterations for r in results} == {1, 2}
    assert any(r.iterations == 2 and r.converged for r in results)
    assert not alone[2][0].converged and alone[2][0].iterations == 2


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_panel_predicts_each_subject_as_alone(held_out_cases, data):
    # any subset, in any order, subjects repeated or not
    reg, held, models, alone = held_out_cases
    m = data.draw(st.integers(0, len(models) - 1), label="model")
    rows = data.draw(st.lists(st.integers(0, held.n_subjects - 1), min_size=1, max_size=16))
    got = predict_panel(reg, models[m], [held.curves[i] for i in rows], held.covariates[rows])
    assert [_bits(r) for r in got] == [_bits(alone[m][i]) for i in rows]


def test_a_panel_in_reverse_order_from_cold_caches_predicts_the_same_bytes(held_out_cases):
    reg, held, models, alone = held_out_cases
    rows = np.arange(held.n_subjects)[::-1]
    for m, model in enumerate(models):
        for cache in (registration._held_out_grid, registration._held_out_group,
                      registration._held_out_start):
            cache.cache_clear()
        got = predict_panel(reg, model, [held.curves[i] for i in rows], held.covariates[rows])
        assert [_bits(r) for r in got] == [_bits(alone[m][i]) for i in rows]


def test_predict_panel_checks_the_covariates(small_pipeline):
    panel, _, reg, model = small_pipeline
    curves = panel.curves[:3]
    assert predict_panel(reg, model, [], np.empty((0, 1))) == []
    with pytest.raises(DataError, match=r"covariates has shape \(2, 1\), expected \(3, p\)"):
        predict_panel(reg, model, curves, panel.covariates[:2])
    with pytest.raises(DataError, match="each subject has 2 scalar covariates; the model"):
        predict_panel(reg, model, curves, np.zeros((3, 2)))


def test_predict_requires_functional_model(small_pipeline):
    # a model without its functional part cannot be built, so predict_new
    # never sees one
    for part in ("coef_basis", "j_mats", "fpca"):
        payload = small_pipeline[3].to_dict()
        del payload[part]
        with pytest.raises(DataError, match=f"model.{part} is missing"):
            ClassifierModel.from_dict(payload)


def test_cross_validation_contract_on_small_panel(small_pipeline):
    panel, _, reg, _ = small_pipeline
    pairs = ((4, 3), (5, 3), (4, 4))
    best, table = cross_validate_K(reg, panel, pairs=pairs, n_folds=4, return_table=True)
    assert best in pairs
    assert best == table[0][0]
    devs = [row[1] for row in table]
    assert devs == sorted(devs)
    again = cross_validate_K(reg, panel, pairs=pairs, n_folds=4)
    assert again == best
    with pytest.raises(DataError, match="k_x >= k_e"):
        cross_validate_K(reg, panel, pairs=((3, 4),))
    with pytest.raises(DataError, match="empty"):
        cross_validate_K(reg, panel, pairs=())
    with pytest.raises(DataError, match="n_folds"):
        cross_validate_K(reg, panel, pairs=pairs, n_folds=1)


def test_cross_validation_rejects_colliding_coefficient_knots(small_pipeline, monkeypatch):
    panel, _, reg, _ = small_pipeline
    # pooled times with one distinct value put every hinge knot on it: one
    # knot (k_e = 3) is a basis, two (k_e = 4) collide
    monkeypatch.setattr(classify, "_pooled_times", lambda panel: np.full(10, 0.5))
    cross_validate_K(reg, panel, pairs=((4, 3),), n_folds=4)
    with pytest.raises(DataError, match="reduce the basis size if quantiles collide"):
        cross_validate_K(reg, panel, pairs=((4, 3), (5, 4)), n_folds=4)


def test_skipped_folds_are_logged(small_pipeline, caplog, monkeypatch):
    panel, _, reg, _ = small_pipeline
    pairs = ((4, 3), (5, 3))

    def messages():
        return [r.getMessage() for r in caplog.records if r.name == "warpclass.classify"]

    # a single subject of class 1: the fold holding it trains on one class
    ones = [sid for sid, y in zip(panel.subject_ids, panel.labels) if y == 1]
    zeros = [sid for sid, y in zip(panel.subject_ids, panel.labels) if y == 0]
    sub = panel.subset(sorted(ones[:1] + zeros))
    with caplog.at_level(logging.WARNING, logger="warpclass.classify"):
        _, table = cross_validate_K(reg, sub, pairs=pairs, n_folds=3, return_table=True)
    assert messages() == ["fold 0 skipped: single-class training split"]
    assert sorted(n for _, _, n in table) == [2, 2]

    # five subjects in four stratified folds: the last fold validates no one,
    # although its training split holds both classes
    caplog.clear()
    sub = panel.subset(sorted(zeros[:2] + ones[:3]))
    with caplog.at_level(logging.WARNING, logger="warpclass.classify"):
        cross_validate_K(reg, sub, pairs=pairs[:1], n_folds=4)
    assert messages() == ["fold 3 skipped: empty validation split"]

    # a failed fit skips only its fold and pair
    caplog.clear()
    real_fit = classify.fit_glmm
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("no convergence")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(classify, "fit_glmm", fail_first)
    with caplog.at_level(logging.WARNING, logger="warpclass.classify"):
        _, table = cross_validate_K(reg, panel, pairs=pairs, n_folds=4, return_table=True)
    assert messages() == ["fold 0 pair (4,3) skipped: fit failure"]
    assert {pair: n for pair, _, n in table} == {(4, 3): 3, (5, 3): 4}


def test_every_fit_walks_the_same_penalty_ladder(small_pipeline, monkeypatch):
    # cross-validation scores the classifier that ships only if each fold
    # repeats its fit: one per-pair fit, one search over sigma_e that reads
    # its score at the same penalties, from theta = 0
    panel, _, reg, _ = small_pipeline
    pairs = ((4, 3), (5, 3), (5, 4))
    real_fit, real_pass, real_pair = classify.fit_glmm, classify._irls_pass, classify._fit_pair
    ladders, pair_fits = [], []

    def recording_fit(scalar_design, functional_design, labels):
        if functional_design is not None and functional_design.shape[1]:
            n_scalar, k_e = scalar_design.shape[1], functional_design.shape[1] // 2
            ladders.append((n_scalar, k_e, []))
        return real_fit(scalar_design, functional_design, labels)

    def recording_pass(design, labels, penalty_vec, theta, max_newton=25):
        if ladders:
            ladders[-1][2].append((penalty_vec.copy(), theta.copy()))
        return real_pass(design, labels, penalty_vec, theta, max_newton)

    def recording_pair(*args, **kwargs):
        pair_fits.append(args[2])
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(classify, "fit_glmm", recording_fit)
    monkeypatch.setattr(classify, "_irls_pass", recording_pass)
    monkeypatch.setattr(classify, "_fit_pair", recording_pair)
    cross_validate_K(reg, panel, pairs=pairs, n_folds=4)
    fit_classifier(reg, panel, k_x=5, k_e=3)

    assert len(ladders) == len(pair_fits) == 4 * len(pairs) + 1
    assert pair_fits[-1] == 5
    # one sigma_e per decade of the interval, its ends exact
    sigmas = np.geomspace(classify._SIGMA_MIN, classify._SIGMA_MAX, 9)
    assert sigmas[0] == classify._SIGMA_MIN and sigmas[-1] == classify._SIGMA_MAX
    for n_scalar, k_e, solves in ladders:
        assert len(solves) >= len(sigmas)
        assert not np.any(solves[0][1])
        mask = _pen_mask(n_scalar, k_e)
        for sigma, (penalty, _) in zip(sigmas, solves):
            assert penalty.tobytes() == (mask / sigma**2).tobytes()


# ---------------------------------------------------------------------------
# One realistic scenario-A split: selection and held-out accuracy.


@pytest.fixture(scope="module")
def scenario_a_fit():
    panel, truth = simulate_study2(Study2Config(scenario="A", seed=0))
    train_ids = [
        sid for sid, m in zip(panel.subject_ids, truth.train_mask) if m
    ]
    test_ids = [
        sid for sid, m in zip(panel.subject_ids, truth.train_mask) if not m
    ]
    train = panel.subset(train_ids)
    reg = fit_registration(train)
    model = fit_classifier(reg, train, k_x=18, k_e=10)
    return panel, truth, test_ids, reg, model


def test_default_truncation_ranks_well_by_cross_validation(scenario_a_fit):
    panel, truth, _, reg, _ = scenario_a_fit
    train_ids = [sid for sid, m in zip(panel.subject_ids, truth.train_mask) if m]
    best, table = cross_validate_K(
        reg, panel.subset(train_ids), n_folds=5, return_table=True
    )
    top3 = [row[0] for row in table[:3]]
    assert (18, 10) in top3


def test_training_half_is_classified_accurately_in_sample(scenario_a_fit):
    panel, truth, _, reg, model = scenario_a_fit
    train_ids = [sid for sid, m in zip(panel.subject_ids, truth.train_mask) if m]
    train = panel.subset(train_ids)
    aligned = align_curves(train, reg)
    pis = np.array(
        [
            classify_prob(model, aligned.values[i : i + 1], train.covariates[i : i + 1])[0]
            for i in range(train.n_subjects)
        ]
    )
    assert metric_ca(train.labels, (pis > 0.5).astype(int)) >= 0.85


def test_held_out_subjects_classify_accurately(scenario_a_fit):
    panel, truth, test_ids, reg, model = scenario_a_fit
    label_of = dict(zip(panel.subject_ids, truth.labels))
    subset = panel.subset(test_ids[:10] + test_ids[-10:])
    preds = [
        predict_new(reg, model, subset.curve(sid), subset.covariates[i])
        for i, sid in enumerate(subset.subject_ids)
    ]
    y = np.array([label_of[p.subject_id] for p in preds])
    yhat = np.array([p.label for p in preds])
    assert metric_ca(y, yhat) >= 0.75
    assert all(p.iterations in (1, 2) for p in preds)
    assert np.mean([p.converged for p in preds]) >= 0.8
