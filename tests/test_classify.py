"""Second level: FPCA, penalized logistic GLMM, prediction."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpclass.classify as classify
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
from warpclass.gp import MaternParams, matern_cov
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
    for i, row in enumerate(values):
        assert project_scores(row, fpca).tobytes() == stacked[i].tobytes(), i
    for rows in (rng.permutation(300)[:60], [7], [7, 7, 3]):
        assert project_scores(values[rows], fpca).tobytes() == stacked[rows].tobytes()


def test_a_subjects_probability_does_not_depend_on_its_rows():
    # the functional design and the linear predictor are summed row by row too
    rng = np.random.default_rng(37)
    model = _model(
        rng.standard_normal(3), rng.standard_normal((2, 10)), rng.standard_normal((2, 18, 10)),
        scalar_b=rng.standard_normal(4),
    )
    scores, v = rng.standard_normal((300, 2, 18)), rng.standard_normal((300, 3))
    pi, start = classify_prob(model, scores, v), scalar_only_prob(model, v)
    for i in range(300):
        assert classify_prob(model, scores[i], v[i]) == pi[i]
        assert scalar_only_prob(model, v[i]) == start[i]
    rows = rng.permutation(300)[:40]
    assert classify_prob(model, scores[rows], v[rows]).tobytes() == pi[rows].tobytes()


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
    single = project_scores(curves[0], fpca)
    assert single.shape == (4,)
    assert np.max(np.abs(single - c[0])) < 1e-8
    with pytest.raises(DataError, match="grid"):
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


def _newton_logistic(design, y, iters=80):
    """Plain logistic MLE by full Newton; independent of the implementation."""
    beta = np.zeros(design.shape[1])
    for _ in range(iters):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        step = np.linalg.solve((design.T * (p * (1 - p))) @ design, design.T @ (y - p))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-12:
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
    want = _newton_logistic(design, y)
    got = np.concatenate([[model.b0], model.b1])
    assert np.max(np.abs(got - want)) < 1e-6
    assert model.converged
    assert model.sigma_e == 0.0


def test_null_model_intercept_is_the_logit_of_the_class_fraction():
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
    model = fit_glmm(np.ones((10, 1)), None, y)
    assert abs(model.b0 - np.log(0.3 / 0.7)) < 1e-8
    assert model.b1.size == 0


def test_separable_scalar_direction_grows_with_zero_functional_scores(monkeypatch):
    # labels perfectly aligned with a +-1 covariate; the functional block is
    # identically zero, so its unpenalized columns make the system singular
    monkeypatch.setattr(classify, "_SIGMA_START", 100.0)
    n = 20
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = (v > 0).astype(float)
    scalar = np.column_stack([np.ones(n), v])
    func = np.zeros((n, 6))
    model = fit_glmm(scalar, func, y)
    assert model.b1[0] > 5.0
    # the intercept is tiny relative to the diverging slope
    assert abs(model.b0) < 1e-4 * model.b1[0]
    assert np.max(np.abs(model.e)) < 1e-6


def test_penalty_off_limit_matches_newton_on_the_full_design(monkeypatch):
    monkeypatch.setattr(classify, "_SIGMA_START", 1e6)
    monkeypatch.setattr(classify, "_MAX_PASSES", 1)
    rng = np.random.default_rng(31)
    n = 60
    scalar, _ = _logistic_data(seed=31, n=n)
    func = 0.5 * rng.standard_normal((n, 4))
    eta = 0.2 + scalar[:, 1] - 0.6 * func[:, 0] + 0.4 * func[:, 3]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    model = fit_glmm(scalar, func, y)
    want = _newton_logistic(np.hstack([scalar, func]), y)
    got = np.concatenate([[model.b0], model.b1, model.e[0], model.e[1]])
    assert np.max(np.abs(got - want)) < 1e-6


def test_glmm_deviance_is_monotone_within_every_pass(monkeypatch):
    monkeypatch.setattr(classify, "_SIGMA_START", 1.0)
    rng = np.random.default_rng(17)
    design, y = _logistic_data(seed=17)
    func = 0.5 * rng.standard_normal((len(y), 8))
    model = fit_glmm(design, func, y)
    assert model.deviance_trace
    for trace in model.deviance_trace:
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-8


def _two_branch_prob(eta):
    """The logistic probability with one exponential per sign of eta, clipped."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, 1e-15, 1.0 - 1e-15)


def test_prob_equals_the_two_branch_formula_byte_for_byte():
    rng = np.random.default_rng(37)
    special = [0.0, -0.0, 34.5, -34.5, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
    for size in (1, 7, 60, 129):
        for scale in (1e-3, 1.0, 30.0, 1e3):
            eta = np.concatenate([rng.standard_normal(size) * scale, special])
            assert classify._prob(eta).tobytes() == _two_branch_prob(eta).tobytes()
    assert classify._prob(2.5) == _two_branch_prob(2.5)


def _recomputing_irls_pass(design, labels, penalty_vec, theta, max_newton=25):
    """Penalized IRLS that forms eta and pi afresh at every Newton step.

    Kept as it stood before the accepted trial's eta and pi were carried
    into the next step: the oracle for byte-identical results.
    """
    prob = _two_branch_prob

    def penalized_deviance(eta, theta):
        pi = prob(eta)
        dev = -2.0 * float(labels @ np.log(pi) + (1.0 - labels) @ np.log(1.0 - pi))
        return dev + float(theta @ (penalty_vec * theta))

    trace = []
    eta = design @ theta
    current = penalized_deviance(eta, theta)
    trace.append(current)
    weights = None
    for _ in range(max_newton):
        pi = prob(eta)
        weights = np.maximum(pi * (1.0 - pi), 1e-10)
        grad = design.T @ (labels - pi) - penalty_vec * theta
        hess = (design.T * weights) @ design + np.diag(penalty_vec)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            cand = theta + scale * step
            cand_dev = penalized_deviance(design @ cand, cand)
            if cand_dev <= current + 1e-12:
                break
            scale *= 0.5
        else:
            break
        theta = theta + scale * step
        eta = design @ theta
        moved = current - cand_dev
        current = cand_dev
        trace.append(current)
        if moved <= 1e-10 * max(1.0, abs(current)):
            break
    if weights is None:
        pi = prob(eta)
        weights = np.maximum(pi * (1.0 - pi), 1e-10)
    return theta, trace, weights


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


@pytest.mark.parametrize("case", ["separated", "overlapping"])
def test_irls_keeping_its_accepted_trial_is_byte_identical(monkeypatch, case):
    scalar, func, y = _glmm_designs()[case]
    want_fits = []
    original = classify._irls_pass

    def both(design, labels, penalty_vec, theta, max_newton=25):
        got = original(design, labels, penalty_vec, theta, max_newton)
        want = _recomputing_irls_pass(design, labels, penalty_vec, theta, max_newton)
        want_fits.append(len(want[1]))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        assert got[2].tobytes() == want[2].tobytes()
        return got

    for sigma_start in (1.0, 10.0):
        with monkeypatch.context() as patch:
            patch.setattr(classify, "_SIGMA_START", sigma_start)
            got = fit_glmm(scalar, func, y)
            patch.setattr(classify, "_irls_pass", both)
            fit_glmm(scalar, func, y)
            patch.setattr(classify, "_irls_pass", _recomputing_irls_pass)
            want = fit_glmm(scalar, func, y)
        for name in ("b0", "sigma_e", "deviance_trace", "converged", "n_passes"):
            assert getattr(got, name) == getattr(want, name)
        assert got.b1.tobytes() == want.b1.tobytes() and got.e.tobytes() == want.e.tobytes()
    # a pass cut short, or not started, returns the same weights
    design, theta0 = np.hstack([scalar, func]), np.zeros(2 + func.shape[1])
    penalty = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5])
    for max_newton in (0, 1, 3):
        a = original(design, y, penalty, theta0, max_newton)
        b = _recomputing_irls_pass(design, y, penalty, theta0, max_newton)
        assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]
        assert a[2].tobytes() == b[2].tobytes()
    # the separated design runs its passes to the Newton cap (25 steps)
    assert (max(want_fits) == 26) == (case == "separated")


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


def test_variance_fixed_point_stall_raises(monkeypatch):
    calls = {"n": 0}

    def fake_pass(design, labels, penalty_vec, theta, max_newton=25):
        calls["n"] += 1
        out = np.zeros(design.shape[1])
        out[-1] = 1.0 + (calls["n"] % 2)  # keeps the variance target moving
        return out, [5.0, 5.0], np.full(len(labels), 0.25)

    monkeypatch.setattr(classify, "_irls_pass", fake_pass)
    rng = np.random.default_rng(19)
    n = 12
    scalar = np.ones((n, 1))
    func = rng.standard_normal((n, 6))
    y = np.arange(n) % 2
    with pytest.raises(NumericalError, match="failed to decrease"):
        fit_glmm(scalar, func, y)


def _model(b1, e, j_mats, coef_basis=None, scalar_b=None):
    """A complete ClassifierModel around the given coefficients; the FPCA
    pair is a consistent placeholder."""
    k_x, k_e = j_mats.shape[1:]
    grid = np.linspace(0.0, 1.0, 11)
    fpca = FpcaModel(grid, np.zeros(11), np.zeros((11, k_x)), np.zeros(k_x))
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
        fpca=(fpca, fpca),
    )


def test_classify_prob_round_trips_the_logit():
    rng = np.random.default_rng(23)
    model = _model(
        np.array([-0.7, 0.2]), rng.standard_normal((2, 3)), rng.standard_normal((2, 4, 3))
    )
    scores = rng.standard_normal((2, 4))
    v = np.array([0.3, -1.1])
    pi = classify_prob(model, scores, v)
    eta = model.b0 + v @ model.b1
    eta += scores[0] @ model.j_mats[0] @ model.e[0]
    eta += scores[1] @ model.j_mats[1] @ model.e[1]
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
    pi = scalar_only_prob(model, np.array([0.5]))
    assert abs(np.log(pi / (1 - pi)) - (0.3 - 0.6)) < 1e-12
    payload = model.to_dict()
    del payload["scalar_b"]
    with pytest.raises(DataError, match="model.scalar_b is missing"):
        ClassifierModel.from_dict(payload)


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
        scores = rng.standard_normal((2, model.j_mats.shape[1]))
        v = rng.standard_normal(1)
        assert classify_prob(back, scores, v) == classify_prob(model, scores, v)
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
    stripped = ClassifierModel.from_dict(json.loads(json.dumps(model.to_dict())))
    stripped.e = np.zeros_like(stripped.e)
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
        ords, ok = fit_subject_warp(curve, reg, k)
        assert ok
        aligned = align_single(curve, anchors, ords, grid)
        z.append(np.concatenate(
            [project_scores(aligned[:, a], model.fpca[a]) @ model.j_mats[a] for a in (0, 1)]
        ))
    gap = z[0] - z[1]
    moved = ClassifierModel.from_dict(json.loads(json.dumps(model.to_dict())))
    e = (etas[0] - etas[1]) * gap / (gap @ gap)
    moved.e = e.reshape(2, -1)
    moved.b0 = etas[0] - float(v @ model.b1) - float(e @ z[0])
    moved.scalar_b = np.concatenate([[5.0 if start else -5.0], np.zeros_like(model.b1)])
    return moved


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
    v = np.atleast_1d(np.asarray(scalars, dtype=float))
    grid, anchors = model.fpca[0].grid, reg_fit.warps.anchors
    pi = scalar_only_prob(model, v)
    label = int(pi >= 0.5)
    cache = {}
    degraded = converged = False
    iterations = 0
    pi_prev = None
    for _ in range(max_iter):
        iterations += 1
        if label not in cache:
            ords, ok = classify.fit_subject_warp(curve, reg_fit, label)
            if not ok:
                degraded = True
            aligned = align_single(curve, anchors, ords, grid)
            cache[label] = classify._score_panel(aligned[None], model.fpca)[0]
        pi = classify_prob(model, cache[label], v)
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

    def counted(curve, fit, label):
        solved.append(label)
        return real_fit(curve, fit, label)

    with monkeypatch.context() as m:
        m.setattr(classify, "fit_subject_warp", counted)
        res = predict_new(reg, model, curve, v)
        n_new = len(solved)
        ref = _label_loop(reg, model, curve, v)
    assert (res.pi_hat, res.label, res.converged) == (ref.pi_hat, ref.label, ref.converged)
    assert res.iterations == n_new == len(solved) - n_new
    start = int(scalar_only_prob(model, v) >= 0.5)
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
    flipped = ClassifierModel.from_dict(json.loads(json.dumps(model.to_dict())))
    flipped.scalar_b = -flipped.scalar_b
    v0 = held.covariates[0]
    start = int(scalar_only_prob(model, v0) >= 0.5)
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


def test_every_fit_starts_the_fixed_point_from_one_value(small_pipeline, monkeypatch):
    # cross-validation scores the classifier that ships only if each fold
    # repeats its fit: one per-pair fit, one start of the ridge variance
    panel, _, reg, _ = small_pipeline
    pairs = ((4, 3), (5, 3), (5, 4))
    real_fit, real_pass, real_pair = classify.fit_glmm, classify._irls_pass, classify._fit_pair
    first_penalties, pair_fits = [], []

    def recording_fit(scalar_design, functional_design, labels):
        if functional_design is not None and functional_design.shape[1]:
            n_scalar, k_e = scalar_design.shape[1], functional_design.shape[1] // 2
            first_penalties.append((n_scalar, k_e, []))
        return real_fit(scalar_design, functional_design, labels)

    def recording_pass(design, labels, penalty_vec, theta, max_newton=25):
        if first_penalties and not first_penalties[-1][2]:
            first_penalties[-1][2].append(penalty_vec.copy())
        return real_pass(design, labels, penalty_vec, theta, max_newton)

    def recording_pair(*args, **kwargs):
        pair_fits.append(args[2])
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(classify, "fit_glmm", recording_fit)
    monkeypatch.setattr(classify, "_irls_pass", recording_pass)
    monkeypatch.setattr(classify, "_fit_pair", recording_pair)
    cross_validate_K(reg, panel, pairs=pairs, n_folds=4)
    fit_classifier(reg, panel, k_x=5, k_e=3)

    assert len(first_penalties) == len(pair_fits) == 4 * len(pairs) + 1
    assert pair_fits[-1] == 5
    for n_scalar, k_e, (penalty,) in first_penalties:
        want = np.zeros(n_scalar + 2 * k_e)
        for a in (0, 1):
            want[n_scalar + a * k_e + 2 : n_scalar + (a + 1) * k_e] = 1.0 / classify._SIGMA_START**2
        assert penalty.tobytes() == want.tobytes()


def test_fold_fits_stopped_at_the_pass_cap_are_logged(small_pipeline, caplog, monkeypatch):
    panel, _, reg, _ = small_pipeline
    pairs = ((4, 3), (5, 3), (5, 4))
    real_fit = classify.fit_glmm
    short = []

    def counting_fit(*args):
        fit = real_fit(*args)
        short.append(not fit.converged)
        return fit

    def warnings():
        return [
            r.getMessage() for r in caplog.records
            if r.name == "warpclass.classify" and r.getMessage().startswith("cross-validation:")
        ]

    monkeypatch.setattr(classify, "fit_glmm", counting_fit)
    for cap in (classify._MAX_PASSES, 1):
        monkeypatch.setattr(classify, "_MAX_PASSES", cap)
        short.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="warpclass.classify"):
            cross_validate_K(reg, panel, pairs=pairs, n_folds=4)
        assert len(short) == 12
        want = (
            [f"cross-validation: {sum(short)} of 12 fold fits stopped at the pass cap "
             f"of {cap} without converging"]
            if any(short) else []
        )
        assert warnings() == want
    # one pass cannot settle the variance: every fold fit stops at the cap
    assert all(short)


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
    scores = np.stack(
        [project_scores(aligned.values[:, :, a], model.fpca[a]) for a in (0, 1)],
        axis=1,
    )
    pis = np.array(
        [
            classify_prob(model, scores[i], train.covariates[i])
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
