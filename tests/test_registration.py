"""First-level registration: GLS steps, warp fitting, variance, outer loop."""

import functools
import json
import logging
import os
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from warpclass import gp, registration
from warpclass.basis import BSplineBasis, hyman_interp, hyman_slopes
from warpclass.curves import CurvePanel, ScalarRecord, SubjectCurve
from warpclass.errors import DataError, NumericalError
from warpclass.gp import CholFactor, GridDistances, MaternParams, matern_cov, matern_cov_grad
from warpclass.registration import (
    _LOG_HI,
    _LOG_LO,
    MeanWeights,
    RegistrationConfig,
    RegistrationFit,
    VarianceParams,
    WarpState,
    align_curves,
    align_single,
    build_context,
    build_linearization,
    estimate_c,
    estimate_d,
    estimate_ridge,
    fit_registration,
    fit_subject_warp,
    fit_variance,
    fit_warps,
    gls_normals,
    penalized_objective,
    warp_design,
    warp_inverse_values,
    warp_values,
)
from warpclass.simeval import Study2Config, simulate_study2

ANCHORS = np.array([0.0, 0.33, 0.67, 1.0])


def _coef_for(basis, fn):
    """Least-squares spline coefficients for a smooth function."""
    grid = np.linspace(0.0, 1.0, 400)
    psi = basis.design(grid)
    return np.linalg.lstsq(psi, fn(grid), rcond=None)[0]


def _panel_from(curves_by_sid, labels_by_sid):
    curves, scalars = [], []
    for sid in sorted(curves_by_sid):
        t, v = curves_by_sid[sid]
        curves.append(SubjectCurve(sid, t, v))
        scalars.append(ScalarRecord(sid, np.array([1.0]), labels_by_sid[sid]))
    return CurvePanel(tuple(curves), tuple(scalars))


def _var(curve_amp=1.0, warp_amp=1.0, noise=0.05):
    return VarianceParams(
        noise,
        MaternParams(curve_amp, 0.3, 3.0),
        MaternParams(warp_amp, 0.3, 1.5),
    )


# ---------------------------------------------------------------------------
# Warp primitives.


def test_variance_params_reject_nonpositive_noise():
    with pytest.raises(DataError, match="noise_sd"):
        VarianceParams(0.0, MaternParams(1, 0.3, 3), MaternParams(1, 0.3, 3))


def test_identity_warp_state_is_identity():
    warps = WarpState.identity(ANCHORS, {"s1": 0, "s2": 1})
    t = np.linspace(0, 1, 50)
    g = np.clip(warp_values(ANCHORS, warps.ordinates("s1"), t), 0.0, 1.0)
    assert np.allclose(g, t, atol=1e-14)
    assert np.allclose(warp_inverse_values(ANCHORS, warps.ordinates("s2"), t), t, atol=1e-9)


def test_warp_design_rejects_nonmonotone_ordinates():
    t = np.linspace(0.0, 1.0, 5)
    panel = _panel_from({"s1": (t, np.zeros((5, 2)))}, {"s1": 0})
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    warps.subject_offsets["s1"][1] = 0.5  # pushes ordinate past the next anchor
    with pytest.raises(NumericalError, match="non-monotone warp ordinates for subject s1"):
        warp_design(panel, warps, BSplineBasis.uniform(4, 4))


def test_invert_warp_round_trip():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 200)
    for _ in range(10):
        ords = ANCHORS + np.concatenate([[0.0], rng.uniform(-0.1, 0.1, 2), [0.0]])
        ginv = warp_inverse_values(ANCHORS, ords, t)
        back = warp_values(ANCHORS, ords, ginv)
        assert np.max(np.abs(back - t)) < 1e-12


def test_warp_inverse_rejects_non_increasing_ordinates():
    t = np.linspace(0.0, 1.0, 11)
    for ords in ([0.0, 0.5, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0]):
        with pytest.raises(NumericalError, match="non-monotone warp ordinates"):
            warp_inverse_values(ANCHORS, np.array(ords), t)


def test_warp_inverse_maps_ends_and_ordinates_exactly():
    ords = np.array([0.0, 0.3, 0.71, 1.0])
    ginv = warp_inverse_values(ANCHORS, ords, np.concatenate([[0.0, 1.0], ords]))
    assert ginv[0] == 0.0 and ginv[1] == 1.0
    assert np.array_equal(ginv[2:], ANCHORS)


def _increasing(steps):
    """Strictly increasing points from 0 to 1 with gaps in proportion to ``steps``."""
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    return cum / cum[-1]


def _bisect_inverse(g, targets, iters=80):
    """Reference inverse of an increasing g on [0, 1] by plain bisection."""
    lo, hi = np.zeros_like(targets), np.ones_like(targets)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = g(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# Hyman filters the first slope to 0: the first secant is much smaller than
# the second, so the cubic is flat at t = 0 and Newton converges only linearly.
FLAT_START = np.array([0.0, 0.01, 0.9, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    x_steps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    y_steps=st.lists(st.floats(1e-3, 1.0), min_size=7, max_size=7),
    extra=st.lists(st.floats(0.0, 1.0), max_size=20),
)
@example(x_steps=list(np.diff(ANCHORS)), y_steps=list(np.diff(FLAT_START)) + [1.0] * 4, extra=[])
# targets just above 0 in a first cell whose start slope is filtered to 0
@example(
    x_steps=[1.0, 1.0],
    y_steps=[0.125, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0],
    extra=[1.1125369292536007e-308, 2.2250738585e-313],
)
# a target one ulp above a grid point: the two solves stop within the
# residual tolerance in the wrong order
@example(x_steps=[0.05, 0.75], y_steps=[1.0] * 7, extra=[0.05000000000000001])
def test_warp_inverse_properties(x_steps, y_steps, extra):
    anchors = _increasing(x_steps)
    ords = _increasing(y_steps[: len(anchors) - 1])
    targets = np.sort(np.concatenate([np.linspace(0.0, 1.0, 101), ords, extra]))
    ginv = warp_inverse_values(anchors, ords, targets)
    # a right inverse to rounding, and increasing with the target
    assert np.max(np.abs(warp_values(anchors, ords, ginv) - targets)) <= 1e-12
    assert np.all(np.diff(ginv) >= 0.0)
    assert np.array_equal(warp_inverse_values(anchors, ords, ords), anchors)
    # equal to a bisection reference wherever g is not flat: where
    # g' >= 1e-3 an abscissa error is at most 1e3 times the residual
    g = CubicHermiteSpline(anchors, ords, hyman_slopes(anchors, ords)[0])
    steep = g(ginv, 1) >= 1e-3
    ref = _bisect_inverse(lambda t: warp_values(anchors, ords, t), targets)
    assert np.max(np.abs(ginv - ref)[steep], initial=0.0) <= 1e-10


def test_warp_inverse_on_a_flat_end_cell():
    assert hyman_slopes(ANCHORS, FLAT_START)[0][0] == 0.0
    t = np.concatenate([[0.0, 1e-14, 1e-10, 1e-6], np.linspace(0.0, 1.0, 101)])
    ginv = warp_inverse_values(ANCHORS, FLAT_START, t)
    assert np.max(np.abs(warp_values(ANCHORS, FLAT_START, ginv) - t)) <= 1e-15
    assert ginv[0] == 0.0 and np.all(np.diff(ginv[:4]) > 0.0)


def test_warp_design_at_identity_matches_plain_design():
    basis = BSplineBasis.uniform(3, 4)
    t = np.linspace(0, 1, 20)
    vals = np.column_stack([np.sin(t), np.cos(t)])
    panel = _panel_from({"s1": (t, vals)}, {"s1": 0})
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    designs = warp_design(panel, warps, basis)
    assert np.allclose(designs["s1"], basis.design(t), atol=1e-13)


def test_warp_design_equals_each_subjects_design():
    # grids shared within and across groups, and grids of their own
    rng = np.random.default_rng(61)
    basis = BSplineBasis.uniform(5, 4)
    shared, short = np.linspace(0.0, 1.0, 25), np.linspace(0.0, 1.0, 13)
    grids = [shared, short, shared, np.sort(rng.uniform(0, 1, 19)), shared, short, shared]
    curves = {f"s{i}": (t, rng.standard_normal((len(t), 2))) for i, t in enumerate(grids)}
    panel = _panel_from(curves, {f"s{i}": i % 2 for i in range(len(grids))})
    warps = WarpState.identity(ANCHORS, panel.group_of)
    for k in (0, 1):
        warps.group_offsets[k][1:-1] = rng.normal(0, 0.03, 2)
    for sid in panel.subject_ids:
        warps.subject_offsets[sid][1:-1] = rng.normal(0, 0.03, 2)
    designs = warp_design(panel, warps, basis)
    assert list(designs) == list(panel.subject_ids)
    for c in panel.curves:
        g = np.clip(warp_values(ANCHORS, warps.ordinates(c.subject_id), c.times), 0.0, 1.0)
        assert np.allclose(designs[c.subject_id], basis.design(g), rtol=0.0, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_warp_design_by_length_equals_each_subjects_design_in_any_order(seed, data):
    # 25-point grids shared and jittered, 13-point grids all shared
    rng = np.random.default_rng(seed)
    basis = BSplineBasis.uniform(5, 4)
    shared, short = np.linspace(0.0, 1.0, 25), np.linspace(0.0, 1.0, 13)
    grids = []
    for i in range(12):
        jitter = np.r_[0.0, rng.uniform(-0.002, 0.002, 23), 0.0]
        grids.append(short if i % 3 == 0 else shared + jitter if i % 3 == 1 else shared)
    # a panel is sorted by subject id: the subjects take the grids in any order
    order = data.draw(st.permutations(range(12)))
    ids = [f"s{i:02d}" for i in range(12)]
    curves = [
        SubjectCurve(sid, grids[g], rng.standard_normal((len(grids[g]), 2)))
        for sid, g in zip(ids, order)
    ]
    scalars = [ScalarRecord(sid, np.array([1.0]), i % 2) for i, sid in enumerate(ids)]
    panel = CurvePanel(tuple(curves), tuple(scalars))
    warps = WarpState.identity(ANCHORS, panel.group_of)
    for k in (0, 1):
        warps.group_offsets[k][1:-1] = rng.normal(0, 0.03, 2)
    for sid in ids:
        warps.subject_offsets[sid][1:-1] = rng.normal(0, 0.03, 2)
    designs = warp_design(panel, warps, basis)
    assert list(designs) == ids
    for c in panel.curves:
        g = np.clip(warp_values(ANCHORS, warps.ordinates(c.subject_id), c.times), 0.0, 1.0)
        assert designs[c.subject_id].tobytes() == basis.design(g).tobytes()
    # the first subject in panel order with a non-increasing warp is named
    bad = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    for sid in bad:
        # an interior ordinate above 1 cannot increase to the end at 1; at 0.5
        # above its anchor, the next ordinate's offsets could still lift past it
        warps.subject_offsets[sid][1] = 1.0
    first = next(sid for sid in ids if sid in bad)
    with pytest.raises(NumericalError, match=f"non-monotone warp ordinates for subject {first}$"):
        warp_design(panel, warps, basis)


# ---------------------------------------------------------------------------
# Basis-weight GLS steps against a dense stacked oracle.


def _dense_gls_oracle(panel, basis, curve_cov):
    """Stack all subjects and solve the weighted normal equations densely."""
    q = basis.size
    out = np.empty((2, q))
    for a in (0, 1):
        normal = np.zeros((q, q))
        rhs = np.zeros(q)
        for c in panel.curves:
            psi = basis.design(c.times)
            w = np.linalg.inv(np.eye(len(c.times)) + matern_cov(curve_cov, c.times))
            normal += psi.T @ w @ psi
            rhs += psi.T @ w @ c.values[:, a]
        out[a] = np.linalg.solve(normal, rhs)
    return out


def _normals(panel, basis, var, warps):
    """GLS normal equations of ``panel`` under ``warps`` and ``var``."""
    ctx = build_context(panel, basis, ANCHORS, var)
    return gls_normals(panel, warps, ctx, warp_design(panel, warps, basis))


def _no_deviations(basis, warps):
    return {k: np.zeros((2, basis.size)) for k in set(warps.group_of.values())}


def test_estimate_c_matches_dense_gls_oracle():
    rng = np.random.default_rng(17)
    basis = BSplineBasis.uniform(2, 4)
    curves = {}
    for i, n in enumerate((12, 14, 16)):
        t = np.sort(rng.uniform(0, 1, n))
        t[0], t[-1] = 0.0, 1.0
        curves[f"s{i}"] = (t, rng.standard_normal((n, 2)))
    panel = _panel_from(curves, {sid: 0 for sid in curves})
    warps = WarpState.identity(ANCHORS, {sid: 0 for sid in curves})
    var = _var(curve_amp=0.8)
    got = estimate_c(_normals(panel, basis, var, warps), _no_deviations(basis, warps))
    want = _dense_gls_oracle(panel, basis, var.curve_cov)
    assert np.max(np.abs(got - want)) < 1e-8


def test_estimate_c_recovers_noiseless_truth():
    rng = np.random.default_rng(19)
    basis = BSplineBasis.uniform(2, 4)
    c_true = rng.standard_normal((2, basis.size))
    t = np.linspace(0, 1, 25)
    psi = basis.design(t)
    curves = {f"s{i}": (t, psi @ c_true.T) for i in range(2)}
    panel = _panel_from(curves, {sid: 0 for sid in curves})
    warps = WarpState.identity(ANCHORS, {sid: 0 for sid in curves})
    normals = _normals(panel, basis, _var(curve_amp=1e-8), warps)
    got = estimate_c(normals, _no_deviations(basis, warps))
    assert np.max(np.abs(got - c_true)) < 1e-10


def test_estimate_c_rejects_rank_deficient_design():
    basis = BSplineBasis.uniform(2, 4)  # six weights, four observations
    t = np.linspace(0, 1, 4)
    panel = _panel_from({"s1": (t, np.zeros((4, 2)))}, {"s1": 0})
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    normals = _normals(panel, basis, _var(), warps)
    with pytest.raises(DataError, match="rank deficient"):
        estimate_c(normals, _no_deviations(basis, warps))


def _two_group_panel(rng, basis, n=14):
    t = np.linspace(0, 1, n)
    psi = basis.design(t)
    c_true = rng.standard_normal((2, basis.size))
    curves, labels = {}, {}
    for i in range(4):
        k = i // 2
        bump = (k - 0.5) * rng.standard_normal((2, basis.size))
        vals = psi @ (c_true + bump).T + 0.01 * rng.standard_normal((n, 2))
        curves[f"s{i}"] = (t, vals)
        labels[f"s{i}"] = k
    return _panel_from(curves, labels), c_true


def test_estimate_d_matches_ols_oracle_without_penalty():
    rng = np.random.default_rng(23)
    basis = BSplineBasis.uniform(2, 4)
    panel, _ = _two_group_panel(rng, basis)
    group_of = panel.group_of
    warps = WarpState.identity(ANCHORS, group_of)
    normals = _normals(panel, basis, _var(curve_amp=1e-8), warps)
    c_hat = estimate_c(normals, _no_deviations(basis, warps))
    d, c_out = estimate_d(normals, c_hat, ridge_lambda=0.0)

    # oracle: per-group OLS of the residual, then the same centering
    raw = {}
    for k in (0, 1):
        raw[k] = np.empty_like(c_hat)
        for a in (0, 1):
            rows, ys = [], []
            for c in panel.curves:
                if group_of[c.subject_id] != k:
                    continue
                psi = basis.design(c.times)
                rows.append(psi)
                ys.append(c.values[:, a] - psi @ c_hat[a])
            raw[k][a] = np.linalg.lstsq(np.vstack(rows), np.concatenate(ys), rcond=None)[0]
    shift = 0.5 * (raw[0] + raw[1])
    for k in (0, 1):
        assert np.max(np.abs(d[k] - (raw[k] - shift))) < 1e-8
    assert np.max(np.abs(c_out - (c_hat + shift))) < 1e-8


def test_estimate_d_huge_penalty_kills_deviations():
    rng = np.random.default_rng(29)
    basis = BSplineBasis.uniform(2, 4)
    panel, _ = _two_group_panel(rng, basis)
    warps = WarpState.identity(ANCHORS, panel.group_of)
    normals = _normals(panel, basis, _var(), warps)
    c_hat = estimate_c(normals, _no_deviations(basis, warps))
    d, _ = estimate_d(normals, c_hat, ridge_lambda=1e12)
    assert max(np.max(np.abs(d[k])) for k in (0, 1)) < 1e-6


def test_estimate_d_zero_for_identical_groups():
    rng = np.random.default_rng(31)
    basis = BSplineBasis.uniform(2, 4)
    t = np.linspace(0, 1, 15)
    vals = rng.standard_normal((15, 2))
    curves = {f"s{i}": (t, vals.copy()) for i in range(4)}
    labels = {f"s{i}": i // 2 for i in range(4)}
    panel = _panel_from(curves, labels)
    warps = WarpState.identity(ANCHORS, labels)
    normals = _normals(panel, basis, _var(), warps)
    c_hat = estimate_c(normals, _no_deviations(basis, warps))
    d, _ = estimate_d(normals, c_hat, ridge_lambda=1e-4)
    assert max(np.max(np.abs(d[k])) for k in (0, 1)) < 1e-10


def test_estimate_d_centers_deviations():
    rng = np.random.default_rng(37)
    basis = BSplineBasis.uniform(2, 4)
    panel, _ = _two_group_panel(rng, basis)
    warps = WarpState.identity(ANCHORS, panel.group_of)
    normals = _normals(panel, basis, _var(), warps)
    c_hat = estimate_c(normals, _no_deviations(basis, warps))
    d, _ = estimate_d(normals, c_hat, ridge_lambda=0.5)
    assert np.max(np.abs(d[0] + d[1])) < 1e-12
    with pytest.raises(DataError, match=">= 0"):
        estimate_d(normals, c_hat, ridge_lambda=-1.0)


def test_estimate_ridge_solves_its_fixed_point_equation():
    rng = np.random.default_rng(43)
    basis = BSplineBasis.uniform(2, 4)
    panel, _ = _two_group_panel(rng, basis)
    warps = WarpState.identity(ANCHORS, panel.group_of)
    var = _var()
    normals = _normals(panel, basis, var, warps)
    # shared weights off the pooled fit, so the raw deviations need centering
    c_hat = estimate_c(normals, _no_deviations(basis, warps)) + 0.5
    lam = estimate_ridge(normals, c_hat, var.noise_sd, 1.0)
    assert estimate_ridge(normals, c_hat, var.noise_sd, 1e-3) == pytest.approx(lam, rel=1e-8)

    # oracle: lambda = sigma^2 * edf / ||d||^2 with explicit inverses and traces
    d, _ = estimate_d(normals, c_hat, lam)
    edf = 0.0
    for k in (0, 1):
        normal = np.zeros((basis.size, basis.size))
        for c in panel.curves:
            if panel.group_of[c.subject_id] == k:
                psi = basis.design(c.times)
                weight = np.linalg.inv(np.eye(len(c.times)) + matern_cov(var.curve_cov, c.times))
                normal += psi.T @ weight @ psi
        hat = np.linalg.solve(normal + lam * np.eye(basis.size), normal)
        edf += 2.0 * np.trace(hat)  # one block per coordinate
    tau2 = sum(float(np.sum(d[k] ** 2)) for k in (0, 1)) / edf
    assert 1e-4 < lam < 1e4
    assert lam == pytest.approx(var.noise_sd**2 / tau2, rel=1e-8)


def test_estimate_ridge_logs_a_stop_at_its_iteration_cap(monkeypatch, caplog):
    rng = np.random.default_rng(43)
    basis = BSplineBasis.uniform(2, 4)
    panel, _ = _two_group_panel(rng, basis)
    warps = WarpState.identity(ANCHORS, panel.group_of)
    var = _var()
    normals = _normals(panel, basis, var, warps)
    c_hat = estimate_c(normals, _no_deviations(basis, warps)) + 0.5
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        estimate_ridge(normals, c_hat, var.noise_sd, 1.0)
        assert not caplog.records
        monkeypatch.setattr(registration, "_RIDGE_ITERS", 1)
        lam = estimate_ridge(normals, c_hat, var.noise_sd, 1.0)
    assert [r.getMessage() for r in caplog.records] == [
        f"ridge weight fixed point stopped at its cap of 1 iterations, at {lam:g}"
    ]


def test_mean_steps_never_increase_the_objective():
    rng = np.random.default_rng(41)
    basis = BSplineBasis.uniform(2, 4)
    panel, c_true = _two_group_panel(rng, basis)
    warps = WarpState.identity(ANCHORS, panel.group_of)
    for sid in warps.subject_offsets:
        warps.subject_offsets[sid][1:-1] = rng.uniform(-0.05, 0.05, 2)
    ctx = build_context(panel, basis, ANCHORS, _var())
    designs = warp_design(panel, warps, basis)
    normals = gls_normals(panel, warps, ctx, designs)
    lam = 0.3
    means = MeanWeights(
        c_true + 0.5, {k: 0.1 * rng.standard_normal(c_true.shape) - 0.0 for k in (0, 1)}
    )
    dev_sum = sum(means.group.values())
    means = MeanWeights(c_true + 0.5, {k: means.group[k] - dev_sum / 2 for k in (0, 1)})
    before = penalized_objective(panel, means, warps, ctx, lam, designs)
    c_hat = estimate_c(normals, means.group)
    d_hat, c_hat = estimate_d(normals, c_hat, lam)
    after = penalized_objective(panel, MeanWeights(c_hat, d_hat), warps, ctx, lam, designs)
    assert after <= before + 1e-9 * max(1.0, abs(before))


# ---------------------------------------------------------------------------
# Warp fitting.


def _warp_fixture(rng, offsets_by_sid, warp_amp=100.0, n=60):
    basis = BSplineBasis.uniform(4, 4)
    coef = np.vstack(
        [
            _coef_for(basis, lambda t: np.sin(2 * np.pi * t) + 2 * t),
            _coef_for(basis, lambda t: np.cos(2 * np.pi * t) - 2 * t),
        ]
    )
    spl = [basis.spline(coef[a]) for a in (0, 1)]
    t = np.linspace(0, 1, n)
    curves, labels = {}, {}
    for sid, off in offsets_by_sid.items():
        ords = ANCHORS + off
        g = hyman_interp(ANCHORS, ords)(t)
        curves[sid] = (t, np.column_stack([spl[0](g), spl[1](g)]))
        labels[sid] = 0
    panel = _panel_from(curves, labels)
    means = MeanWeights(coef, {0: np.zeros_like(coef)})
    ctx = build_context(panel, basis, ANCHORS, _var(curve_amp=1e-8, warp_amp=warp_amp))
    return panel, means, ctx


def test_fit_warps_stays_at_identity_for_unwarped_data():
    rng = np.random.default_rng(43)
    zero = np.zeros(4)
    panel, means, ctx = _warp_fixture(rng, {"s1": zero, "s2": zero})
    warps0 = WarpState.identity(ANCHORS, {"s1": 0, "s2": 0})
    warps, stats = fit_warps(panel, means, ctx, warps0)
    assert stats["n_opt"] == 3  # two subjects plus one group pass
    for sid in ("s1", "s2"):
        assert np.max(np.abs(warps.ordinates(sid) - ANCHORS)) < 1e-3


def test_fit_warps_recovers_opposing_subject_warps():
    rng = np.random.default_rng(47)
    off = np.array([0.0, 0.05, -0.03, 0.0])
    panel, means, ctx = _warp_fixture(rng, {"s1": off, "s2": -off})
    warps0 = WarpState.identity(ANCHORS, {"s1": 0, "s2": 0})
    warps, _ = fit_warps(panel, means, ctx, warps0)
    assert np.max(np.abs(warps.ordinates("s1") - (ANCHORS + off))) < 5e-3
    assert np.max(np.abs(warps.ordinates("s2") - (ANCHORS - off))) < 5e-3
    # opposing offsets: the recentering leaves no group-level warp behind
    assert np.max(np.abs(warps.group_offsets[0])) < 5e-3


def test_fit_warps_never_increases_the_objective():
    rng = np.random.default_rng(53)
    off = np.array([0.0, 0.04, 0.02, 0.0])
    panel, means, ctx = _warp_fixture(rng, {"s1": off, "s2": -0.5 * off}, warp_amp=1.0)
    lam = 1e-4
    warps0 = WarpState.identity(ANCHORS, {"s1": 0, "s2": 0})
    basis = ctx.basis
    before = penalized_objective(panel, means, warps0, ctx, lam, warp_design(panel, warps0, basis))
    warps, stats = fit_warps(panel, means, ctx, warps0)
    after = penalized_objective(panel, means, warps, ctx, lam, warp_design(panel, warps, basis))
    assert after <= before + 1e-9 * max(1.0, abs(before))
    assert stats["n_reverted"] == 0


def test_a_warp_step_that_raises_the_objective_is_reverted_and_logged(monkeypatch, caplog):
    rng = np.random.default_rng(53)
    off = np.array([0.0, 0.04, 0.02, 0.0])
    panel, means, ctx = _warp_fixture(rng, {"s1": off, "s2": -0.5 * off}, warp_amp=1.0)
    warps0 = WarpState.identity(ANCHORS, {"s1": 0, "s2": 0})
    original = registration._levenberg_marquardt
    solved = []  # the subject solves' offsets, then the group's

    def worse_group_offsets(residuals, u0, max_evals):
        u, f, converged, f0, evals = original(residuals, u0, max_evals)
        if not isinstance(residuals, functools.partial):
            # the group solve ends on a feasible point far from its optimum
            u = u + np.array([0.08, -0.08])
            r, _, _, _ = residuals(u, np.arange(1))
            f = np.array([float(r[0] @ r[0])])
        solved.extend(u)
        return u, f, converged, f0, evals

    monkeypatch.setattr(registration, "_levenberg_marquardt", worse_group_offsets)
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        warps, stats = fit_warps(panel, means, ctx, warps0)
    assert stats["n_opt"] == 3
    assert stats["n_reverted"] == 1
    for sid in ("s1", "s2"):
        assert np.array_equal(warps.subject_offsets[sid], warps0.subject_offsets[sid])
    assert np.array_equal(warps.group_offsets[0], warps0.group_offsets[0])
    (record,) = [r for r in caplog.records if r.name == "warpclass.registration"]
    match = re.fullmatch(
        r"warp step reverted: objective (\S+) before, (\S+) after", record.getMessage()
    )
    before, after = map(float, match.groups())
    # the state that was rejected: re-centered subject offsets, worse group offsets
    rejected = warps0.copy()
    shift = np.mean(solved[:2], axis=0)
    for sid, u in zip(("s1", "s2"), solved):
        rejected.subject_offsets[sid][1:-1] = u - shift
    rejected.group_offsets[0][1:-1] = solved[2]

    def objective(state):
        designs = warp_design(panel, state, ctx.basis)
        return penalized_objective(panel, means, state, ctx, 0.0, designs)

    assert before == pytest.approx(objective(warps0), rel=1e-9)
    assert after == pytest.approx(objective(rejected), rel=1e-9)
    assert after > before


def test_the_group_solve_has_the_exact_hessian_of_its_members_rows(monkeypatch):
    # the group solve's J'J + S is the derivative of its half gradient J'r
    rng = np.random.default_rng(53)
    off = np.array([0.0, 0.04, 0.02, 0.0])
    offsets = {"s1": off, "s2": -0.5 * off, "s3": 0.3 * off}
    panel, means, ctx = _warp_fixture(rng, offsets, warp_amp=1.0)
    original = registration._levenberg_marquardt
    group_solves = []

    def solve(residuals, u0, max_evals):
        if not isinstance(residuals, functools.partial):
            group_solves.append(residuals)
        return original(residuals, u0, max_evals)

    monkeypatch.setattr(registration, "_levenberg_marquardt", solve)
    fit_warps(panel, means, ctx, WarpState.identity(ANCHORS, {sid: 0 for sid in offsets}))
    (residuals,) = group_solves
    one = np.arange(1)

    def half_gradient(v):
        r, jac, _, _ = residuals(v, one)
        return jac[0].T @ r[0]

    v = np.array([[0.01, -0.015]])
    r, jac, ok, second = residuals(v, one)
    assert ok[0] and np.abs(second).max() > 1e-3
    hess = jac[0].T @ jac[0] + second[0]
    eps = 1e-6
    for m in range(2):
        e = np.zeros((1, 2))
        e[0, m] = eps
        central = (half_gradient(v + e) - half_gradient(v - e)) / (2 * eps)
        assert np.max(np.abs(hess[:, m] - central)) < 1e-6 * max(1.0, np.max(np.abs(central)))


def test_the_fit_counts_reverted_warp_steps(monkeypatch):
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    original = registration.fit_warps

    def reverted(panel, means, ctx, warps, maxfun):
        _, stats = original(panel, means, ctx, warps, maxfun)
        return warps.copy(), {**stats, "n_reverted": 1}

    monkeypatch.setattr(registration, "fit_warps", reverted)
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=20, max_outer=3)
    fit = fit_registration(panel, cfg)
    assert fit.warp_steps_reverted == fit.n_outer


def test_warp_step_parts_are_built_once(monkeypatch):
    # the context computes Hermite weights once per distinct grid; a warp
    # step builds one mean spline per group and evaluates residuals only
    # inside its solves, once per Levenberg-Marquardt round of each group's
    # two solves (its subjects in lock step, then its offsets), never per
    # subject; a linearization computes Hermite weights once per distinct grid
    rng = np.random.default_rng(59)
    basis = BSplineBasis.uniform(4, 4)
    shared = np.linspace(0.0, 1.0, 20)
    grids = [shared, shared, np.linspace(0.0, 1.0, 16), shared, shared]
    curves = {}
    for i, t in enumerate(grids):
        noise = 0.05 * rng.standard_normal((len(t), 2))
        curves[f"s{i}"] = (t, np.column_stack([np.sin(3 * t), t * t]) + noise)
    panel = _panel_from(curves, {f"s{i}": i % 2 for i in range(len(grids))})
    calls = {"hermite_weights": 0, "spline": 0, "subject_warp_residuals": 0, "outside": 0}
    solving = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            calls["outside"] += name == "subject_warp_residuals" and not solving
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(registration, "hermite_weights")
    ctx = build_context(panel, basis, ANCHORS, _var())
    assert calls["hermite_weights"] == 2

    original_solve = registration._levenberg_marquardt
    solves = []  # per solve: the batch size and the residual calls of each round

    def solve(residuals, u0, max_evals):
        rounds = []

        def round_(u, members):
            start = calls["subject_warp_residuals"]
            out = residuals(u, members)
            rounds.append(calls["subject_warp_residuals"] - start)
            return out

        solving.append(1)
        try:
            return original_solve(round_, u0, max_evals)
        finally:
            solving.pop()
            solves.append((len(u0), rounds))

    monkeypatch.setattr(registration, "_levenberg_marquardt", solve)
    counted(BSplineBasis, "spline")
    counted(registration, "subject_warp_residuals")
    coef = np.vstack([_coef_for(basis, np.sin), _coef_for(basis, np.square)])
    means = MeanWeights(coef, {0: np.zeros_like(coef), 1: np.zeros_like(coef)})
    calls["hermite_weights"] = calls["subject_warp_residuals"] = 0
    warps, _ = fit_warps(panel, means, ctx, WarpState.identity(ANCHORS, panel.group_of))
    assert calls["spline"] == 2 and calls["hermite_weights"] == 0
    assert calls["subject_warp_residuals"] > 0 and calls["outside"] == 0
    # group 0 has s0, s2, s4 and group 1 s1, s3: a subject solve over the
    # whole group, then the group solve, each round one residual call
    assert [size for size, _ in solves] == [3, 1, 2, 1]
    assert calls["subject_warp_residuals"] == sum(len(rounds) for _, rounds in solves)
    assert all(rounds == [1] * len(rounds) for _, rounds in solves)

    calls["hermite_weights"] = 0
    build_linearization(panel, means, warps, basis)
    assert calls["hermite_weights"] == 2


# ---------------------------------------------------------------------------
# Linearization of the fitted curves in the warp offsets.


def test_linearization_is_zero_for_zero_means():
    basis = BSplineBasis.uniform(3, 4)
    t = np.linspace(0, 1, 12)
    panel = _panel_from({"s1": (t, np.ones((12, 2)))}, {"s1": 0})
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    means = MeanWeights(np.zeros((2, basis.size)), {0: np.zeros((2, basis.size))})
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    assert np.max(np.abs(fitted["s1"])) == 0.0
    assert np.max(np.abs(jac["s1"])) == 0.0
    assert jac["s1"].shape == (2, 12, 2)
    assert np.array_equal(w0["s1"], np.zeros(2))


def test_linearization_jacobian_matches_composed_fd_oracle():
    rng = np.random.default_rng(59)
    basis = BSplineBasis.uniform(4, 4)
    coef = np.vstack(
        [
            _coef_for(basis, lambda t: np.exp(np.cos(2 * np.pi * t))),
            _coef_for(basis, lambda t: np.exp(np.sin(2 * np.pi * t))),
        ]
    )
    t = np.linspace(0, 1, 30)
    panel = _panel_from({"s1": (t, np.zeros((30, 2)))}, {"s1": 0})
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    warps.subject_offsets["s1"][1:-1] = np.array([0.04, -0.03])
    means = MeanWeights(coef, {0: np.zeros_like(coef)})
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    assert np.array_equal(w0["s1"], [0.04, -0.03])

    # oracle: central difference of the whole map offset -> fitted curve
    spl = [basis.spline(coef[a]) for a in (0, 1)]
    ords = warps.ordinates("s1")
    delta = 1e-5
    want = np.empty_like(jac["s1"])
    for m in range(2):
        up, dn = ords.copy(), ords.copy()
        up[1 + m] += delta
        dn[1 + m] -= delta
        gu = warp_values(ANCHORS, up, t)
        gd = warp_values(ANCHORS, dn, t)
        for a in (0, 1):
            want[a, :, m] = (spl[a](gu) - spl[a](gd)) / (2 * delta)
    g0 = warp_values(ANCHORS, ords, t)
    assert np.allclose(fitted["s1"][:, 0], spl[0](g0), atol=1e-13)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(jac["s1"] - want)) < 1e-4 * scale


# ---------------------------------------------------------------------------
# Variance step.


def _variance_fixture(seed, noise=0.02, n=40, n_subj=4):
    rng = np.random.default_rng(seed)
    basis = BSplineBasis.uniform(4, 4)
    coef = np.vstack(
        [
            _coef_for(basis, lambda t: np.exp(np.cos(2 * np.pi * t))),
            _coef_for(basis, lambda t: np.exp(np.sin(2 * np.pi * t))),
        ]
    )
    spl = [basis.spline(coef[a]) for a in (0, 1)]
    t = np.linspace(0, 1, n)
    smooth = np.column_stack([spl[0](t), spl[1](t)])
    curves = {
        f"s{i}": (t, smooth + noise * rng.standard_normal((n, 2))) for i in range(n_subj)
    }
    panel = _panel_from(curves, {sid: 0 for sid in curves})
    warps = WarpState.identity(ANCHORS, {sid: 0 for sid in curves})
    means = MeanWeights(coef, {0: np.zeros_like(coef)})
    return panel, means, warps, basis


def test_fit_variance_recovers_noise_scale():
    estimates = []
    for seed in (61, 67, 71):
        panel, means, warps, basis = _variance_fixture(seed)
        fitted, jac, w0 = build_linearization(panel, means, warps, basis)
        var, (ll0, ll1), _ = fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=80)
        assert ll1 >= ll0 - 1e-9
        estimates.append(var.noise_sd)
    assert 0.01 <= float(np.median(estimates)) <= 0.04


def test_fit_variance_noise_is_the_dense_profiled_estimate(caplog):
    # the Woodbury likelihood's noise variance against explicit covariances
    panel, means, warps, basis = _variance_fixture(73)
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        var, _, _ = fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=80)
    h_mat = matern_cov(var.warp_cov, ANCHORS[1:-1])
    quad, n_tot = 0.0, 0
    for c in panel.curves:
        s_mat = matern_cov(var.curve_cov, c.times)
        for a in (0, 1):
            b = jac[c.subject_id][a]
            r = c.values[:, a] - fitted[c.subject_id][:, a] + b @ w0[c.subject_id]
            quad += float(r @ np.linalg.solve(np.eye(len(r)) + s_mat + b @ h_mat @ b.T, r))
            n_tot += len(r)
    assert var.noise_sd**2 == pytest.approx(quad / n_tot, rel=1e-9)
    log_params = np.log(
        [var.curve_cov.amplitude, var.curve_cov.length_scale,
         var.warp_cov.amplitude, var.warp_cov.length_scale]
    )
    on_bound = np.isclose(log_params, _LOG_LO, rtol=0, atol=1e-12) | np.isclose(
        log_params, _LOG_HI, rtol=0, atol=1e-12
    )
    logged = [r for r in caplog.records if r.name == "warpclass.registration"]
    assert len(logged) == int(on_bound.sum())


def _mixed_grid_panel(order):
    """Four subjects on one grid, one on a jittered copy, one on a shorter grid.

    ``order`` assigns the data sets to subject ids, so a permutation gives
    the same subjects in another panel order.  Every subject carries a
    small random warp offset, so the linearization's back term is nonzero.
    """
    rng = np.random.default_rng(79)
    shared = np.linspace(0.0, 1.0, 30)
    jittered = np.clip(shared + 0.004 * rng.uniform(-1.0, 1.0, 30), 0.0, 1.0)
    return _panel_on_grids([shared] * 4 + [jittered, np.linspace(0.0, 1.0, 18)], order, rng)


def _stacked_grid_panel(order):
    """Three subjects on their own jittered 24-point grids, three on two 16-point grids.

    The likelihood stacks the three jittered grids together.  The 16-point
    grids hold one and two subjects, so each is a stack of its own.
    """
    rng = np.random.default_rng(83)
    base = np.linspace(0.0, 1.0, 24)
    jittered = [np.clip(base + 0.004 * rng.uniform(-1.0, 1.0, 24), 0.0, 1.0) for _ in range(3)]
    short = np.linspace(0.0, 1.0, 16)
    return _panel_on_grids([*jittered, short, short**1.3, short**1.3], order, rng)


def _panel_on_grids(grids, order, rng):
    """One subject per grid, in group 0, with noisy smooth curves and small warp offsets."""
    _, means, _, basis = _variance_fixture(79)
    noise = [0.1 * rng.standard_normal((len(t), 2)) for t in grids]
    data = [(t, np.column_stack([np.cos(3 * t), t * t]) + e) for t, e in zip(grids, noise)]
    offsets = [np.r_[0.0, 0.02 * rng.standard_normal(2), 0.0] for _ in grids]
    sids = {f"s{j}": i for j, i in enumerate(order)}
    panel = _panel_from({sid: data[i] for sid, i in sids.items()}, {sid: 0 for sid in sids})
    warps = WarpState.identity(ANCHORS, {sid: 0 for sid in sids})
    warps.subject_offsets.update({sid: offsets[i] for sid, i in sids.items()})
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    return panel, fitted, jac, w0


def _likelihood_args(monkeypatch, panel, fitted, jac, w0):
    """The positional arguments ``fit_variance`` hands to the likelihood, after the
    log parameters."""
    seen = []
    original = registration._variance_negloglik

    def recorded(*args, **kwargs):
        seen.append(args[1:])
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(registration, "_variance_negloglik", recorded)
        fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=1)
    return seen[0]


_LOG_POINTS = np.log([[1.0, 0.3, 1.0, 0.3], [40.0, 0.1, 0.02, 1.5], [0.05, 2.0, 5.0, 0.05]])


@pytest.mark.parametrize("log_params", _LOG_POINTS)
def test_variance_negloglik_is_the_dense_likelihood(monkeypatch, log_params):
    # the per-grid Woodbury evaluation against sigma^2 (I + S + B H B') per block
    panel, fitted, jac, w0 = _mixed_grid_panel(range(6))
    args = _likelihood_args(monkeypatch, panel, fitted, jac, w0)
    value, sigma2 = registration._variance_negloglik(log_params, *args)
    amp_s, rg_s, amp_h, rg_h = np.exp(log_params)
    h_mat = matern_cov(MaternParams(amp_h, rg_h, 1.5), ANCHORS[1:-1])
    quad = logdet = 0.0
    n_tot = 0
    for c in panel.curves:
        s_mat = matern_cov(MaternParams(amp_s, rg_s, 3.0), c.times)
        for a in (0, 1):
            b = jac[c.subject_id][a]
            r = c.values[:, a] - fitted[c.subject_id][:, a] + b @ w0[c.subject_id]
            cov = np.eye(len(r)) + s_mat + b @ h_mat @ b.T
            sign, block_logdet = np.linalg.slogdet(cov)
            assert sign > 0
            quad += float(r @ np.linalg.solve(cov, r))
            logdet += block_logdet
            n_tot += len(r)
    dense_sigma2 = quad / n_tot
    dense_value = 0.5 * (logdet + n_tot * np.log(dense_sigma2) + n_tot)
    assert sigma2 == pytest.approx(dense_sigma2, rel=1e-10)
    assert value == pytest.approx(dense_value, rel=1e-10)


def test_variance_negloglik_ignores_the_panel_order(monkeypatch):
    base = _likelihood_args(monkeypatch, *_mixed_grid_panel(range(6)))
    permuted = _likelihood_args(monkeypatch, *_mixed_grid_panel([4, 2, 5, 0, 3, 1]))
    assert list(permuted[2]) != list(base[2])  # the grids come in another order too
    for log_params in _LOG_POINTS:
        one = registration._variance_negloglik(log_params, *base)
        two = registration._variance_negloglik(log_params, *permuted)
        assert two[0] == pytest.approx(one[0], rel=1e-12)
        assert two[1] == pytest.approx(one[1], rel=1e-12)


def _dense_negloglik(panel, fitted, jac, w0, log_params):
    """The profiled likelihood from sigma^2 (I + S + B H B') per block, and its sigma^2."""
    amp_s, rg_s, amp_h, rg_h = np.exp(log_params)
    h_mat = matern_cov(MaternParams(amp_h, rg_h, 1.5), ANCHORS[1:-1])
    quad = logdet = 0.0
    n_tot = 0
    for c in panel.curves:
        s_mat = matern_cov(MaternParams(amp_s, rg_s, 3.0), c.times)
        for a in (0, 1):
            b = jac[c.subject_id][a]
            r = c.values[:, a] - fitted[c.subject_id][:, a] + b @ w0[c.subject_id]
            cov = np.eye(len(r)) + s_mat + b @ h_mat @ b.T
            sign, block_logdet = np.linalg.slogdet(cov)
            assert sign > 0
            quad += float(r @ np.linalg.solve(cov, r))
            logdet += block_logdet
            n_tot += len(r)
    return 0.5 * (logdet + n_tot * np.log(quad / n_tot) + n_tot), quad / n_tot


@pytest.mark.parametrize("log_params", _LOG_POINTS)
def test_stacked_variance_negloglik_is_the_dense_likelihood(monkeypatch, log_params):
    # several grids per stack, and two stacks of one length
    panel, fitted, jac, w0 = _stacked_grid_panel(range(6))
    args = _likelihood_args(monkeypatch, panel, fitted, jac, w0)
    assert {key: cols.shape[:2] for key, cols in args[3].items()} == {
        (24, 2, 0): (3, 2), (16, 2, 0): (1, 2), (16, 4, 0): (1, 4)
    }
    value, sigma2 = registration._variance_negloglik(log_params, *args)
    dense_value, dense_sigma2 = _dense_negloglik(panel, fitted, jac, w0, log_params)
    assert sigma2 == pytest.approx(dense_sigma2, rel=1e-10)
    assert value == pytest.approx(dense_value, rel=1e-10)


def test_stacked_variance_negloglik_ignores_the_panel_order(monkeypatch):
    base = _likelihood_args(monkeypatch, *_stacked_grid_panel(range(6)))
    permuted = _likelihood_args(monkeypatch, *_stacked_grid_panel([4, 2, 5, 0, 3, 1]))
    # the stacks come in another order, and so do the grids inside one
    assert list(permuted[2]) == [(16, 4, 0), (24, 2, 0), (16, 2, 0)]
    assert not np.array_equal(permuted[3][24, 2, 0], base[3][24, 2, 0])
    for log_params in _LOG_POINTS:
        one_grad, two_grad = np.empty(4), np.empty(4)
        one = registration._variance_negloglik(log_params, *base[:5], one_grad)
        two = registration._variance_negloglik(log_params, *permuted[:5], two_grad)
        assert two[0] == pytest.approx(one[0], rel=1e-12)
        assert two[1] == pytest.approx(one[1], rel=1e-12)
        assert np.allclose(two_grad, one_grad, rtol=1e-9, atol=1e-9)


def test_a_long_stack_is_split_at_the_byte_budget(monkeypatch):
    # room for two 24-point grids per stack: the three jittered grids make two
    whole = _likelihood_args(monkeypatch, *_stacked_grid_panel(range(6)))
    monkeypatch.setattr(registration, "_STACK_BYTES", 2 * 8 * 24 * 24)
    split = _likelihood_args(monkeypatch, *_stacked_grid_panel(range(6)))
    assert {key: cols.shape[0] for key, cols in split[3].items()} == {
        (24, 2, 0): 2, (24, 2, 1): 1, (16, 2, 0): 1, (16, 4, 0): 1
    }
    for log_params in _LOG_POINTS:
        one_grad, two_grad = np.empty(4), np.empty(4)
        one = registration._variance_negloglik(log_params, *whole[:5], one_grad)
        two = registration._variance_negloglik(log_params, *split[:5], two_grad)
        assert two == pytest.approx(one, rel=1e-12)
        assert np.allclose(two_grad, one_grad, rtol=1e-9, atol=1e-9)


def test_variance_negloglik_evaluates_each_stack_once(monkeypatch):
    # one kernel evaluation per stack, one Cholesky factor per grid in one
    # batched call per stack after the warp kernel H's, and no whitening
    # solve: CholFactor only inverts H
    panel, fitted, jac, w0 = _stacked_grid_panel(range(6))
    args = _likelihood_args(monkeypatch, panel, fitted, jac, w0)
    kernels, factored = [], []
    matern_distinct, cholesky = registration.matern_distinct, gp._cholesky

    def counted_kernel(params, dists):
        kernels.append(dists.index.shape)
        return matern_distinct(params, dists)

    def counted_cholesky(mats):
        factored.append(mats.shape)
        return cholesky(mats)

    monkeypatch.setattr(registration, "matern_distinct", counted_kernel)
    monkeypatch.setattr(gp, "_cholesky", counted_cholesky)
    calls = {"half_solve": 0, "solve": 0}
    for name in calls:
        original = getattr(CholFactor, name)

        def counted(self, rhs, name=name, original=original):
            calls[name] += 1
            return original(self, rhs)

        monkeypatch.setattr(CholFactor, name, counted)
    grad = np.empty(4)
    value, _ = registration._variance_negloglik(_LOG_POINTS[0], *args[:5], grad)
    assert value < registration._BIG
    assert kernels == [(3, 24, 24), (1, 16, 16), (1, 16, 16)]
    assert factored == [(len(ANCHORS) - 2,) * 2, *kernels]
    assert calls == {"half_solve": 0, "solve": 1}


def test_every_cholesky_factor_is_formed_by_one_routine(monkeypatch, caplog):
    formed = []
    cholesky = gp._cholesky

    def counted(mats):
        formed.append(np.shape(mats))
        return cholesky(mats)

    monkeypatch.setattr(gp, "_cholesky", counted)
    spd = np.eye(5) + np.ones((5, 5))
    CholFactor(spd)
    gp.chol_lower(spd)
    gp.spd_inverses(np.stack([spd, 2.0 * spd]))
    assert formed == [(5, 5), (5, 5), (2, 5, 5)]
    # a stack with one matrix that is not positive definite: the stack
    # fails, each matrix is factored alone, and only that one takes jitter
    formed.clear()
    mats = np.stack([spd, np.ones((5, 5)), 2.0 * spd])
    with caplog.at_level(logging.DEBUG, logger="warpclass.gp"):
        low, jitter = gp._cholesky(mats)
    assert formed == [(3, 5, 5), (5, 5), (5, 5), (5, 5)]
    assert jitter[0] == jitter[2] == 0.0 < jitter[1] == CholFactor(mats[1]).jitter
    (record,) = caplog.records
    assert f"jitter {jitter[1]:g}" in record.getMessage()
    assert np.array_equal(low[0], np.linalg.cholesky(spd))
    assert np.array_equal(low[2], np.linalg.cholesky(2.0 * spd))
    assert np.allclose(low[1] @ low[1].T, mats[1], atol=1e-6)
    # a variance step: the warp kernel H and each grid stack at every
    # evaluation, and the Newton step's curvature (at most 4 x 4)
    formed.clear()
    panel, fitted, jac, w0 = _stacked_grid_panel(range(6))
    evaluations = fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=1)[2]
    per_evaluation = [(len(ANCHORS) - 2,) * 2, (3, 24, 24), (1, 16, 16), (1, 16, 16)]
    newton = formed.pop(len(per_evaluation))
    assert len(newton) == 2 and newton[0] == newton[1] <= 4
    assert formed == per_evaluation * evaluations


@functools.cache
def _jittered_grid_panel():
    """30 subjects, each on its own 60-point grid jittered by 0.002, as in perfbench's
    irregular workload: the default byte budget stacks them 9, 9, 9 and 3."""
    rng = np.random.default_rng(89)
    base = np.linspace(0.0, 1.0, 60)
    grids = [np.clip(base + rng.uniform(-0.002, 0.002, 60), 0.0, 1.0) for _ in range(30)]
    return _panel_on_grids(grids, range(30), rng)


def _threads_of_a_variance_step(monkeypatch, panel, fitted, jac, w0) -> tuple:
    """With two usable CPUs, fit the variance parameters of ``panel``.  Returns the
    (on the main thread, live threads) pair of every stack kernel evaluation, and
    the live thread counts before and after the step."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []
    original = registration.matern_distinct

    def recorded(params, dists):
        seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
        return original(params, dists)

    monkeypatch.setattr(registration, "matern_distinct", recorded)
    before = threading.active_count()
    fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=3)
    return seen, before, threading.active_count()


def test_a_one_stack_panel_starts_no_thread(monkeypatch):
    panel, means, warps, basis = _variance_fixture(73)
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    seen, before, after = _threads_of_a_variance_step(monkeypatch, panel, fitted, jac, w0)
    assert seen and set(seen) == {(True, before)}
    assert after == before


def test_a_many_stack_panel_starts_no_thread(monkeypatch):
    # four stacks, each evaluated on the calling thread
    panel, fitted, jac, w0 = _jittered_grid_panel()
    assert len(_likelihood_args(monkeypatch, panel, fitted, jac, w0)[3]) == 4
    seen, before, after = _threads_of_a_variance_step(monkeypatch, panel, fitted, jac, w0)
    assert len(seen) % 4 == 0 and set(seen) == {(True, before)}
    assert after == before


@pytest.mark.parametrize("broken", [24, 16])
def test_an_unfactorable_stack_fails_the_likelihood(monkeypatch, broken):
    # the 24-point stack comes first and the two 16-point ones after it
    args = _stacked_grid_args()
    original = registration.spd_inverses

    def failing(mats):
        if mats.shape[-1] == broken:
            raise NumericalError("not positive definite")
        return original(mats)

    monkeypatch.setattr(registration, "spd_inverses", failing)
    grad = np.ones(4)
    value, sigma2 = registration._variance_negloglik(_LOG_POINTS[0], *args[:5], grad)
    assert value == registration._BIG and np.isnan(sigma2)
    assert np.array_equal(grad, np.zeros(4))


@settings(max_examples=40, deadline=None)
@given(
    unit=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    smooth_curve=st.sampled_from([0.5, 1.5, 2.2, 3.0]),
    smooth_warp=st.sampled_from([0.5, 1.5, 2.2, 3.0]),
)
def test_variance_negloglik_gradient_matches_central_differences(unit, smooth_curve, smooth_warp):
    # log parameters anywhere in the box, orders on the recurrence and kv paths
    args = _mixed_grid_args()
    args = (smooth_curve, smooth_warp, *args[2:5])
    log_params = _LOG_LO + np.array(unit) * (_LOG_HI - _LOG_LO)
    grad = np.empty(4)
    value, _ = registration._variance_negloglik(log_params, *args, grad)
    assert value < registration._BIG
    h = 1e-5
    for p, e in enumerate(np.eye(4)):
        up, down = (
            registration._variance_negloglik(log_params + d, *args)[0] for d in (h * e, -h * e)
        )
        assert abs((up - down) / (2 * h) - grad[p]) <= 1e-6 * (abs(grad[p]) + 1.0)


@settings(max_examples=40, deadline=None)
@given(
    unit=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    smooth_curve=st.sampled_from([0.5, 1.5, 2.2, 3.0]),
    smooth_warp=st.sampled_from([0.5, 1.5, 2.2, 3.0]),
)
def test_stacked_variance_negloglik_gradient_matches_central_differences(
    unit, smooth_curve, smooth_warp
):
    args = (smooth_curve, smooth_warp, *_stacked_grid_args()[2:5])
    log_params = _LOG_LO + np.array(unit) * (_LOG_HI - _LOG_LO)
    grad = np.empty(4)
    assert registration._variance_negloglik(log_params, *args, grad)[0] < registration._BIG
    h = 1e-5
    for p, e in enumerate(np.eye(4)):
        up, down = (
            registration._variance_negloglik(log_params + d, *args)[0] for d in (h * e, -h * e)
        )
        assert abs((up - down) / (2 * h) - grad[p]) <= 1e-6 * (abs(grad[p]) + 1.0)


@functools.cache
def _mixed_grid_args():
    """``_likelihood_args`` of the six-subject mixed-grid panel, built once."""
    with pytest.MonkeyPatch.context() as patch:
        return _likelihood_args(patch, *_mixed_grid_panel(range(6)))


@functools.cache
def _stacked_grid_args():
    """``_likelihood_args`` of the six-subject stacked-grid panel, built once."""
    with pytest.MonkeyPatch.context() as patch:
        return _likelihood_args(patch, *_stacked_grid_panel(range(6)))


def _dense_average_information(panel, fitted, jac, w0, log_params):
    """The AI matrix from explicit V = I + S + B H B', its derivatives dV_p and V^-1 per block."""
    amp_s, rg_s, amp_h, rg_h = np.exp(log_params)
    h_mat, dh_mat = matern_cov_grad(MaternParams(amp_h, rg_h, 1.5), GridDistances.of(ANCHORS[1:-1]))
    products, outer = np.zeros((4, 4)), np.zeros(4)
    quad, n_tot = 0.0, 0
    for c in panel.curves:
        s_mat, ds_mat = matern_cov_grad(MaternParams(amp_s, rg_s, 3.0), GridDistances.of(c.times))
        for a in (0, 1):
            b = jac[c.subject_id][a]
            r = c.values[:, a] - fitted[c.subject_id][:, a] + b @ w0[c.subject_id]
            v_inv = np.linalg.inv(np.eye(len(r)) + s_mat + b @ h_mat @ b.T)
            alpha = v_inv @ r
            dv_alpha = np.array([d @ alpha for d in (s_mat, ds_mat, b @ h_mat @ b.T, b @ dh_mat @ b.T)])
            products += dv_alpha @ v_inv @ dv_alpha.T
            outer += dv_alpha @ alpha
            quad += float(r @ alpha)
            n_tot += len(r)
    sigma2 = quad / n_tot
    return products / (2 * sigma2) - np.outer(outer, outer) / (2 * n_tot * sigma2**2)


@pytest.mark.parametrize("log_params", _LOG_POINTS)
@pytest.mark.parametrize("panel_of", [_mixed_grid_panel, _stacked_grid_panel])
def test_average_information_is_the_dense_one(monkeypatch, panel_of, log_params):
    panel, fitted, jac, w0 = panel_of(range(6))
    args = _likelihood_args(monkeypatch, panel, fitted, jac, w0)
    ai = np.empty((4, 4))
    assert registration._variance_negloglik(log_params, *args[:5], ai=ai)[0] < registration._BIG
    want = _dense_average_information(panel, fitted, jac, w0, log_params)
    assert np.max(np.abs(ai - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.array_equal(ai, ai.T)


def _noiseless_variance_args(monkeypatch) -> tuple:
    """The arguments of the noiseless panel's first variance step."""
    seen = []
    original = registration.fit_variance

    def recorded(*args):
        seen.append(args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(registration, "fit_variance", recorded)
        fit_registration(_noiseless_panel(), RegistrationConfig(max_outer=1, n_variance_updates=0))
    return seen[0][:6]


def _evaluated_points(monkeypatch) -> list:
    """(log parameters, value, gradient) of every likelihood evaluation."""
    seen = []
    original = registration._variance_negloglik

    def recorded(log_params, *args, **kwargs):
        out = original(log_params, *args, **kwargs)
        seen.append((np.array(log_params), out[0], args[5].copy()))
        return out

    monkeypatch.setattr(registration, "_variance_negloglik", recorded)
    return seen


@pytest.mark.parametrize("panel", ["fixture", "noiseless"])
def test_the_likelihood_never_falls_across_newton_iterations(monkeypatch, panel):
    # each run stops after its maxiter-th iteration, where a longer run passes
    if panel == "fixture":
        fixture, means, warps, basis = _variance_fixture(61)
        args = (fixture, *build_linearization(fixture, means, warps, basis), _var(), ANCHORS)
    else:
        args = _noiseless_variance_args(monkeypatch)
    logliks, start = [], None
    for maxiter in range(1, 13):
        _, (ll0, ll1), _ = fit_variance(*args, maxiter=maxiter)
        assert start is None or ll0 == start
        start = ll0
        logliks.append(ll1)
    assert logliks[0] > start
    assert all(b >= a for a, b in zip(logliks, logliks[1:]))


def test_a_parameter_on_a_bound_with_an_outward_gradient_stays_there(monkeypatch):
    # the noiseless panel's curve amplitude reaches its upper bound of 1e3,
    # where the likelihood still rises outwards: no later point leaves it
    args = _noiseless_variance_args(monkeypatch)
    seen = _evaluated_points(monkeypatch)
    var, _, n_evals = fit_variance(*args, maxiter=40)
    assert len(seen) == n_evals
    assert var.curve_cov.amplitude == pytest.approx(1e3, rel=1e-12)
    current, pinned = seen[0], 0
    for point in seen[1:]:
        if current[0][0] == _LOG_HI[0] and current[2][0] < 0:
            assert point[0][0] == _LOG_HI[0]
            pinned += 1
        if point[1] <= current[1]:  # an accepted step
            current = point
    assert pinned >= 5


def test_projected_newton_fixes_a_parameter_on_a_bound_with_an_outward_gradient():
    # f = (x - c)' A (x - c) / 2 with c above the upper bound in x_0, where
    # the gradient points out of the box.  The box minimum keeps x_0 = hi and
    # moves x_1 by the coupling in A; a Newton step in all four parameters,
    # then projected, would put x_1 at c_1 instead.
    lo, hi = registration._LOG_LO, registration._LOG_HI
    a_mat = np.array([[2.0, 1.5, 0, 0], [1.5, 2.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    centre = np.array([hi[0] + 1.0, 0.0, 0.5, -1.0])
    points = []

    def evaluate(x):
        points.append(x.copy())
        d = x - centre
        return 0.5 * d @ a_mat @ d, a_mat @ d, a_mat

    x0 = np.array([hi[0], -1.0, 0.0, 0.0])
    grad = a_mat @ (x0 - centre)
    assert grad[0] < 0
    x, point, n_iter, n_evals, short = registration._projected_newton(evaluate, x0, evaluate(x0), 10)
    assert short is None and n_evals == len(points) - 1
    assert all(p[0] == hi[0] for p in points)
    want = centre[1] - a_mat[1, 0] / a_mat[1, 1] * (hi[0] - centre[0])
    assert x[1] == pytest.approx(want, abs=1e-12)
    assert np.allclose(x[2:], centre[2:], atol=1e-12)


def test_projected_newton_evaluates_no_rejected_trial_again():
    # a curvature 1000 times too small: each Newton step overshoots onto the
    # upper box corner, which the halvings leave and a later iteration tries
    # again; the accepted path is the one that evaluates every trial
    centre = 0.5 * (registration._LOG_LO + registration._LOG_HI)
    points = []

    def evaluate(x):
        points.append(x.tobytes())
        d = x - centre
        return 0.5 * float(d @ d), d, 1e-3 * np.eye(4)

    x0 = centre - 0.1
    got = registration._projected_newton(evaluate, x0, evaluate(x0), 6)
    assert got[2] == 6 and got[3] == len(points) - 1 == 38
    assert len(set(points)) == len(points)
    want = _projected_newton_evaluating_repeats(evaluate, x0, evaluate(x0), 6)
    assert want[2] == 6 and want[3] > 38
    assert np.array_equal(got[0], want[0]) and got[1][0] == want[1][0]


def test_projected_newton_stops_short_when_no_step_lowers_the_value():
    # a gradient of the wrong sign: every step along the Newton direction rises
    def evaluate(x):
        return float(x @ x), -2.0 * x, 2.0 * np.eye(4)

    x0 = np.array([0.5, -0.5, 1.0, 0.25])
    x, point, n_iter, n_evals, short = registration._projected_newton(evaluate, x0, evaluate(x0), 10)
    assert short == "no step along the Newton direction lowered it"
    assert n_iter == 1 and n_evals == registration._VAR_HALVINGS
    assert np.array_equal(x, x0) and point[0] == float(x0 @ x0)


def _recorded_solves(monkeypatch) -> list:
    """(start, result) of every ``_projected_newton`` call the registration module makes."""
    solves = []
    original = registration._projected_newton

    def recorded(evaluate, x, point, maxiter):
        solves.append((np.array(x), original(evaluate, x, point, maxiter)))
        return solves[-1][1]

    monkeypatch.setattr(registration, "_projected_newton", recorded)
    return solves


def test_fit_variance_logs_a_short_stop(monkeypatch, caplog):
    solves = _recorded_solves(monkeypatch)
    panel, means, warps, basis = _variance_fixture(73)
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=1)
    ((_, (_, _, n_iter, _, short)),) = solves
    assert short == "iteration cap reached" and n_iter == 1  # the iteration cap
    short = [r.getMessage() for r in caplog.records if "stopped short" in r.getMessage()]
    assert short == ["variance step stopped short after 1 Newton iterations: iteration cap reached"]


@pytest.mark.parametrize("maxiter", [1, 2, 5])
def test_fit_variance_obeys_its_iteration_cap(monkeypatch, maxiter):
    solves = _recorded_solves(monkeypatch)
    seen = _evaluated_points(monkeypatch)
    panel, means, warps, basis = _variance_fixture(61)
    fitted, jac, w0 = build_linearization(panel, means, warps, basis)
    _, _, n_evals = fit_variance(panel, fitted, jac, w0, _var(), ANCHORS, maxiter=maxiter)
    assert len(solves) == 1
    _, (_, _, n_iter, solver_evals, _) = solves[0]
    assert 1 <= n_iter <= maxiter
    assert n_evals == 1 + solver_evals == len(seen)


def test_a_start_outside_the_box_fits_inside_it(monkeypatch):
    # a curve length scale of 10 lies above the box's 5: the start is projected
    solves = _recorded_solves(monkeypatch)
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    cfg = RegistrationConfig(
        n_interior_knots=4, variance_maxiter=20, max_outer=2, curve_cov_init=(1.0, 10.0, 3.0)
    )
    fit = fit_registration(panel, cfg)
    starts = [x for x, _ in solves]
    assert starts and all(np.all((_LOG_LO <= x) & (x <= _LOG_HI)) for x in starts)
    assert starts[0][1] == _LOG_HI[1]
    var = fit.var
    log_params = np.log(
        [var.curve_cov.amplitude, var.curve_cov.length_scale,
         var.warp_cov.amplitude, var.warp_cov.length_scale]
    )
    assert np.all((_LOG_LO <= log_params) & (log_params <= _LOG_HI))


# ---------------------------------------------------------------------------
# Outer loop on a small simulated panel.


@pytest.fixture(scope="module")
def small_fit():
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=40, max_outer=6)
    return panel, fit_registration(panel, cfg)


def test_outer_trace_is_monotone_within_phases(small_fit):
    _, fit = small_fit
    assert fit.trace_phases
    for phase in fit.trace_phases:
        for prev, cur in zip(phase, phase[1:]):
            assert cur <= prev + 1e-6 * max(1.0, abs(prev))
    assert fit.trace == fit.trace_phases[-1]
    assert 0.0 <= fit.warp_opt_converged_fraction <= 1.0


def test_designs_are_built_once_per_warp_state(monkeypatch):
    # one design at identity, then one after each outer iteration's warp step
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    calls = []
    original = registration.warp_design

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(registration, "warp_design", counted)
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=20, max_outer=3)
    fit = fit_registration(panel, cfg)
    assert len(calls) == 1 + fit.n_outer


def test_fitted_warps_satisfy_identifiability(small_fit):
    panel, fit = small_fit
    groups = sorted(fit.warps.group_offsets)
    # random warp offsets average to zero within each group
    for k in groups:
        members = [
            fit.warps.subject_offsets[sid]
            for sid in panel.subject_ids
            if fit.warps.group_of[sid] == k
        ]
        assert np.max(np.abs(np.mean(members, axis=0))) < 1e-8
    # group deviations of the mean weights sum to zero
    assert np.max(np.abs(sum(fit.means.group[k] for k in groups))) < 1e-8
    # every fitted warp is strictly increasing over a dense scan
    t = np.linspace(0.0, 1.0, 10_001)
    for sid in panel.subject_ids:
        g = np.clip(warp_values(fit.warps.anchors, fit.warps.ordinates(sid), t), 0.0, 1.0)
        assert np.all(np.diff(g) >= -1e-12)
        assert np.all(np.diff(fit.warps.ordinates(sid)) > 0)


def test_fit_round_trips_through_dict(small_fit):
    panel, fit = small_fit
    payload = json.loads(json.dumps(fit.to_dict()))
    back = RegistrationFit.from_dict(payload)
    assert np.array_equal(back.means.shared, fit.means.shared)
    for k in fit.means.group:
        assert np.array_equal(back.means.group[k], fit.means.group[k])
    for sid in panel.subject_ids:
        assert np.array_equal(back.warps.subject_offsets[sid], fit.warps.subject_offsets[sid])
    assert back.var.noise_sd == fit.var.noise_sd
    assert back.var.curve_cov == fit.var.curve_cov
    assert back.converged == fit.converged
    assert back.warp_steps_reverted == fit.warp_steps_reverted == 0
    assert payload["format_version"] == 2
    del payload["warp_steps_reverted"]
    with pytest.raises(DataError, match="fit.warp_steps_reverted is missing"):
        RegistrationFit.from_dict(payload)
    a = align_curves(panel, fit)
    b = align_curves(panel, back)
    assert np.array_equal(a.values, b.values)


def test_warp_evaluations_round_trip_and_are_none_in_older_artifacts(small_fit):
    _, fit = small_fit
    assert fit.warp_evaluations >= fit.warp_opt_total > 0
    payload = json.loads(json.dumps(fit.to_dict()))
    assert payload["warp_evaluations"] == fit.warp_evaluations
    assert RegistrationFit.from_dict(payload).warp_evaluations == fit.warp_evaluations
    # an artifact written before the count existed is refused
    del payload["warp_evaluations"]
    with pytest.raises(DataError, match="fit.warp_evaluations is missing"):
        RegistrationFit.from_dict(payload)
    payload["warp_evaluations"] = 1.5
    with pytest.raises(DataError, match="fit.warp_evaluations"):
        RegistrationFit.from_dict(payload)


def test_variance_evaluations_round_trip_and_are_none_in_older_artifacts(small_fit):
    _, fit = small_fit
    assert fit.variance_evaluations >= 3  # at least one per variance step
    payload = json.loads(json.dumps(fit.to_dict()))
    assert payload["variance_evaluations"] == fit.variance_evaluations
    assert RegistrationFit.from_dict(payload).variance_evaluations == fit.variance_evaluations
    # an artifact written before the count existed is refused
    del payload["variance_evaluations"]
    with pytest.raises(DataError, match="fit.variance_evaluations is missing"):
        RegistrationFit.from_dict(payload)
    payload["variance_evaluations"] = 1.5
    with pytest.raises(DataError, match="fit.variance_evaluations"):
        RegistrationFit.from_dict(payload)


def test_the_fit_counts_the_likelihood_evaluations_of_its_variance_steps(monkeypatch):
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    seen = _evaluated_points(monkeypatch)
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=20, max_outer=3)
    fit = fit_registration(panel, cfg)
    assert fit.variance_evaluations == len(seen) > 0


def test_the_fit_counts_the_residual_evaluations_of_its_warp_solves(monkeypatch):
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=5, n_subjects=10, n_obs=24))
    original = registration._levenberg_marquardt
    evaluated = []

    def solve(residuals, u0, max_evals):
        def counted(u, members):
            evaluated.append(len(members))
            return residuals(u, members)

        return original(counted, u0, max_evals)

    monkeypatch.setattr(registration, "_levenberg_marquardt", solve)
    cfg = RegistrationConfig(n_interior_knots=4, variance_maxiter=20, max_outer=3)
    fit = fit_registration(panel, cfg)
    assert fit.warp_evaluations == sum(evaluated) > 0


def test_fit_config_round_trips_through_dict():
    cfg = RegistrationConfig(
        n_interior_knots=5,
        spline_order=3,
        warp_anchors=(0.0, 0.4, 1.0),
        noise_sd_init=0.07,
        curve_cov_init=(2.0, 0.2, 2.5),
        warp_cov_init=(0.5, 0.4, 1.5),
        warp_maxfun=40,
        variance_maxiter=12,
        n_variance_updates=1,
        max_outer=3,
        tol_rel=1e-6,
        n_align_grid=51,
    )
    defaults = RegistrationConfig()
    assert all(getattr(cfg, f) != getattr(defaults, f) for f in cfg.to_dict())
    fit = replace(_handmade_fit(), config=cfg)
    back = RegistrationFit.from_dict(json.loads(json.dumps(fit.to_dict())))
    assert back.config == fit.config


def test_registration_requires_labels_and_two_groups():
    t = np.linspace(0, 1, 12)
    curves = (SubjectCurve("s1", t, np.zeros((12, 2))),)
    unlabeled = CurvePanel(curves, (ScalarRecord("s1", np.array([1.0])),))
    with pytest.raises(DataError, match="label"):
        fit_registration(unlabeled)
    one_group = CurvePanel(curves, (ScalarRecord("s1", np.array([1.0]), 0),))
    with pytest.raises(DataError, match="two groups"):
        fit_registration(one_group)


def _noiseless_panel():
    """Two groups of four identical noiseless curves.

    The truth is generated inside the default spline space, so zero error
    is attainable and any residual is the fit's own.
    """
    basis = BSplineBasis.uniform(8, 4)
    t = np.linspace(0, 1, 40)
    psi = basis.design(t)
    coef = {}
    for k, shift in ((0, 0.0), (1, 0.18)):
        coef[k] = np.vstack(
            [
                _coef_for(basis, lambda s, sh=shift: np.exp(np.cos(2 * np.pi * s - sh))),
                _coef_for(basis, lambda s, sh=shift: np.exp(np.sin(2 * np.pi * s + sh))),
            ]
        )
    return _panel_from(
        {f"s{i}": (t, psi @ coef[i // 4].T) for i in range(8)},
        {f"s{i}": i // 4 for i in range(8)},
    )


def test_noiseless_panel_is_reproduced_by_the_fit():
    panel = _noiseless_panel()
    cfg = RegistrationConfig(max_outer=4, n_variance_updates=1, variance_maxiter=40)
    fit = fit_registration(panel, cfg)
    for c in panel.curves:
        k = fit.warps.group_of[c.subject_id]
        ords = fit.warps.ordinates(c.subject_id)
        g = np.clip(warp_values(fit.warps.anchors, ords, c.times), 0.0, 1.0)
        pred = np.column_stack(
            [fit.basis.spline(fit.means.coef(a, k))(g) for a in (0, 1)]
        )
        rmse = float(np.sqrt(np.mean((pred - c.values) ** 2)))
        assert rmse < 1e-3
        assert np.max(np.abs(fit.warps.subject_offsets[c.subject_id])) < 5e-3


def test_ridge_weight_is_estimated_whatever_its_start():
    panel = _noiseless_panel()
    cfg = RegistrationConfig(max_outer=4, n_variance_updates=1, variance_maxiter=40)
    fit = fit_registration(panel, cfg)
    lam = fit.ridge_lambda
    # sigma^2 / tau^2 with no noise: the deviations are left unshrunk
    assert 0.0 < lam < 1e-6

    payload = json.loads(json.dumps(fit.to_dict()))
    back = RegistrationFit.from_dict(payload)
    assert back.ridge_lambda == lam
    ctx = build_context(panel, back.basis, back.warps.anchors, back.var)
    designs = warp_design(panel, back.warps, back.basis)
    normals = gls_normals(panel, back.warps, ctx, designs)
    from_one, from_small = (
        estimate_ridge(normals, back.means.shared, back.var.noise_sd, start)
        for start in (1.0, 1e-4)
    )
    assert 0.0 < from_one < 1e-6
    assert from_small == pytest.approx(from_one, rel=1e-6)
    value = penalized_objective(panel, back.means, back.warps, ctx, back.ridge_lambda, designs)
    assert value == pytest.approx(back.trace[-1], rel=1e-9)
    del payload["ridge_lambda"]
    with pytest.raises(DataError, match="fit.ridge_lambda is missing"):
        RegistrationFit.from_dict(payload)


def _projected_newton_evaluating_repeats(evaluate, x, point, maxiter):
    """The variance solver as it stood when every halved trial was evaluated,
    also one that projects onto the rejected trial before it."""
    lo, hi = registration._LOG_LO, registration._LOG_HI
    n_iter = n_evals = 0
    while True:
        value, grad, curvature = point[:3]
        if np.max(np.abs(np.clip(x - grad, lo, hi) - x)) <= registration._VAR_PGTOL:
            return x, point, n_iter, n_evals, None
        if n_iter == maxiter:
            return x, point, n_iter, n_evals, "iteration cap reached"
        n_iter += 1
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        step = np.zeros_like(x)
        step[free] = registration.CholFactor(curvature[np.ix_(free, free)]).solve(-grad[free])
        for halving in range(registration._VAR_HALVINGS):
            trial = np.clip(x + 0.5**halving * step, lo, hi)
            new = evaluate(trial)
            n_evals += 1
            if new[0] <= value:
                break
        else:
            return x, point, n_iter, n_evals, "no step along the Newton direction lowered it"
        x, point = trial, new
        if value - new[0] <= registration._VAR_FTOL * max(abs(value), abs(new[0]), 1.0):
            return x, point, n_iter, n_evals, None


def _noiseless_variance_steps(monkeypatch) -> tuple:
    """The noiseless panel's fit and the points each of its variance steps evaluated."""
    steps = []
    evaluate, fit_step = registration._variance_negloglik, registration.fit_variance

    def recorded(log_params, *args, **kwargs):
        steps[-1].append(np.array(log_params).tobytes())
        return evaluate(log_params, *args, **kwargs)

    def step(*args, **kwargs):
        steps.append([])
        return fit_step(*args, **kwargs)

    cfg = RegistrationConfig(max_outer=4, n_variance_updates=1, variance_maxiter=40)
    with monkeypatch.context() as patch:
        patch.setattr(registration, "_variance_negloglik", recorded)
        patch.setattr(registration, "fit_variance", step)
        fit = fit_registration(_noiseless_panel(), cfg)
    return fit, steps


def test_variance_steps_evaluate_no_point_twice(monkeypatch):
    # a step so long that it and its half project onto the same box corner
    # gives the same trial twice; the second is not evaluated
    fit, steps = _noiseless_variance_steps(monkeypatch)
    assert len(steps) == 2
    assert all(len(set(points)) == len(points) for points in steps)
    monkeypatch.setattr(registration, "_projected_newton", _projected_newton_evaluating_repeats)
    before, before_steps = _noiseless_variance_steps(monkeypatch)
    repeats = sum(len(points) - len(set(points)) for points in before_steps)
    assert repeats > 0
    assert fit.var == before.var and fit.ridge_lambda == before.ridge_lambda
    assert fit.variance_evaluations == before.variance_evaluations - repeats
    assert [sorted(set(p)) for p in steps] == [sorted(set(p)) for p in before_steps]


def test_variance_parameters_on_their_bounds_are_logged(caplog):
    # the noiseless panel's curve amplitude ends on its upper bound at both
    # variance steps, its warp length scale at the initial pass only: at the
    # refresh the likelihood peaks inside the box, near 0.68
    panel = _noiseless_panel()
    cfg = RegistrationConfig(max_outer=4, n_variance_updates=1, variance_maxiter=40)
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        fit = fit_registration(panel, cfg)
    assert fit.var.curve_cov.amplitude == pytest.approx(np.exp(_LOG_HI[0]), rel=1e-12)
    assert 0.5 < fit.var.warp_cov.length_scale < 1.0
    messages = [r.getMessage() for r in caplog.records if r.name == "warpclass.registration"]
    assert messages == [
        "variance parameter curve amplitude ends on its box bound 1000",
        "variance parameter warp length scale ends on its box bound 5",
        "variance parameter curve amplitude ends on its box bound 1000",
    ]


# ---------------------------------------------------------------------------
# Alignment and held-out warp estimation.


def test_align_single_identity_reproduces_linear_curves():
    t = np.linspace(0, 1, 50)
    curve = SubjectCurve("s1", t, np.column_stack([t, 1 - t]))
    grid = np.linspace(0, 1, 21)
    vals = align_single(curve, ANCHORS, ANCHORS.copy(), grid)
    assert np.max(np.abs(vals[:, 0] - grid)) < 1e-8
    assert np.max(np.abs(vals[:, 1] - (1 - grid))) < 1e-8


def test_align_single_undoes_a_known_warp():
    t = np.linspace(0, 1, 200)
    ords = ANCHORS + np.array([0.0, 0.06, -0.04, 0.0])
    g = hyman_interp(ANCHORS, ords)(t)
    mean = lambda s: np.exp(np.cos(2 * np.pi * s))
    curve = SubjectCurve("s1", t, np.column_stack([mean(g), mean(g)]))
    grid = np.linspace(0, 1, 31)
    vals = align_single(curve, ANCHORS, ords, grid)
    assert np.max(np.abs(vals[:, 0] - mean(grid))) < 5e-3


def _aligned_panel(data, offsets, order):
    """align_curves on a panel whose j-th subject has curve and warp ``order[j]``."""
    ids = [f"s{j:02d}" for j in range(len(order))]
    group_of = {sid: int(order[j] % 2) for j, sid in enumerate(ids)}
    panel = _panel_from({sid: data[order[j]] for j, sid in enumerate(ids)}, group_of)
    warps = WarpState.identity(ANCHORS, group_of)
    warps.group_offsets.update({0: np.zeros(4), 1: np.array([0.0, 0.03, -0.02, 0.0])})
    for j, sid in enumerate(ids):
        warps.subject_offsets[sid] = offsets[order[j]]
    fit = replace(_handmade_fit(), warps=warps)
    return panel, fit, align_curves(panel, fit)


def test_align_curves_equals_each_subjects_align_single_in_any_order():
    # jittered grids of three lengths, none shared; subject 3's warp is flat
    # at its start (FLAT_START), where the inverse needs many Newton steps
    rng = np.random.default_rng(41)
    data, offsets = [], []
    for i in range(12):
        n = (40, 47, 60)[i % 3]
        t = np.linspace(0.0, 1.0, n)
        t[1:-1] += rng.uniform(-0.002, 0.002, n - 2)
        data.append((t, rng.standard_normal((n, 2))))
        offsets.append(np.concatenate([[0.0], rng.uniform(-0.05, 0.05, 2), [0.0]]))
    offsets[3] = FLAT_START - ANCHORS - np.array([0.0, 0.03, -0.02, 0.0])
    panel, fit, aligned = _aligned_panel(data, offsets, np.arange(12))
    assert hyman_slopes(ANCHORS, fit.warps.ordinates("s03"))[0][0] == 0.0
    grid = np.linspace(0.0, 1.0, fit.config.n_align_grid)
    assert aligned.grid.tobytes() == grid.tobytes()
    want = [
        align_single(panel.curve(sid), ANCHORS, fit.warps.ordinates(sid), grid)
        for sid in panel.subject_ids
    ]
    assert aligned.values.tobytes() == np.stack(want).tobytes()
    # the same subjects in other orders, and a subset of them
    for order in (rng.permutation(12), rng.permutation(12)[:5], [3]):
        _, _, other = _aligned_panel(data, offsets, order)
        assert other.values.tobytes() == np.stack([want[i] for i in order]).tobytes()


def test_align_curves_names_a_subject_whose_warp_is_not_increasing():
    # refused when the fit is built, before any alignment
    data = [(np.linspace(0.0, 1.0, 30), np.zeros((30, 2)))] * 3
    offsets = [np.zeros(4), np.array([0.0, 0.4, 0.0, 0.0]), np.zeros(4)]
    message = "warps.subject_offsets.s01: the warp of subject s01 is not strictly increasing"
    with pytest.raises(DataError, match=message):
        _aligned_panel(data, offsets, np.arange(3))


def _handmade_fit(warp_amp=50.0):
    basis = BSplineBasis.uniform(4, 4)
    coef = np.vstack(
        [
            _coef_for(basis, lambda t: np.sin(2 * np.pi * t) + 2 * t),
            _coef_for(basis, lambda t: np.cos(2 * np.pi * t) - 2 * t),
        ]
    )
    means = MeanWeights(coef, {0: np.zeros_like(coef), 1: np.zeros_like(coef)})
    warps = WarpState.identity(ANCHORS, {"tr0": 0, "tr1": 1})
    return RegistrationFit(
        basis=basis,
        means=means,
        warps=warps,
        var=_var(curve_amp=1e-6, warp_amp=warp_amp, noise=0.02),
        config=RegistrationConfig(n_interior_knots=4),
        trace_phases=[[1.0]],
        converged=True,
        n_outer=1,
        warp_opt_total=0,
        warp_opt_converged=0,
        ridge_lambda=1.0,
        warp_steps_reverted=0,
        warp_evaluations=0,
        variance_evaluations=0,
    )


def _warped_curve(fit, off):
    """Group 0's mean curves of a handmade fit, warped by ``off``."""
    t = np.linspace(0, 1, 60)
    g = hyman_interp(ANCHORS, ANCHORS + off)(t)
    spl = [fit.basis.spline(fit.means.coef(a, 0)) for a in (0, 1)]
    return SubjectCurve("new", t, np.column_stack([spl[0](g), spl[1](g)]))


def test_fit_subject_warp_recovers_known_offsets():
    fit = _handmade_fit()
    off = np.array([0.0, 0.05, -0.04, 0.0])
    got, ok = fit_subject_warp(_warped_curve(fit, off), fit, label=0)
    assert ok
    assert np.max(np.abs(got - (ANCHORS + off))) < 5e-3


def test_fit_subject_warp_obeys_the_fits_warp_maxfun():
    fit = _handmade_fit()
    curve = _warped_curve(fit, np.array([0.0, 0.05, -0.04, 0.0]))
    capped = replace(fit, config=replace(fit.config, warp_maxfun=1))
    # one residual evaluation is the start itself: no step can be taken
    got, ok = fit_subject_warp(curve, capped, label=0)
    assert not ok
    assert np.array_equal(got, ANCHORS)
    assert fit_subject_warp(curve, fit, label=0)[1]


def test_fit_subject_warp_identity_for_unwarped_curve():
    fit = _handmade_fit()
    t = np.linspace(0, 1, 60)
    spl = [fit.basis.spline(fit.means.coef(a, 1)) for a in (0, 1)]
    curve = SubjectCurve("new", t, np.column_stack([spl[0](t), spl[1](t)]))
    got, ok = fit_subject_warp(curve, fit, label=1)
    assert ok
    assert np.max(np.abs(got - ANCHORS)) < 1e-3


def test_fit_subject_warp_raises_where_a_kernel_cannot_be_factored(monkeypatch, caplog):
    # no fallback to the class warp: the error reaches the caller, and
    # nothing is logged
    fit = _handmade_fit()
    curve = _warped_curve(fit, np.array([0.0, 0.05, -0.04, 0.0]))

    def unfactorable(s_mat):
        raise NumericalError("matrix not positive definite")

    monkeypatch.setattr(registration, "_curve_factor", unfactorable)
    # a grid already cached by another prediction would never reach the patch
    registration._held_out_grid.cache_clear()
    with caplog.at_level(logging.WARNING, logger="warpclass.registration"):
        for curves in (curve, [curve, curve]):
            with pytest.raises(NumericalError, match="matrix not positive definite"):
                fit_subject_warp(curves, fit, label=0)
    assert caplog.records == []


def test_fit_subject_warp_rejects_unknown_label():
    fit = _handmade_fit()
    t = np.linspace(0, 1, 20)
    curve = SubjectCurve("new", t, np.zeros((20, 2)))
    with pytest.raises(DataError, match="unknown group"):
        fit_subject_warp(curve, fit, label=7)
