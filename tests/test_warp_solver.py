"""The warp residual, its analytic Jacobian, and the held-out warp fit."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpclass import registration
from warpclass.basis import BSplineBasis, hyman_interp, hyman_slopes
from warpclass.curves import CurvePanel, ScalarRecord, SubjectCurve
from warpclass.gp import CholFactor, MaternParams, matern_cov
from warpclass.registration import (
    MeanWeights,
    RegistrationConfig,
    RegistrationFit,
    VarianceParams,
    GridTable,
    WarpProblem,
    WarpState,
    _grid_weights,
    _held_out_grid,
    _held_out_group,
    _held_out_start,
    _levenberg_marquardt,
    _mean_splines,
    build_context,
    fit_registration,
    fit_subject_warp,
    penalized_objective,
    subject_warp_residuals,
    warp_design,
    warp_values,
)
from warpclass.simeval import Study2Config, simulate_study2

ANCHORS = np.array([0.0, 0.33, 0.67, 1.0])
# Strictly increasing ordinates on ANCHORS whose Hyman slopes take the
# zero branch at the first anchor and the capped branch at the second.
BRANCHY = np.array([0.0, 0.05, 0.67, 1.0])


def _coefs(basis):
    grid = np.linspace(0.0, 1.0, 400)
    psi = basis.design(grid)
    targets = np.column_stack(
        [np.sin(2 * np.pi * grid) + 2 * grid, np.exp(np.cos(2 * np.pi * grid))]
    )
    return np.linalg.lstsq(psi, targets, rcond=None)[0].T


def _var(curve_amp=0.5, warp_amp=0.2, noise=0.05):
    return VarianceParams(noise, MaternParams(curve_amp, 0.3, 3.0), MaternParams(warp_amp, 0.3, 1.5))


def _problem(ords, n=30, seed=0):
    """Whitened problem with prior rows whose free offsets at zero give ``ords``.

    ``ords`` (n_w,) gives one subject.  (S, n_w) gives S subjects with the
    curves of ``seed`` (one per subject) on grids of ``n`` points (one per
    subject): subjects with equal ``n`` share their grid.
    """
    base = np.atleast_2d(ords)
    seeds, sizes = np.broadcast_to(seed, len(base)), np.broadcast_to(n, len(base))
    basis = BSplineBasis.uniform(4, 4)
    var = _var()
    h_fac = CholFactor(matern_cov(var.warp_cov, ANCHORS[1:-1]))
    times = [np.linspace(0.0, 1.0, size) for size in sizes]
    values = [np.random.default_rng(s).standard_normal((size, 2)) for s, size in zip(seeds, sizes)]
    prior = np.sqrt(2.0) * h_fac.half_solve(np.eye(h_fac.n))

    def grid_parts(t):
        s_fac = CholFactor(np.eye(len(t)) + matern_cov(var.curve_cov, t))
        return s_fac, _grid_weights(ANCHORS, t)

    splines = _mean_splines(basis, _coefs(basis))
    return WarpProblem.of(ANCHORS, base, times, values, grid_parts, splines, prior)


def _residuals(prob, u):
    """(r, J, S) of a one-subject problem at offsets u, or None where u is infeasible."""
    r, jac, ok, second = subject_warp_residuals(prob, np.asarray(u, dtype=float)[None])
    return (r[0], jac[0], second[0]) if ok[0] else None


def _half_grad(res):
    """J'r of a ``_residuals`` triple."""
    return res[1].T @ res[0]


def _crosses_knot(prob, points) -> bool:
    """Whether a warped grid time passes an interior mean-spline knot among the offsets ``points``.

    The warp is smooth in the offsets away from slope-filter switches, so
    over a stencil a few 1e-6 wide a warped time stays between its values
    at the stencil's points.
    """
    t = np.linspace(0.0, 1.0, prob.lengths[0].values.shape[2])
    warped = []
    for p in points:
        ords = prob.base[0].copy()
        ords[1:-1] += p
        warped.append(hyman_interp(prob.anchors, ords)(t))
    lo, hi = np.min(warped, axis=0)[:, None], np.max(warped, axis=0)[:, None]
    knots = np.unique(prob.mean.t)
    knots = knots[(knots > 0.0) & (knots < 1.0)]
    return bool(np.any((lo <= knots) & (knots <= hi)))


def _check_jacobian(base, u, hess_error=0.0) -> int:
    """Compare J, and J'J + S, with finite differences; returns the columns compared.

    Column m of J is compared with the central difference of r in u_m, and
    column m of J'J + S with that of the half gradient J'r.  A column is
    skipped where the forward and backward differences of r disagree, i.e.
    a slope-filter branch switches inside the stencil.

    The mean spline's third derivative jumps at its knots, so the derivative
    of J'J + S jumps where a warped time crosses one, and a central
    difference across that crossing is only first order in the step.  Only
    where ``_crosses_knot`` finds such a crossing in the central stencil is
    J'J + S compared instead with a second-order one-sided difference of
    J'r (stencil u, u±e, u±2e), on a side whose stencil holds no crossing;
    a column with a crossing on both sides is skipped.  ``hess_error``
    scales J'J + S by 1 + hess_error, to see that the check fails.
    """
    prob = _problem(base)
    out = _residuals(prob, u)
    if out is None:
        return 0  # u pushed the ordinates out of order
    r, jac, second = out
    hess = (jac.T @ jac + second) * (1.0 + hess_error)
    eps = 1e-6
    checked = 0
    for m in range(len(u)):
        e = np.zeros(len(u))
        e[m] = eps
        up = _residuals(prob, u + e)
        dn = _residuals(prob, u - e)
        if up is None or dn is None:
            continue
        forward = (up[0] - r) / eps
        backward = (r - dn[0]) / eps
        if np.max(np.abs(forward - backward)) > 1e-3 * max(1.0, np.max(np.abs(forward))):
            continue
        central = (up[0] - dn[0]) / (2 * eps)
        scale = max(1.0, np.max(np.abs(central)))
        assert np.max(np.abs(jac[:, m] - central)) < 1e-6 * scale
        if not _crosses_knot(prob, [u - e, u, u + e]):
            diff = (_half_grad(up) - _half_grad(dn)) / (2 * eps)
        else:
            diff = None
            for sign, near in ((1, up), (-1, dn)):
                far = _residuals(prob, u + 2 * sign * e)
                if far is not None and not _crosses_knot(prob, [u, u + sign * e, u + 2 * sign * e]):
                    sided = 4 * _half_grad(near) - 3 * _half_grad(out) - _half_grad(far)
                    diff = sign * sided / (2 * eps)
                    break
            if diff is None:
                continue
        scale = max(1.0, np.max(np.abs(diff)))
        assert np.max(np.abs(hess[:, m] - diff)) < 1e-6 * scale
        checked += 1
    return checked


def test_jacobian_on_the_zero_and_capped_slope_branches():
    d, _ = hyman_slopes(ANCHORS, BRANCHY)
    secants = np.diff(BRANCHY) / np.diff(ANCHORS)
    assert d[0] == 0.0
    assert d[1] == 3.0 * secants[0]
    assert _check_jacobian(BRANCHY, np.zeros(2)) == 2
    assert _check_jacobian(BRANCHY, np.array([0.004, -0.006])) == 2
    # and on the unfiltered branch at every anchor
    d, _ = hyman_slopes(ANCHORS, ANCHORS)
    assert np.all(d > 0.0) and np.all(d < 3.0)
    assert _check_jacobian(ANCHORS, np.zeros(2)) == 2
    assert _check_jacobian(ANCHORS, np.array([0.01, -0.02])) == 2


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.floats(0.02, 1.0), min_size=3, max_size=3),
    u=st.lists(st.floats(-0.01, 0.01), min_size=2, max_size=2),
)
@example(steps=list(np.diff(BRANCHY)), u=[0.0, 0.0])
def test_warp_jacobian_matches_central_differences(steps, u):
    base = np.concatenate([[0.0], np.cumsum(steps)])
    _check_jacobian(base / base[-1], np.asarray(u))


@pytest.mark.parametrize(
    "base, u", [(ANCHORS, [0.01, -0.02]), (BRANCHY, [0.004, -0.006]), (ANCHORS, [0.0, 0.0])]
)
@pytest.mark.parametrize("hess_error", [1e-5, -1e-5])
def test_the_hessian_check_fails_on_a_hessian_wrong_by_1e_5(base, u, hess_error):
    u = np.asarray(u)
    prob = _problem(base)
    for e in 1e-6 * np.eye(2):
        assert not _crosses_knot(prob, [u - e, u, u + e])
    with pytest.raises(AssertionError):
        _check_jacobian(base, u, hess_error)


def test_the_hessian_check_takes_a_one_sided_difference_where_a_warped_time_crosses_a_knot():
    # u_0 at which grid time 12/29 of the identity warp is warped just above the knot at 0.4
    prob = _problem(ANCHORS)
    t12 = 12 / 29
    lo, hi = -0.05, 0.0
    for _ in range(100):
        mid = (lo + hi) / 2
        ords = ANCHORS + np.array([0.0, mid, 0.0, 0.0])
        lo, hi = (lo, mid) if hyman_interp(ANCHORS, ords)(np.array([t12]))[0] > 0.4 else (mid, hi)
    u, e = np.array([hi, 0.0]), np.array([1e-6, 0.0])
    assert _crosses_knot(prob, [u - e, u, u + e])
    assert not _crosses_knot(prob, [u, u + e, u + 2 * e])
    # the central difference of J'r misses column 0 of J'J + S by more than the bound
    _, jac, second = _residuals(prob, u)
    central = (_half_grad(_residuals(prob, u + e)) - _half_grad(_residuals(prob, u - e))) / 2e-6
    miss = np.max(np.abs((jac.T @ jac + second)[:, 0] - central))
    assert miss > 1e-6 * max(1.0, np.max(np.abs(central)))
    assert _check_jacobian(ANCHORS, u) == 2
    for hess_error in (1e-5, -1e-5):
        with pytest.raises(AssertionError):
            _check_jacobian(ANCHORS, u, hess_error)


def test_mean_splines_give_two_derivatives_and_zero_curvature_when_piecewise_linear():
    t = np.linspace(0.0, 1.0, 7)
    cubic = BSplineBasis.uniform(4, 4)
    mean, slope, curvature = _mean_splines(cubic, _coefs(cubic))
    assert np.allclose(curvature(t), mean(t, 2)) and np.allclose(slope(t), mean(t, 1))
    linear = BSplineBasis.uniform(3, 2)
    coefs = np.random.default_rng(0).standard_normal((2, linear.size))
    curvature = _mean_splines(linear, coefs)[2](t)
    assert curvature.shape == (7, 2) and not curvature.any()


def test_residual_norm_equals_the_subjects_objective_term():
    basis = BSplineBasis.uniform(4, 4)
    coefs = _coefs(basis)
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 40)
    values = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
    values = values + 0.05 * rng.standard_normal(values.shape)
    panel = CurvePanel(
        (SubjectCurve("s1", t, values),), (ScalarRecord("s1", np.array([1.0]), 0),)
    )
    warps = WarpState.identity(ANCHORS, {"s1": 0})
    warps.group_offsets[0][1:-1] = [0.02, -0.01]
    warps.subject_offsets["s1"][1:-1] = [0.03, 0.015]
    means = MeanWeights(coefs, {0: 0.1 * rng.standard_normal(coefs.shape)})
    table, var = GridTable(panel, ANCHORS), _var()
    ctx = build_context(panel, basis, var, table, table.factors(var.curve_cov))
    designs = warp_design(panel, warps, basis)
    want = penalized_objective(panel, means, warps, ctx, ridge_lambda=0.0, designs=designs)

    prob = WarpProblem.of(
        ANCHORS, [ANCHORS + warps.group_offsets[0]], [t], [values],
        lambda _: ctx.grids[t.tobytes()], _mean_splines(basis, means.coefs(0)),
        ctx.prior_rows,
    )
    r, _, _ = _residuals(prob, warps.subject_offsets["s1"][1:-1])
    assert abs(r @ r - want) <= 1e-10 * abs(want)


def _solve(residuals, u0, max_evals):
    """``_levenberg_marquardt`` from ``u0``, with its first evaluation, at all
    problems, made here as its callers make it."""
    u0 = np.array(u0, dtype=float)
    return _levenberg_marquardt(residuals, u0, residuals(u0, np.arange(len(u0))), max_evals)


def _all(u, members):
    """The problems a residual call evaluates: ``members``, or all of them where it is None."""
    return np.arange(len(u)) if members is None else members


def _rosenbrock(seen, bound=np.inf):
    """Rosenbrock's residuals with their second-order term; infeasible past u_0 = ``bound``."""

    def residuals(u, members):
        (u,) = u  # a batch of one
        if u[0] > bound:
            return np.zeros((1, 2)), np.zeros((1, 2, 2)), np.array([False]), np.zeros((1, 2, 2))
        r = np.array([10.0 * (u[1] - u[0] ** 2), 1.0 - u[0]])
        seen.append(float(r @ r))
        jac = np.array([[[-20.0 * u[0], 10.0], [-1.0, 0.0]]])
        second = np.array([[[-20.0 * r[0], 0.0], [0.0, 0.0]]])  # r_0 times its Hessian
        return r[None], jac, np.array([True]), second

    return residuals


def test_levenberg_marquardt_descends_and_respects_infeasibility():
    seen = []
    (u,), (f,), (converged,), (f0,), (evals,) = _solve(
        _rosenbrock(seen), [[-1.2, 1.0]], 200
    )
    assert converged and f < 1e-12 and np.allclose(u, 1.0, atol=1e-6)
    assert f == min(seen)  # only descending steps are accepted
    assert f0 == seen[0]  # the start value, from the first evaluation
    assert evals == len(seen)

    # past u_0 = 0.5 the residual is undefined: the solver stays feasible
    seen.clear()
    (u,), (f,), _, _, _ = _solve(_rosenbrock(seen, 0.5), [[-1.2, 1.0]], 200)
    assert u[0] <= 0.5 and f == min(seen) and f < 0.3
    (u,), (f,), (converged,), (f0,), (evals,) = _solve(
        _rosenbrock(seen, -2.0), [[0.0, 0.0]], 5
    )
    assert f == np.inf and not converged
    assert f0 == np.inf and evals == 1


def test_levenberg_marquardt_where_the_newton_model_is_indefinite():
    for start in ([0.0, 1.0], [0.0, 0.02]):
        seen = []
        residuals = _rosenbrock(seen)
        _, jac, _, second = residuals(np.array([start]), np.arange(1))
        # J'J + S has a negative eigenvalue at the start
        assert np.linalg.eigvalsh(jac[0].T @ jac[0] + second[0])[0] < 0
        seen.clear()
        (u,), (f,), (converged,), (f0,), (evals,) = _solve(residuals, [start], 200)
        assert converged and f < 1e-12 and np.allclose(u, 1.0, atol=1e-6)
        assert f <= f0 and evals == len(seen)
        # never an ascent: stopped after any number of rounds, the solver
        # holds the best point it has evaluated
        for budget in range(1, evals + 1):
            seen.clear()
            _, (f,), _, (f0,), _ = _solve(residuals, [start], budget)
            assert f == min(seen) <= f0
    # From (0, 0.02) the first damped Newton step is not a descent step of
    # the model: the damping rises without an evaluation, so a budget of
    # two rounds makes only the first evaluation and stays at the start.
    seen = []
    (u,), (f,), (converged,), (f0,), (evals,) = _solve(
        _rosenbrock(seen), [[0.0, 0.02]], 2
    )
    assert len(seen) == evals == 1 and not converged
    assert u.tolist() == [0.0, 0.02] and f == f0 == seen[0]


def _large_residual(curvature, newton=True):
    """r(x) = [x + 1, c x^2 + x - 1], whose minimum x = 0 (for |c| < 1) leaves f = 2.

    With ``newton`` False the second-order term is left out, and the
    solver takes Gauss-Newton steps, which converge only linearly here,
    at the rate |c| (Dennis & Schnabel 1996, 10.2).
    """

    def residuals(u, members):
        x = u[:, 0]
        r = np.stack([x + 1.0, curvature * x * x + x - 1.0], axis=1)
        jac = np.stack([np.ones_like(x), 2.0 * curvature * x + 1.0], axis=1)[:, :, None]
        second = (2.0 * curvature * newton) * r[:, 1, None, None]
        return r, jac, np.ones(len(x), dtype=bool), second

    return residuals


def test_newton_steps_need_fewer_evaluations_where_the_residual_stays_large():
    for curvature in (0.5, -0.5, 0.9):
        for x0 in (1.0, 3.0):
            newton = _solve(_large_residual(curvature), [[x0]], 200)
            gauss = _solve(_large_residual(curvature, False), [[x0]], 200)
            for (u,), (f,), (converged,), _, _ in (newton, gauss):
                assert converged and abs(u[0]) < 1e-4 and abs(f - 2.0) < 1e-9
            assert 2 * newton[4][0] <= gauss[4][0]


def _tiny_or_parabola(u, members):
    """Two one-offset problems: 0 has r = 1e8 u, infeasible below u = 1e-16; 1 is a parabola."""
    r, jac, ok = np.zeros((len(u), 2)), np.zeros((len(u), 2, 1)), np.ones(len(u), dtype=bool)
    second = np.zeros((len(u), 1, 1))
    for row, ((x,), member) in enumerate(zip(u, _all(u, members))):
        if member == 0:
            r[row, 0], jac[row, 0, 0], ok[row] = 1e8 * x, 1e8, x >= 1e-16
        else:
            r[row] = [x - 1.0, 10.0 * (x * x - 1.0)]
            jac[row, :, 0] = [1.0, 20.0 * x]
            second[row] = 20.0 * r[row, 1]
    return r, jac, ok, second


def test_a_rejected_step_promising_too_little_ends_the_solve_as_converged():
    # The first trial step lands below 1e-16 and is rejected, and its
    # predicted decrease (~1e-16) is below _FTOL: converged, nothing moved.
    counts = np.zeros(2, dtype=int)
    u, f, converged, f0, evals = _solve(
        _counted(_tiny_or_parabola, counts, []), np.array([[1e-16]]), 40
    )
    assert converged[0] and u[0, 0] == 1e-16 and f[0] == f0[0] == (1e8 * 1e-16) ** 2
    assert counts[0] == evals[0] == 2
    # the same next to a problem that takes several steps
    counts[:] = 0
    u, f, converged, f0, evals = _solve(
        _counted(_tiny_or_parabola, counts, []), np.array([[1e-16], [3.0]]), 40
    )
    assert converged.tolist() == [True, True] and counts[0] == 2 and counts[1] > 2
    assert evals.tolist() == counts.tolist()
    assert u[0, 0] == 1e-16 and f[0] == f0[0]
    assert abs(u[1, 0] - 1.0) < 1e-6 and f[1] < 1e-12


def test_batched_residuals_equal_each_subjects_alone():
    # five subjects on three grids, two of them shared, of two lengths
    rng = np.random.default_rng(3)
    base = ANCHORS + np.column_stack([np.zeros(5), rng.normal(0, 0.03, (5, 2)), np.zeros(5)])
    seeds, sizes = [1, 2, 3, 4, 5], [30, 24, 30, 24, 17]
    batch = _problem(base, n=sizes, seed=seeds)
    assert sum(len(length.factors) for length in batch.lengths) == 3
    u = rng.normal(0, 0.02, (5, 2))
    u[3] = [0.5, -0.5]  # out of order
    r, jac, ok, second = subject_warp_residuals(batch, u)
    assert r.shape == (5, 2 * 30 + 2) and jac.shape == (5, 2 * 30 + 2, 2)
    assert second.shape == (5, 2, 2) and np.allclose(second, second.transpose(0, 2, 1))
    assert ok.tolist() == [True, True, True, False, True]
    for i in range(5):
        alone = _problem(base[i], n=sizes[i], seed=seeds[i])
        r1, jac1, ok1, second1 = subject_warp_residuals(alone, u[i : i + 1])
        rows = 2 * sizes[i] + 2
        assert ok1[0] == ok[i]
        assert r[i, :rows].tobytes() == r1[0].tobytes()
        assert jac[i, :rows].tobytes() == jac1[0].tobytes()
        assert second[i].tobytes() == second1[0].tobytes()
        assert not r[i, rows:].any() and not jac[i, rows:].any()
    # a subset of the members, in any grids, gives the same rows
    some = np.array([1, 4])
    r2, jac2, _, second2 = subject_warp_residuals(batch, u[some], some)
    assert r2.tobytes() == r[some].tobytes() and jac2.tobytes() == jac[some].tobytes()
    assert second2.tobytes() == second[some].tobytes()


def _grid_problem(base, times, values, prior):
    """The problem of the subjects ``base`` observed at ``times`` with curves ``values``.

    Each distinct grid gets the factor of I + S under ``_var``'s curve
    kernel, and the problem ``_var``'s warp-prior rows where ``prior`` is
    set.
    """
    basis = BSplineBasis.uniform(4, 4)
    var = _var()

    def grid_parts(t):
        return CholFactor(np.eye(len(t)) + matern_cov(var.curve_cov, t)), _grid_weights(ANCHORS, t)

    rows = registration._prior_rows(var.warp_cov, ANCHORS) if prior else None
    splines = _mean_splines(basis, _coefs(basis))
    return WarpProblem.of(ANCHORS, base, times, values, grid_parts, splines, rows)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16), size=st.integers(2, 12), prior=st.booleans(), data=st.data(),
)
def test_each_subjects_rows_equal_its_batch_of_one_in_any_subset_and_order(seed, size, prior, data):
    # 1-3 observation lengths of 1-4 grids each; with more subjects than
    # grids, some subjects share a grid
    rng = np.random.default_rng(seed)
    lengths = data.draw(st.lists(st.sampled_from([9, 17, 24, 30]), min_size=1, max_size=3, unique=True))
    grids = [
        np.sort(rng.uniform(0.0, 1.0, n)) for n in lengths for _ in range(data.draw(st.integers(1, 4)))
    ]
    times = [grids[g] for g in rng.permutation(np.arange(size) % len(grids))]
    values = [rng.standard_normal((len(t), 2)) for t in times]
    base = ANCHORS + np.column_stack(
        [np.zeros(size), rng.normal(0, 0.03, (size, 2)), np.zeros(size)]
    )
    batch = _grid_problem(base, times, values, prior)
    n_grids = sum(len(length.factors) for length in batch.lengths)
    assert n_grids == len({t.tobytes() for t in times})
    assert len(batch.lengths) == len({len(t) for t in times})
    members = np.array(data.draw(st.permutations(range(size))))[: data.draw(st.integers(1, size))]
    u = rng.normal(0, 0.02, (len(members), 2))
    if data.draw(st.booleans()):
        u[0] = [0.5, -0.5]  # out of order
    r, jac, ok, second = subject_warp_residuals(batch, u, members)
    m = 2 if prior else 0
    assert r.shape == (len(members), 2 * max(len(t) for t in times) + m)
    for j, i in enumerate(members):
        alone = _grid_problem(base[i : i + 1], [times[i]], [values[i]], prior)
        r1, jac1, ok1, second1 = subject_warp_residuals(alone, u[j : j + 1])
        rows = 2 * len(times[i]) + m
        assert ok1[0] == ok[j]
        assert r[j, :rows].tobytes() == r1[0].tobytes()
        assert jac[j, :rows].tobytes() == jac1[0].tobytes()
        assert second[j].tobytes() == second1[0].tobytes()
        assert not r[j, rows:].any() and not jac[j, rows:].any()


def _counted(residuals, counts, calls):
    """``residuals`` counting each problem's evaluations and recording each call's members."""

    def wrapped(u, members):
        counts[_all(u, members)] += 1
        calls.append(_all(u, members).tolist())
        return residuals(u, members)

    return wrapped


def _singular(residuals, member):
    """``residuals`` with problem ``member``'s damped system made singular.

    Its Jacobian and second-order term are zero but for a tiny first entry
    of the Jacobian, whose square is below the damping floor's underflow,
    and its residual is large enough for the gradient to pass the stopping
    test; so the damped matrix has an exact zero row.
    """

    def wrapped(u, members):
        r, jac, ok, second = residuals(u, members)
        at = _all(u, members) == member
        r[at], jac[at], second[at] = 0.0, 0.0, 0.0
        r[at, 0], jac[at, 0, 0] = 1e151, 1e-156
        return r, jac, ok, second

    return wrapped


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 8), seed=st.integers(0, 2**16), data=st.data())
def test_lock_step_solve_equals_each_problem_solved_alone(size, seed, data):
    rng = np.random.default_rng(seed)
    base = ANCHORS + np.column_stack(
        [np.zeros(size), rng.normal(0, 0.04, (size, 2)), np.zeros(size)]
    )
    seeds = rng.integers(0, 2**16, size)
    u0 = rng.normal(0, 0.05, (size, 2))
    infeasible, singular = data.draw(st.permutations(range(size)))[:2]
    u0[infeasible] = [0.5, -0.5]  # the ordinates start out of order
    max_evals = data.draw(st.sampled_from([1, 2, 3, 4, 40]))

    counts, calls = np.zeros(size, dtype=int), []
    residuals = _singular(partial(subject_warp_residuals, _problem(base, seed=seeds)), singular)
    got = _solve(_counted(residuals, counts, calls), u0, max_evals)
    for i in range(size):
        alone = np.zeros(1, dtype=int)
        residuals = partial(subject_warp_residuals, _problem(base[i], seed=seeds[i]))
        if i == singular:
            residuals = _singular(residuals, 0)
        want = _solve(_counted(residuals, alone, []), u0[i : i + 1], max_evals)
        for a, b in zip(got, want):
            assert np.allclose(a[i], b[0], rtol=1e-12, atol=0.0)
        assert counts[i] == alone[0]
    # each round evaluates the running problems in one call
    assert all(members == sorted(set(members)) for members in calls)
    assert calls[0] == list(range(size)) and len(calls) >= counts.max()
    assert got[1][infeasible] == got[3][infeasible] == np.inf and counts[infeasible] == 1
    assert counts[singular] == 1 and not got[2][singular]
    assert np.array_equal(got[0][singular], u0[singular])
    assert np.all(counts <= max_evals) and np.array_equal(got[4], counts)


def _lm_testing_the_gradient_each_round(residuals, u0, max_evals):
    """The solver as it stood when the gradient test opened each round.

    A problem whose accepted trial has a small gradient took part in one
    more round's damped solve and was found converged only then, so at
    the evaluation cap it reported converged=False.  Kept as the oracle
    for the values, the points and the evaluation counts.
    """
    gtol, ftol = registration._GTOL, registration._FTOL
    u = np.array(u0, dtype=float)
    size, m = u.shape
    f0, grad, jtj, hess = registration._gauss_newton_parts(*residuals(u, np.arange(size)))
    f, converged, evals = f0.tolist(), [False] * size, [1] * size
    lam, nu = [1e-3] * size, [2.0] * size
    running = [j for j in range(size) if f[j] < np.inf]
    eye = np.eye(m)
    for _ in range(max_evals - 1):
        if not running:
            break
        idx = np.array(running)
        g = grad[idx]
        diag = jtj[idx].diagonal(0, 1, 2)
        diag = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True))
        damping = np.array([lam[j] for j in running])[:, None] * diag
        step = registration._damped_steps(hess[idx] + damping[..., None] * eye, -g)
        pred = ((damping * step - g) * step).sum(axis=1).tolist()
        small = [2.0 * max(map(abs, row)) <= gtol for row in g.tolist()]
        point = u[idx] + step
        tried = []
        for p, j in enumerate(running):
            if small[p]:
                converged[j] = True
            elif pred[p] > 0.0:
                tried.append(p)
            else:
                lam[j], nu[j] = lam[j] * nu[j], 2.0 * nu[j]
        if tried:
            parts = registration._gauss_newton_parts(*residuals(point[tried], idx[tried]))
        for q, p in enumerate(tried):
            j, value = running[p], float(parts[0][q])
            evals[j] += 1
            tol = ftol * max(f[j], 1.0)
            if value < f[j]:
                gain = (f[j] - value) / pred[p]
                lam[j] *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu[j] = 2.0
                converged[j] = f[j] - value <= tol
                u[j], f[j] = point[p], value
                grad[j], jtj[j], hess[j] = (part[q] for part in parts[1:])
            elif pred[p] <= tol:
                converged[j] = True
            else:
                lam[j], nu[j] = lam[j] * nu[j], 2.0 * nu[j]
        running = [j for j in running if not converged[j]]
    return u, np.array(f), np.array(converged), f0, np.array(evals)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 8), seed=st.integers(0, 2**16), data=st.data())
def test_the_gradient_test_at_an_accepted_trial_changes_only_converged_at_the_cap(
    size, seed, data
):
    rng = np.random.default_rng(seed)
    base = ANCHORS + np.column_stack(
        [np.zeros(size), rng.normal(0, 0.04, (size, 2)), np.zeros(size)]
    )
    u0 = rng.normal(0, 0.05, (size, 2))
    residuals = partial(subject_warp_residuals, _problem(base, seed=rng.integers(0, 2**16, size)))
    full = _solve(residuals, u0, 40)
    budgets = {1, 2, 3, 40, *full[4].tolist(), *(full[4] - 1).tolist()}
    for max_evals in sorted(b for b in budgets if b >= 1):
        got = _solve(residuals, u0, max_evals)
        want = _lm_testing_the_gradient_each_round(residuals, u0, max_evals)
        for i in (0, 1, 3, 4):  # u, f, f0, evals
            assert got[i].tobytes() == want[i].tobytes()
        # a problem whose trial in the last round met the gradient test: the
        # old loop reports it converged one round later, with no evaluation
        differs = got[2] != want[2]
        later = _lm_testing_the_gradient_each_round(residuals, u0, max_evals + 1)
        assert np.all(got[2][differs] & later[2][differs])
        for i in (0, 1, 4):
            assert later[i][differs].tobytes() == got[i][differs].tobytes()


def test_a_solve_whose_last_allowed_evaluation_has_a_small_gradient_has_converged():
    seen = []
    residuals = _rosenbrock(seen)
    (u,), (f,), (converged,), _, (evals,) = _solve(residuals, [[-1.2, 1.0]], 200)
    assert converged
    # the last evaluation met the gradient test, not the decrease test
    _, (f_before,), _, _, _ = _solve(residuals, [[-1.2, 1.0]], evals - 1)
    assert f_before - f > registration._FTOL * max(f_before, 1.0)
    seen.clear()
    capped = _solve(residuals, [[-1.2, 1.0]], evals)
    assert capped[2][0] and capped[4][0] == evals == len(seen)
    assert not _lm_testing_the_gradient_each_round(residuals, [[-1.2, 1.0]], evals)[2][0]


# ---------------------------------------------------------------------------
# Held-out warp fit.


def _fit(group_offsets):
    basis = BSplineBasis.uniform(4, 4)
    coefs = _coefs(basis)
    means = MeanWeights(coefs, {0: np.zeros_like(coefs), 1: np.zeros_like(coefs)})
    warps = WarpState.identity(ANCHORS, {"tr0": 0, "tr1": 1})
    for k, off in group_offsets.items():
        warps.group_offsets[k][1:-1] = off
    return RegistrationFit(
        basis=basis,
        means=means,
        warps=warps,
        var=_var(curve_amp=0.3, warp_amp=0.05, noise=0.05),
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


def _clear_held_out_caches():
    _held_out_grid.cache_clear()
    _held_out_group.cache_clear()
    _held_out_start.cache_clear()


def _subjects(fit, n_subjects, seed, jitter=0.0, n_obs=50):
    """Noisy warped curves; some warps extreme, grids optionally jittered."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_subjects):
        t = np.linspace(0.0, 1.0, n_obs)
        if jitter:
            t[1:-1] += rng.uniform(-jitter, jitter, n_obs - 2)
        label = i % 2
        off = np.zeros(4)
        off[1:-1] = rng.uniform(-0.12, 0.12, 2) if i % 3 == 0 else rng.normal(0, 0.04, 2)
        ords = ANCHORS + fit.warps.group_offsets[label] + off
        if np.any(np.diff(ords) <= 0.05):
            ords = ANCHORS + fit.warps.group_offsets[label]
        g = hyman_interp(ANCHORS, ords)(t)
        spl = fit.basis.spline(fit.means.coefs(label))
        values = spl(g) + 0.05 * rng.standard_normal((len(t), 2))
        out.append((SubjectCurve(f"new{i}", t, values), label))
    return out


def _objective(fit, curve, label, ords):
    """The held-out subject's objective at warp ordinates ``ords``, written out independently."""
    s_fac = CholFactor(np.eye(len(curve.times)) + matern_cov(fit.var.curve_cov, curve.times))
    h_fac = CholFactor(matern_cov(fit.var.warp_cov, ANCHORS[1:-1]))
    offsets = ords - (ANCHORS + fit.warps.group_offsets[label])
    g = warp_values(ANCHORS, ords, curve.times)
    resid = curve.values - fit.basis.spline(fit.means.coefs(label))(g)
    z = s_fac.half_solve(resid)
    w = h_fac.half_solve(offsets[1:-1])
    return float(np.sum(z * z)) + 2.0 * float(w @ w)


def _fit_one(curve, fit, label):
    """``fit_subject_warp`` on a panel of one: the ordinates and whether the solve converged."""
    (ords,), (ok,) = fit_subject_warp([curve], fit, label)
    return ords, ok


def test_fit_subject_warp_is_monotone_and_never_worse_than_the_start():
    fit = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]})
    # a shared 50-point grid, a 4-point one, and jittered 50-point grids
    for n_obs, jitter in ((50, 0.0), (4, 0.0), (50, 0.004)):
        n_converged = 0
        for curve, label in _subjects(fit, 12, seed=11, jitter=jitter, n_obs=n_obs):
            for k in (label, 1 - label):  # predict_new also tries the other label
                ords, ok = _fit_one(curve, fit, k)
                assert np.all(np.diff(ords) > 0)
                assert ords[0] == 0.0 and ords[-1] == 1.0
                before = _objective(fit, curve, k, ANCHORS + fit.warps.group_offsets[k])
                assert _objective(fit, curve, k, ords) <= before * (1 + 1e-12)
                n_converged += ok
        assert n_converged == 24


def test_held_out_warp_solves_take_few_residual_evaluations(monkeypatch):
    # Newton steps on the exact Hessian: ~4 evaluations per held-out solve
    # on this draw, where Gauss-Newton steps took ~6.6
    train, _ = simulate_study2(Study2Config(scenario="A", seed=0, n_subjects=30, n_obs=60))
    test, _ = simulate_study2(Study2Config(scenario="A", seed=1000, n_subjects=20, n_obs=60))
    fit = fit_registration(train)
    evaluated = []  # each solve's evaluations, the cached start's included
    original = registration._levenberg_marquardt

    def counted(residuals, u0, first, max_evals):
        out = original(residuals, u0, first, max_evals)
        evaluated.append(int(out[4].sum()))
        return out

    monkeypatch.setattr(registration, "_levenberg_marquardt", counted)
    n_solves = 0
    for curve in test.curves:
        for label in (0, 1):
            _fit_one(curve, fit, label)
            n_solves += 1
    assert sum(evaluated) / n_solves <= 4.5


def test_fit_subject_warp_is_identical_with_a_cold_or_warm_factor_cache():
    fit = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]})
    subjects = _subjects(fit, 6, seed=13) + _subjects(fit, 20, seed=17, jitter=0.004)
    cold = []
    for curve, label in subjects:
        _clear_held_out_caches()
        cold.append(_fit_one(curve, fit, label))
    # the shared grid hits after its first subject; the 20 jittered grids
    # miss, and overflow the cache so that it drops its oldest entries
    warm = [_fit_one(curve, fit, label) for curve, label in subjects]
    for (a, ok_a), (b, ok_b) in zip(cold, warm):
        assert a.tobytes() == b.tobytes() and ok_a == ok_b


def test_the_cached_start_gives_the_bytes_of_a_residual_call_at_zero_offsets(monkeypatch):
    # the first evaluation of each held-out solve is whitened from the class
    # warp's cached geometry; cold or warm, under either label, on a shared
    # grid and on jittered ones (more than the cache keeps), it has the bytes
    # of a residual call at zero offsets, and so do the solves that follow
    fit = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]})
    subjects = _subjects(fit, 6, seed=41) + _subjects(fit, 10, seed=43, jitter=0.004)
    original = registration._levenberg_marquardt
    firsts = []

    def recorded(residuals, u0, first, max_evals):
        firsts.append((first, residuals(u0, None)))
        return original(residuals, u0, first, max_evals)

    monkeypatch.setattr(registration, "_levenberg_marquardt", recorded)
    runs = []
    for clear in (True, False, False):
        run = []
        for curve, _ in subjects:
            for label in (0, 1):
                if clear:
                    _clear_held_out_caches()
                run.append(_fit_one(curve, fit, label))
        runs.append(run)
    assert _held_out_start.cache_info().hits > 0
    for run in runs[1:]:
        for (a, ok_a), (b, ok_b) in zip(runs[0], run):
            assert a.tobytes() == b.tobytes() and ok_a == ok_b
    n = len(runs[0])
    assert len(firsts) == 3 * n
    for i, (first, direct) in enumerate(firsts):
        for got, want, again in zip(first, direct, firsts[i % n][0]):
            assert got.tobytes() == want.tobytes() == again.tobytes()
    # a panel on the shared grid starts from the cache, and one on several
    # grids by one residual call: each subject gets the bytes it gets alone
    for rows in (range(6), range(4, len(subjects))):
        for label in (0, 1):
            ords, ok = fit_subject_warp([subjects[i][0] for i in rows], fit, label)
            alone = [runs[0][2 * i + label] for i in rows]
            assert [(o.tobytes(), bool(k)) for o, k in zip(ords, ok)] == [
                (a.tobytes(), bool(k)) for a, k in alone
            ]


def test_the_cached_start_follows_a_change_of_the_class_warp():
    fit = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]})
    (curve, label), = _subjects(fit, 1, seed=19)
    _fit_one(curve, fit, label)
    fit.warps.group_offsets[label][1:-1] += 0.01
    warm, _ = _fit_one(curve, fit, label)
    _clear_held_out_caches()
    cold, _ = _fit_one(curve, fit, label)
    assert warm.tobytes() == cold.tobytes()


def test_factor_cache_follows_a_change_of_variance_parameters():
    fit = _fit({0: [0.0, 0.0], 1: [0.0, 0.0]})
    (curve, label), = _subjects(fit, 1, seed=19)
    _fit_one(curve, fit, label)
    fit.var = _var(curve_amp=2.0, warp_amp=0.05, noise=0.05)
    warm, _ = _fit_one(curve, fit, label)
    _clear_held_out_caches()
    cold, _ = _fit_one(curve, fit, label)
    assert warm.tobytes() == cold.tobytes()


def test_factor_cache_follows_a_change_of_mean_weights():
    fit = _fit({0: [0.0, 0.0], 1: [0.0, 0.0]})
    (curve, label), = _subjects(fit, 1, seed=19)
    _fit_one(curve, fit, label)
    fit.means.group[label] = fit.means.group[label] + 0.05
    warm, _ = _fit_one(curve, fit, label)
    _clear_held_out_caches()
    cold, _ = _fit_one(curve, fit, label)
    assert warm.tobytes() == cold.tobytes()


def test_concurrent_fits_share_the_factor_cache_safely():
    fit = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]})
    subjects = _subjects(fit, 8, seed=23) + _subjects(fit, 16, seed=29, jitter=0.004)
    want = []
    for curve, label in subjects:
        _clear_held_out_caches()
        want.append(_fit_one(curve, fit, label))
    _clear_held_out_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_fit_one, c, fit, k) for c, k in subjects * 2]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (a, ok_a), (b, ok_b) in zip(want * 2, got):
        assert a.tobytes() == b.tobytes() and ok_a == ok_b


def test_prediction_leaves_the_artifact_alone_and_shares_the_cache_across_fits():
    payload = _fit({0: [0.03, -0.02], 1: [-0.05, 0.04]}).to_dict()
    first, second = RegistrationFit.from_dict(payload), RegistrationFit.from_dict(payload)
    # one shared grid and four jittered ones: five grids, within the cache
    subjects = _subjects(first, 4, seed=31) + _subjects(first, 4, seed=37, jitter=0.004)
    cold = []
    for curve, label in subjects:
        _clear_held_out_caches()
        cold.append(_fit_one(curve, second, label))
    for curve, label in subjects:
        _fit_one(curve, first, label)
    caches = (_held_out_grid, _held_out_group, _held_out_start)
    misses = [cache.cache_info().misses for cache in caches]
    warm = [_fit_one(curve, second, label) for curve, label in subjects]
    assert [cache.cache_info().misses for cache in caches] == misses
    for (a, ok_a), (b, ok_b) in zip(cold, warm):
        assert a.tobytes() == b.tobytes() and ok_a == ok_b
    for fit in (first, second):
        assert json.dumps(fit.to_dict(), sort_keys=True) == json.dumps(payload, sort_keys=True)
