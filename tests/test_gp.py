"""Matern kernels, Cholesky solves, profiled Gaussian likelihood."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from warpclass import gp
from warpclass.errors import DataError, NumericalError
from warpclass.gp import (
    CholFactor,
    GridDistances,
    MaternParams,
    chol_lower,
    matern_cov,
    matern_cov_grad,
    matern_distinct,
    profile_loglik_parts,
    spd_inverses,
)
from warpclass.registration import _LOG_HI, _LOG_LO, RegistrationConfig, VarianceParams


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# Kernel values.


def test_matern_diagonal_is_amplitude():
    spec = MaternParams(3.7, 0.2, 1.5)
    g = np.array([0.0, 0.4, 0.9])
    cov = matern_cov(spec, g)
    assert np.allclose(np.diag(cov), 3.7, atol=1e-12)


def test_matern_half_smoothness_is_exponential():
    # nu = 1/2 reduces to exp(-d/range); closed form, distance 1
    spec = MaternParams(1.0, 1.0, 0.5)
    cov = matern_cov(spec, np.array([0.0, 1.0]))
    assert abs(cov[0, 1] - math.exp(-1.0)) < 1e-9


def test_matern_psd_and_symmetric():
    spec = MaternParams(2.0, 0.15, 3.0)
    g = np.linspace(0, 1, 10)
    cov = matern_cov(spec, g)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_matern_rejects_nonpositive_params():
    for bad in [(0.0, 1, 1), (1, -0.1, 1), (1, 1, 0.0)]:
        with pytest.raises(DataError):
            MaternParams(*bad)


def test_kernel_and_noise_parameters_must_be_finite():
    # a fit loaded from JSON may hold Infinity or NaN, which a factorization
    # would turn into non-finite numbers without an error
    for value in (math.inf, math.nan):
        for bad in [(value, 1, 1), (1, value, 1), (1, 1, value)]:
            with pytest.raises(DataError, match="must be positive and finite"):
                MaternParams(*bad)
        with pytest.raises(DataError, match="noise_sd must be positive and finite"):
            VarianceParams(value, MaternParams(1, 1, 1), MaternParams(1, 1, 1))


def test_matern_rejects_orders_above_its_bound():
    assert gp._MAX_SMOOTHNESS == 64.0
    for nu in (np.nextafter(64.0, 0.0), 64.0):
        MaternParams(1.0, 0.3, nu)
    # 151.5 and 152 are where the recurrence first overflows, 171 where Gamma does
    for nu in (np.nextafter(64.0, 65.0), 64.5, 151.5, 152.0, 171.0):
        with pytest.raises(DataError, match="smoothness must be at most 64, got"):
            MaternParams(1.0, 0.3, nu)


@pytest.mark.parametrize("nu", [63.5, 64.0])
def test_kv_and_the_recurrence_agree_up_to_the_order_bound(nu):
    # two independent paths at the largest orders accepted, distances 1e-3 to 100
    x = np.logspace(-3.0, 2.0, 200)
    via_kv = 2.0 ** (1.0 - nu) / gamma_fn(nu) * x**nu * kv(nu, x)
    assert np.max(np.abs(via_kv - gp._matern_exact(nu, x, slope=False))) < 1e-13


def _kv_reference(params, s, t):
    """Matern covariance straight from the general Bessel routine.

    Where ``kv`` overflows the scaled distance x is below 1e-20; for the
    orders tested the correlation there is within x of its limit 1.
    """
    nu = params.smoothness
    x = math.sqrt(2.0 * nu) * (np.abs(s[:, None] - t[None, :]) / params.length_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        corr = 2.0 ** (1.0 - nu) / gamma_fn(nu) * x**nu * kv(nu, x)
    limit = ~np.isfinite(corr)
    assert np.all(x[limit] < 1e-20)
    corr[limit] = 1.0
    return params.amplitude * corr


@st.composite
def _grids(draw):
    """Points in [0, 1] plus exact repeats and near-repeats of some of them."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25))
    near = draw(
        st.lists(
            st.tuples(st.integers(0, 24), st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])),
            max_size=6,
        )
    )
    return np.array(base + [base[i % len(base)] + eps for i, eps in near])


@settings(max_examples=150, deadline=None)
@given(
    nu=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 1.3]),
    log_amp=st.floats(_LOG_LO[0], _LOG_HI[0]),
    log_range=st.floats(_LOG_LO[1], _LOG_HI[1]),
    s=_grids(),
)
def test_matern_matches_the_bessel_reference(nu, log_amp, log_range, s):
    params = MaternParams(math.exp(log_amp), math.exp(log_range), nu)
    cov = matern_cov(params, s)
    want = _kv_reference(params, s, s)
    assert np.max(np.abs(cov - want)) <= 1e-13 * params.amplitude
    assert np.array_equal(cov, cov.T)
    assert np.all(np.diag(cov) == params.amplitude)


_STEP = 1.0 / gp._TABLE_CELLS_PER_UNIT


def _near(point):
    return st.sampled_from([np.nextafter(point, -1.0), point, np.nextafter(point, 200.0)])


# the table's nodes and its ends, one ulp either side, and any distance up to 120
_scaled_distances = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-20]),
    st.integers(0, round(gp._TABLE_END / _STEP)).map(lambda k: k * _STEP).flatmap(_near),
    _near(gp._TABLE_FROM),
    _near(gp._TABLE_END),
    st.floats(0.0, 120.0),
)


def _assert_within_the_table_contract(nu, x):
    # relative to the correlation, as both decay like e^-x; the slope goes
    # to 0 like x^2 at 0, so absolutely
    corr, slope = gp._matern_corr(nu, x)
    want_corr, want_slope = gp._matern_exact(nu, x)
    assert np.all(np.abs(corr - want_corr) <= 8 * np.finfo(float).eps * want_corr)
    assert np.all(np.abs(slope - want_slope) <= 2e-15)
    return corr, slope


@pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0])
def test_matern_table_meets_its_contract_mid_cell(nu):
    # a piece is furthest from its nodes mid cell: this fixes the table's
    # lower bound for orders 1 and 2
    _assert_within_the_table_contract(nu, (np.arange(round(gp._TABLE_END / _STEP)) + 0.5) * _STEP)


@settings(max_examples=300, deadline=None)
@given(
    nu=st.sampled_from([1.0, 1.3, 2.0, 2.2, 3.0, 4.0]),
    x=st.lists(_scaled_distances, min_size=1, max_size=40).map(np.array),
)
def test_matern_table_follows_the_exact_path(nu, x):
    corr, slope = _assert_within_the_table_contract(nu, x)
    assert np.array_equal(gp._matern_corr(nu, x, slope=False), corr)
    assert np.all(corr[x == 0.0] == 1.0) and np.all(slope[x == 0.0] == 0.0)
    if not nu.is_integer():  # not tabulated
        assert all(np.array_equal(a, b) for a, b in zip((corr, slope), gp._matern_exact(nu, x)))


def test_an_order_builds_its_table_once_read_only(monkeypatch):
    calls = []

    def counted(nu, x):
        calls.append(len(x))
        return bessel(nu, x)

    bessel = gp._scaled_bessel
    monkeypatch.setattr(gp, "_scaled_bessel", counted)
    gp._matern_table.cache_clear()
    x = np.linspace(0.0, 30.0, 1000)
    first = gp._matern_corr(3.0, x)
    table = gp._matern_table(3.0)
    assert table.shape == (2, 6, round(gp._TABLE_END / _STEP))
    assert table.nbytes <= 500_000
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 2.0
    again = gp._matern_corr(3, x)
    assert gp._matern_table(3.0) is table
    assert calls == [table.shape[2] + 1]  # its nodes, once
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    gp._matern_table.cache_clear()


def _uniform_and_jittered():
    uniform = np.linspace(0.0, 1.0, 100)
    jitter = np.random.default_rng(3).uniform(-0.002, 0.002, 60)
    return uniform, np.linspace(0.0, 1.0, 60) + jitter


@pytest.mark.parametrize("nu", [0.5, 1.5, 3.0, 2.2])
def test_kernel_from_distinct_distances_is_matern_cov(nu):
    for grid in _uniform_and_jittered():
        dists = GridDistances.of(grid)
        assert np.array_equal(dists.distinct[dists.index], np.abs(grid[:, None] - grid[None, :]))
        for amp, length_scale in ((2.5, 0.02), (0.7, 0.3), (40.0, 5.0)):
            params = MaternParams(amp, length_scale, nu)
            cov, slope = matern_cov_grad(params, dists)
            assert np.array_equal(cov, matern_cov(params, grid))
            assert np.array_equal(slope, slope.T)
            assert np.all(np.diag(slope) == 0.0)
            # against central differences in the log length scale
            h = 1e-6
            up, down = (
                matern_cov(MaternParams(amp, length_scale * math.exp(e), nu), grid) for e in (h, -h)
            )
            assert np.max(np.abs((up - down) / (2 * h) - slope)) <= 1e-7 * amp
    # a uniform grid repeats its distances: 337 distinct of 100 x 100, zero included
    assert len(GridDistances.of(_uniform_and_jittered()[0]).distinct) == 337


def test_matern_cov_takes_its_pair_indices_from_a_read_only_cache():
    rows, cols = gp._upper_pairs(6)
    assert gp._upper_pairs(6)[0] is rows
    assert all(np.array_equal(a, b) for a, b in zip((rows, cols), np.triu_indices(6, 1)))
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 1
    # more lengths than the cache keeps: each kernel is still its own grid's
    params = MaternParams(1.3, 0.2, 3.0)
    for n in range(2, 14):
        grid = np.linspace(0.0, 1.0, n)
        dists = GridDistances.of(grid)
        assert np.array_equal(matern_cov(params, grid), matern_cov_grad(params, dists)[0])


def test_stacked_distances_index_each_grids_own():
    grids = [np.linspace(0.0, 1.0, 60), *_uniform_and_jittered()[1:], np.linspace(0.0, 0.5, 60)]
    stacked = GridDistances.stack(grids)
    assert stacked.index.shape == (3, 60, 60)
    params = MaternParams(2.5, 0.3, 3.0)
    cov, slope = matern_distinct(params, stacked)
    for g, grid in enumerate(grids):
        alone = GridDistances.of(grid)
        assert np.array_equal(stacked.distinct[stacked.index[g]], alone.distinct[alone.index])
        assert np.array_equal(cov[stacked.index[g]], matern_cov(params, grid))
        assert np.array_equal(slope[stacked.index[g]], matern_cov_grad(params, alone)[1])


# ---------------------------------------------------------------------------
# Solves.


def test_chol_solve_identity_returns_rhs():
    rhs = np.arange(12.0).reshape(4, 3)
    assert np.allclose(CholFactor(np.eye(4)).solve(rhs), rhs, atol=1e-14)


def test_chol_solve_matches_lu_oracle():
    # independent route: scipy LU solve, no Cholesky involved
    import scipy.linalg as sla

    rng = np.random.default_rng(4)
    mat = _random_spd(rng, 5)
    rhs = rng.standard_normal((5, 2))
    want = sla.lu_solve(sla.lu_factor(mat), rhs)
    assert np.max(np.abs(CholFactor(mat).solve(rhs) - want)) < 1e-9


def test_half_solve_overwrite_writes_the_same_bytes_over_a_fortran_ordered_rhs():
    rng = np.random.default_rng(8)
    factor = CholFactor(_random_spd(rng, 6))
    for transposed in (False, True):
        rhs = np.asfortranarray(rng.standard_normal((6, 3)))
        want = factor.half_solve(rhs, transposed=transposed)
        assert not np.array_equal(want, rhs)
        factor.half_solve(rhs, transposed=transposed, overwrite=True)
        assert rhs.tobytes() == np.asfortranarray(want).tobytes()


def test_chol_solve_residual_bound():
    rng = np.random.default_rng(9)
    mat = _random_spd(rng, 8)
    rhs = rng.standard_normal(8)
    out = CholFactor(mat).solve(rhs)
    assert np.max(np.abs(mat @ out - rhs)) < 1e-8 * np.max(np.abs(rhs))


def test_logdet_matches_eigenvalue_sum():
    rng = np.random.default_rng(5)
    mat = _random_spd(rng, 7)
    want = float(np.sum(np.log(np.linalg.eigvalsh(mat))))
    assert CholFactor(mat).logdet() == pytest.approx(want, abs=1e-8)


def test_chol_lower_reconstructs():
    rng = np.random.default_rng(6)
    mat = _random_spd(rng, 6)
    low = chol_lower(mat)
    assert np.allclose(low @ low.T, mat, atol=1e-10)


def test_jitter_ladder_handles_near_singular():
    # rank-deficient PSD matrix: plain Cholesky fails, jitter succeeds
    v = np.ones((5, 1))
    mat = v @ v.T
    factor = CholFactor(mat)
    assert factor.n == 5
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mat)
    low = chol_lower(mat)
    assert np.allclose(low @ low.T, mat, atol=1e-6) and np.all(np.isfinite(low))


def test_spd_inverses_of_a_stack():
    rng = np.random.default_rng(8)
    mats = np.stack([_random_spd(rng, 7) for _ in range(4)])
    want, want_logdets = np.linalg.inv(mats), np.linalg.slogdet(mats)[1]
    inv, logdets = spd_inverses(mats)
    assert inv is mats  # written in place
    assert np.max(np.abs(inv - want)) <= 1e-14
    assert np.allclose(logdets, want_logdets, rtol=1e-13, atol=0)
    # a stack that is not C-ordered is inverted too, into a new array
    fortran = np.asfortranarray(np.stack([_random_spd(rng, 7) for _ in range(4)]))
    assert np.max(np.abs(spd_inverses(fortran)[0] - np.linalg.inv(fortran))) <= 1e-14


def test_spd_inverses_fall_back_to_the_jitter_ladder(caplog):
    # the rank-deficient member fails the batched Cholesky; alone it takes jitter
    ones = np.ones((5, 5))
    mats = np.stack([np.eye(5) + ones, ones])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mats)
    with caplog.at_level(logging.DEBUG, logger="warpclass.gp"):
        inv, logdets = spd_inverses(mats)
    (record,) = caplog.records
    assert "jitter" in record.getMessage()
    assert np.allclose(inv[0], np.linalg.inv(np.eye(5) + ones), atol=1e-14)
    bumped = ones + CholFactor(ones).jitter * np.eye(5)  # the mean diagonal is 1
    assert np.allclose(inv[1], np.linalg.inv(bumped), rtol=1e-4, atol=0)
    assert np.all(np.isfinite(logdets))
    with pytest.raises(NumericalError):
        spd_inverses(np.stack([np.eye(3), -np.eye(3)]))


def test_a_grids_factor_has_the_same_bytes_wherever_it_is_formed():
    # the benchmark's curve kernel on its common 100-point grid and on nine
    # 60-point grids jittered by 0.002: the GLS and held-out factor
    # (CholFactor), the simulator's (chol_lower) and the variance stacks'
    # (spd_inverses) are one factor
    params = MaternParams(*RegistrationConfig().curve_cov_init)
    rng = np.random.default_rng(11)
    jittered = [np.linspace(0.0, 1.0, 60) + rng.uniform(-0.002, 0.002, 60) for _ in range(9)]
    for grids in ([np.linspace(0.0, 1.0, 100)], jittered):
        mats = np.stack([np.eye(len(g)) + matern_cov(params, g) for g in grids])
        logdets = spd_inverses(mats.copy())[1]
        for mat, logdet in zip(mats, logdets):
            factor = CholFactor(mat)
            assert factor.logdet() == logdet
            assert np.array_equal(chol_lower(mat), factor._low)


def test_jitter_step_is_kept_and_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="warpclass.gp"):
        assert CholFactor(np.eye(4)).jitter == 0.0
        assert not caplog.records
        factor = CholFactor(np.ones((5, 5)))
    assert factor.jitter > 0.0
    (record,) = caplog.records
    assert record.name == "warpclass.gp"
    assert f"{factor.jitter:g}" in record.getMessage()


def test_indefinite_matrix_raises():
    mat = np.diag([1.0, -5.0, 2.0])
    with pytest.raises(NumericalError):
        CholFactor(mat)
    with pytest.raises(DataError):
        CholFactor(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Profiled likelihood.


def _quad(factor, vec) -> float:
    """vec' M^{-1} vec for the matrix M that ``factor`` factors."""
    z = factor.half_solve(vec)
    return float(z @ z)


def _profile(resid, cov):
    factor = CholFactor(cov)
    return factor, profile_loglik_parts(_quad(factor, resid), factor.logdet(), len(resid))


def test_profile_zero_residual_is_finite():
    _, (loglik, sigma2) = _profile(np.zeros(10), np.eye(10))
    assert math.isfinite(loglik)
    assert sigma2 == pytest.approx(1e-12)


def test_profile_identity_cov_gives_mean_square():
    rng = np.random.default_rng(8)
    resid = rng.standard_normal(50)
    _, (_, sigma2) = _profile(resid, np.eye(50))
    assert sigma2 == pytest.approx(float(np.mean(resid**2)), rel=1e-12)


def test_profile_maximizes_over_sigma_grid():
    # the profiled value must beat the exact likelihood at any other sigma^2
    rng = np.random.default_rng(12)
    cov = _random_spd(rng, 20) / 20.0
    resid = rng.standard_normal(20)
    factor, (loglik, sigma2_hat) = _profile(resid, cov)
    quad, logdet, n = _quad(factor, resid), factor.logdet(), 20
    for sigma2 in np.geomspace(sigma2_hat / 50, sigma2_hat * 50, 20):
        full = -0.5 * (logdet + n * math.log(sigma2) + quad / sigma2)
        assert loglik >= full - 1e-10
