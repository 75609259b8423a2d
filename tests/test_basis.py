"""Spline bases, monotone interpolation, quadrature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from warpclass import basis
from warpclass.basis import (
    BSplineBasis,
    MonotoneInterpolant,
    TruncatedPowerBasis,
    cross_gram,
    hyman_interp,
    quad_weights,
)
from warpclass.errors import DataError, NumericalError


# ---------------------------------------------------------------------------
# Independent Cox-de Boor recursion, used as the oracle for the B-spline
# design matrix.  Written directly from the textbook recurrence; shares no
# code with the implementation under test.


def _cox_de_boor(x, j, p, t):
    if p == 0:
        if t[j] <= x < t[j + 1]:
            return 1.0
        # close the final interval so the domain endpoint is covered
        if x == t[-1] and t[j] < t[j + 1] and t[j + 1] == t[-1]:
            return 1.0
        return 0.0
    total = 0.0
    if t[j + p] > t[j]:
        total += (x - t[j]) / (t[j + p] - t[j]) * _cox_de_boor(x, j, p - 1, t)
    if t[j + p + 1] > t[j + 1]:
        total += (
            (t[j + p + 1] - x)
            / (t[j + p + 1] - t[j + 1])
            * _cox_de_boor(x, j + 1, p - 1, t)
        )
    return total


def deboor_design(x, basis):
    t = basis.knots
    p = basis.order - 1
    q = basis.size
    return np.array([[_cox_de_boor(xi, j, p, t) for j in range(q)] for xi in x])


def test_design_matches_de_boor_recursion():
    rng = np.random.default_rng(7)
    basis = BSplineBasis.uniform(8, 4)
    x = np.sort(rng.uniform(0.0, 1.0, 60))
    x = np.concatenate([x, [0.0, 1.0, 0.33, 0.5]])
    got = basis.design(x)
    want = deboor_design(x, basis)
    assert np.max(np.abs(got - want)) < 1e-12


def test_design_matches_de_boor_quadratic():
    basis = BSplineBasis(interior_knots=(0.2, 0.45, 0.8), order=3)
    x = np.linspace(0.0, 1.0, 37)
    assert np.max(np.abs(basis.design(x) - deboor_design(x, basis))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    knots=st.lists(st.floats(0.01, 0.99), max_size=9, unique=True),
    order=st.integers(1, 4),
    x=st.lists(st.floats(-1e-12, 1.0 + 1e-12), min_size=1, max_size=200),
)
@example(knots=[0.25, 0.5, 0.75], order=4, x=[0.0, 0.25, 0.5, 0.75, 1.0, 1.0 - 1e-16, 1e-300])
def test_design_has_the_bytes_of_scipys_sparse_design_matrix(knots, order, x):
    # the dense q-valued spline against design_matrix at the clipped points,
    # knots and ends included
    basis = BSplineBasis(tuple(sorted(knots)), order)
    x = np.concatenate([x, basis.knots])
    want = BSpline.design_matrix(np.clip(x, 0.0, 1.0), basis.knots, order - 1).toarray()
    got = basis.design(x)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_partition_of_unity():
    basis = BSplineBasis.uniform(8, 4)
    x = np.linspace(0.0, 1.0, 501)
    rows = basis.design(x).sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) < 1e-12


def test_order_one_design_is_interval_indicator():
    basis = BSplineBasis(interior_knots=(0.25, 0.5, 0.75), order=1)
    x = np.array([0.1, 0.3, 0.6, 0.9])
    design = basis.design(x)
    assert set(np.unique(design)) <= {0.0, 1.0}
    assert np.all(design.sum(axis=1) == 1.0)
    assert np.array_equal(np.argmax(design, axis=1), [0, 1, 2, 3])


def test_design_rejects_out_of_domain():
    basis = BSplineBasis.uniform(4, 4)
    with pytest.raises(DataError):
        basis.design(np.array([0.2, 1.2]))
    with pytest.raises(DataError):
        basis.design(np.array([-0.3]))


def test_basis_validates_knots_and_order():
    with pytest.raises(DataError):
        BSplineBasis(interior_knots=(0.5, 0.5), order=4)
    with pytest.raises(DataError):
        BSplineBasis(interior_knots=(0.2,), order=0)
    with pytest.raises(DataError):
        BSplineBasis(interior_knots=(0.0, 0.5), order=4)


def test_spline_evaluates_coefficient_combination():
    basis = BSplineBasis.uniform(6, 4)
    rng = np.random.default_rng(3)
    coef = rng.standard_normal(basis.size)
    x = np.linspace(0, 1, 40)
    direct = basis.design(x) @ coef
    assert np.allclose(basis.spline(coef)(x), direct, atol=1e-12)
    with pytest.raises(DataError):
        basis.spline(coef[:-1])


# ---------------------------------------------------------------------------
# Truncated power basis.


def test_tpower_rows_at_zero_and_one():
    basis = TruncatedPowerBasis(size=3, knots=(0.5,))
    row0 = basis.design(np.array([0.0]))[0]
    assert np.array_equal(row0, [1.0, 0.0, 0.0])
    row1 = basis.design(np.array([1.0]))[0]
    assert row1[2] == pytest.approx(0.5, abs=0)


def test_tpower_matches_direct_formula():
    rng = np.random.default_rng(11)
    basis = TruncatedPowerBasis.from_quantiles(rng.uniform(0, 1, 200), 7)
    x = np.sort(rng.uniform(0, 1, 50))
    got = basis.design(x)
    want = np.column_stack(
        [np.ones_like(x), x] + [np.maximum(x - k, 0.0) for k in basis.knots]
    )
    assert np.array_equal(got, want)


def test_tpower_validates_knot_count_and_order():
    with pytest.raises(DataError):
        TruncatedPowerBasis(size=4, knots=(0.5,))
    with pytest.raises(DataError):
        TruncatedPowerBasis(size=4, knots=(0.6, 0.4))
    with pytest.raises(DataError):
        TruncatedPowerBasis(size=1, knots=())


def test_tpower_from_quantiles_spacing():
    times = np.linspace(0, 1, 101)
    basis = TruncatedPowerBasis.from_quantiles(times, 6)
    # five probability levels 1/5 .. 4/5 minus the two linear columns
    assert len(basis.knots) == 4
    assert np.allclose(basis.knots, [0.2, 0.4, 0.6, 0.8], atol=1e-12)


# ---------------------------------------------------------------------------
# Monotone interpolation.


def test_hyman_identity_data_is_identity():
    anchors = np.array([0.0, 0.33, 0.67, 1.0])
    f = hyman_interp(anchors, anchors)
    t = np.linspace(0, 1, 777)
    assert np.max(np.abs(f(t) - t)) < 1e-12


def test_hyman_interpolates_anchor_values():
    anchors = np.array([0.0, 0.2, 0.55, 1.0])
    values = np.array([0.0, 0.35, 0.6, 1.0])
    f = hyman_interp(anchors, values)
    assert np.max(np.abs(f(anchors) - values)) == 0.0


def _increasing(steps, lo=0.0, hi=1.0):
    """Strictly increasing points from lo to hi with gaps in proportion to ``steps``."""
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    return lo + (hi - lo) * cum / cum[-1]


@settings(max_examples=150, deadline=None)
@given(
    x_steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    y_steps=st.lists(st.floats(1e-4, 1.0), min_size=7, max_size=7),
    lo=st.floats(-2.0, 2.0),
    span=st.floats(0.01, 5.0),
)
def test_hyman_monotone_on_dense_scan(x_steps, y_steps, lo, span):
    anchors = _increasing(x_steps)
    values = _increasing(y_steps[: len(anchors) - 1], lo, lo + span)
    f = hyman_interp(anchors, values)
    # a dense grid inside every cell, ends included
    s = np.linspace(0.0, 1.0, 201)
    for j in range(len(anchors) - 1):
        t = np.minimum(anchors[j] + s * (anchors[j + 1] - anchors[j]), anchors[j + 1])
        vals = f(t)
        rounding = 4.0 * np.finfo(float).eps * np.abs(vals).max()
        assert np.diff(vals).min() >= -rounding
        assert vals[0] == values[j]
    # identity data is reproduced to rounding
    identity = hyman_interp(anchors, anchors)
    t = np.linspace(0.0, 1.0, 501)
    assert np.max(np.abs(identity(t) - t)) <= 4.0 * np.finfo(float).eps


def test_inverse_rejects_what_it_cannot_invert(monkeypatch):
    with pytest.raises(DataError, match="strictly increasing"):
        hyman_interp([0.0, 0.5, 1.0], [0.0, 0.6, 0.6]).inverse(np.array([0.3]))
    f = hyman_interp([0.0, 0.5, 1.0], [0.0, 0.6, 1.0])
    with pytest.raises(DataError, match="outside"):
        f.inverse(np.array([1.5]))
    # in a stack, each row is checked
    anchors = [0.0, 0.33, 0.67, 1.0]
    with pytest.raises(DataError, match="strictly increasing"):
        hyman_interp(anchors, [[0.0, 0.3, 0.6, 1.0], [0.0, 0.6, 0.6, 1.0]]).inverse(np.array([0.3]))
    short_second = hyman_interp(anchors, [[0.0, 0.3, 0.6, 1.0], [0.0, 0.3, 0.6, 0.9]])
    with pytest.raises(DataError, match="outside"):
        short_second.inverse(np.array([0.95]))
    with pytest.raises(DataError, match="1-D"):
        f.inverse(np.array([[0.3]]))
    # a flat end cell needs many Newton steps; a loop cut short says so,
    # also when it is one row of a stack whose other rows converge
    monkeypatch.setattr(basis, "_INVERSE_MAX_ITERS", 3)
    flat = hyman_interp(anchors, [0.0, 0.01, 0.9, 1.0])
    with pytest.raises(NumericalError, match="did not converge"):
        flat.inverse(np.array([1e-6]))
    easy = hyman_interp(anchors, anchors)
    assert easy.inverse(np.array([1e-6]))[0] == pytest.approx(1e-6, rel=1e-12)
    stack = hyman_interp(anchors, [anchors, [0.0, 0.01, 0.9, 1.0]])
    with pytest.raises(NumericalError, match="did not converge"):
        stack.inverse(np.array([1e-6]))


@settings(max_examples=100, deadline=None)
@given(
    x_steps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    rows=st.lists(
        st.lists(st.floats(1e-6, 1.0), min_size=7, max_size=7), min_size=1, max_size=8
    ),
    extra=st.lists(st.floats(0.0, 1.0), max_size=10),
)
# a first cell whose start slope is filtered to 0 (FLAT_START), in a stack
@example(
    x_steps=[0.33, 0.34, 0.33],
    rows=[[0.01, 0.89, 0.1] + [1.0] * 4, [1.0] * 7, [0.2, 1e-6, 1.0] + [1.0] * 4],
    extra=[1e-300, 1e-14, 1e-6],
)
def test_each_row_of_a_stack_inverts_to_the_bytes_of_its_own_inverse(x_steps, rows, extra):
    anchors = _increasing(x_steps)
    ords = np.array([_increasing(r[: len(anchors) - 1]) for r in rows])
    # every row's ordinates, both ends, a grid and two targets just outside
    # the span, which are clipped onto its ends, in no particular order
    targets = np.concatenate(
        [extra, ords.ravel(), [1.0, 0.0], np.linspace(0.0, 1.0, 51), [1.0 + 1e-13, -1e-13]]
    )
    stack = hyman_interp(anchors, ords).inverse(targets)
    assert stack.shape == (len(rows), len(targets))
    order = np.argsort(targets, kind="stable")
    for row, got in zip(ords, stack):
        alone = hyman_interp(anchors, row).inverse(targets)
        assert got.tobytes() == alone.tobytes()
        assert np.all(np.diff(got[order]) >= 0.0)
    # a row's own ordinates map exactly to the anchors, and the ends to the ends
    own = stack[:, len(extra) : len(extra) + ords.size].reshape(len(rows), len(rows), -1)
    assert all(np.array_equal(own[i, i], anchors) for i in range(len(rows)))
    ends = stack[:, len(extra) + ords.size : len(extra) + ords.size + 2]
    assert np.all(ends == [anchors[-1], anchors[0]])


def test_inverse_keeps_points_solved_in_a_flat_first_cell():
    # the first slope is filtered to 0, so at these targets g' is ~0 and a
    # Newton step from the solved iterate would jump across the cell
    f = hyman_interp([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    assert f.slopes[0] == 0.0
    t = np.array([1e-300, 1e-20, 1e-17])
    x = f.inverse(t)
    assert np.all(x < 1e-8)
    assert np.max(np.abs(f(x) - t)) <= 1e-15


def test_hyman_rejects_bad_anchors():
    with pytest.raises(DataError):
        hyman_interp([0.0, 0.5, 0.5, 1.0], [0.0, 0.4, 0.6, 1.0])
    with pytest.raises(DataError):
        hyman_interp([0.0], [0.0])


def test_each_row_of_a_stack_at_its_own_times_has_the_bytes_of_its_own_interpolant():
    rng = np.random.default_rng(7)
    anchors = np.array([0.0, 0.33, 0.67, 1.0])
    ords = anchors + np.column_stack([np.zeros(5), rng.normal(0, 0.05, (5, 2)), np.zeros(5)])
    times = np.sort(rng.uniform(0.0, 1.0, (5, 40)), axis=1)
    times[2] = times[0]  # a grid two rows share
    stack = hyman_interp(anchors, ords)
    rows = stack(times)
    assert rows.shape == (5, 40)
    for y, t, row in zip(ords, times, rows):
        assert row.tobytes() == hyman_interp(anchors, y)(t).tobytes()
    # times shared by every interpolant of the stack
    assert stack(times[0]).shape == (5, 40)
    assert stack(times[0])[2].tobytes() == rows[2].tobytes()
    mismatch = r"interpolants \(5, 4\) cannot take times \(1, 40\) row by row"
    with pytest.raises(DataError, match=mismatch):
        stack(times[:1])
    with pytest.raises(DataError, match="row by row"):
        hyman_interp(anchors, ords[0])(times[:1])


def test_interpolant_rejects_out_of_span():
    f = hyman_interp([0.0, 0.5, 1.0], [0.0, 0.6, 1.0])
    with pytest.raises(DataError):
        f(np.array([1.5]))
    assert isinstance(f, MonotoneInterpolant)


# ---------------------------------------------------------------------------
# Quadrature.


def test_quad_weights_uniform_unit_grid():
    w = quad_weights(np.linspace(0, 1, 101))
    assert abs(w.sum() - 1.0) < 1e-14


def test_quad_integrates_linear_exactly_on_any_grid():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = np.sort(rng.uniform(0, 1, rng.integers(2, 40)))
        g[0], g[-1] = 0.0, 1.0
        if np.any(np.diff(g) <= 0):
            continue
        w = quad_weights(g)
        for a, b in [(0.0, 1.0), (2.5, -0.7), (1.0, 0.0)]:
            exact = a + b / 2.0
            assert abs(w @ (a + b * g) - exact) < 1e-12


def test_quad_known_integrals():
    g = np.linspace(0, 1, 101)
    w = quad_weights(g)
    assert abs(w @ g - 0.5) < 1e-6
    assert abs(w @ np.sin(2 * np.pi * g)) < 1e-4


def test_quad_rejects_bad_grids():
    with pytest.raises(DataError):
        quad_weights(np.array([0.5]))
    with pytest.raises(DataError):
        quad_weights(np.array([0.0, 0.5, 0.5, 1.0]))


def test_cross_gram_constant_columns():
    g = np.linspace(0, 1, 50)
    ones = np.ones((50, 1))
    assert np.allclose(cross_gram(ones, ones, g), [[1.0]], atol=1e-14)


def test_cross_gram_orthonormal_family():
    g = np.linspace(0, 1, 100)
    cols = np.column_stack(
        [np.ones_like(g)]
        + [np.sqrt(2) * np.cos(2 * np.pi * k * g) for k in (1, 2, 3)]
    )
    gram = cross_gram(cols, cols, g)
    assert np.max(np.abs(gram - np.eye(4))) < 2e-3


def test_cross_gram_matches_finer_simpson():
    # 10x finer grid + Simpson weights as the quadrature refinement oracle
    from scipy.integrate import simpson

    rng = np.random.default_rng(23)
    g = np.linspace(0, 1, 101)
    fine = np.linspace(0, 1, 1001)
    coef_f = rng.standard_normal((4, 3))
    coef_h = rng.standard_normal((4, 2))

    def family(tt, coefs):
        base = np.column_stack(
            [np.ones_like(tt), tt, np.sin(2 * np.pi * tt), np.cos(2 * np.pi * tt)]
        )
        return base @ coefs

    got = cross_gram(family(g, coef_f), family(g, coef_h), g)
    want = np.empty_like(got)
    ff, hh = family(fine, coef_f), family(fine, coef_h)
    for i in range(want.shape[0]):
        for j in range(want.shape[1]):
            want[i, j] = simpson(ff[:, i] * hh[:, j], x=fine)
    assert np.max(np.abs(got - want)) < 1e-4


def test_cross_gram_shape_mismatch():
    g = np.linspace(0, 1, 10)
    with pytest.raises(DataError):
        cross_gram(np.ones((10, 2)), np.ones((9, 2)), g)
