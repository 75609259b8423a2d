"""Generator determinism/shape checks and metric oracles.

The Rand and adjusted Rand implementations are checked against a
brute-force pair enumeration written independently here.
"""

import dataclasses
import hashlib
import itertools
import json
import logging
import math

import numpy as np
import pytest

from warpclass.basis import hyman_interp, quad_weights
from warpclass.errors import DataError
from warpclass.simeval import (
    MetricsReport,
    Study1Config,
    Study2Config,
    metric_ari,
    metric_bias_ssd,
    metric_ca,
    metric_isbias_imse,
    metric_rand,
    simulate_study1,
    simulate_study2,
    study1_beta,
    warp_imse,
)


# ---------------------------------------------------------------------------
# Generators.


def test_estimation_study_is_bit_reproducible():
    cfg = Study1Config(n_subjects=12, n_obs=30, seed=7)
    p1, t1 = simulate_study1(cfg)
    p2, t2 = simulate_study1(cfg)
    for c1, c2 in zip(p1.curves, p2.curves):
        assert c1.subject_id == c2.subject_id
        assert c1.values.tolist() == c2.values.tolist()
    assert t1.labels.tolist() == t2.labels.tolist()
    assert t1.v.tolist() == t2.v.tolist()
    assert t1.eta.tolist() == t2.eta.tolist()
    for sid in t1.warp_offsets:
        assert t1.warp_offsets[sid].tolist() == t2.warp_offsets[sid].tolist()


def test_classification_study_is_bit_reproducible():
    cfg = Study2Config(scenario="B", seed=3, n_subjects=8, n_obs=20)
    p1, t1 = simulate_study2(cfg)
    p2, t2 = simulate_study2(cfg)
    for c1, c2 in zip(p1.curves, p2.curves):
        assert c1.values.tolist() == c2.values.tolist()
    assert t1.v.tolist() == t2.v.tolist()
    assert t1.train_mask.tolist() == t2.train_mask.tolist()


def test_different_seeds_give_different_draws():
    pa, _ = simulate_study2(Study2Config(seed=0, n_subjects=4, n_obs=12))
    pb, _ = simulate_study2(Study2Config(seed=1, n_subjects=4, n_obs=12))
    assert not np.array_equal(pa.curves[0].values, pb.curves[0].values)


def test_estimation_study_shapes_and_grouping():
    cfg = Study1Config(n_subjects=10, n_obs=25, seed=1)
    panel, truth = simulate_study1(cfg)
    assert len(panel.curves) == 10
    assert [c.subject_id for c in panel.curves] == [f"s{i:04d}" for i in range(10)]
    for curve in panel.curves:
        assert curve.values.shape == (25, 2)
        assert np.allclose(curve.times, np.linspace(0.0, 1.0, 25))
    assert truth.groups.tolist() == [0] * 5 + [1] * 5
    assert truth.train_mask is None
    # scalar records carry (v, label) aligned with the truth arrays
    for rec, v, y in zip(panel.scalars, truth.v, truth.labels):
        assert rec.v[0] == v
        assert rec.y == y


def test_classification_study_grid_split_and_labels():
    cfg = Study2Config(scenario="A", seed=2)
    panel, truth = simulate_study2(cfg)
    n = cfg.n_obs
    grid = panel.curves[0].times
    # interior grid: t_j = (j + 1) / (n + 2), so neither endpoint is observed
    assert grid[0] == pytest.approx(2.0 / (n + 2.0), abs=1e-15)
    assert grid[-1] == pytest.approx((n + 1.0) / (n + 2.0), abs=1e-15)
    assert truth.labels.tolist() == truth.groups.tolist()
    assert int(np.sum(truth.groups == 0)) == 60
    assert int(np.sum(truth.groups == 1)) == 60
    # training half: first 30 of each group in generation order
    expect = np.zeros(120, dtype=bool)
    expect[:30] = True
    expect[60:90] = True
    assert truth.train_mask.tolist() == expect.tolist()


def test_scalar_covariate_ranges_by_group():
    _, t1 = simulate_study1(Study1Config(n_subjects=40, n_obs=12, seed=4))
    g0, g1 = t1.v[t1.groups == 0], t1.v[t1.groups == 1]
    assert np.all((g0 >= 1.0) & (g0 <= 2.0))
    assert np.all((g1 >= 0.5) & (g1 <= 1.5))

    _, t2 = simulate_study2(Study2Config(scenario="A", seed=4, n_subjects=40, n_obs=12))
    g0, g1 = t2.v[t2.groups == 0], t2.v[t2.groups == 1]
    delta2 = 0.7
    assert np.all((g0 >= 1.0) & (g0 <= 2.0))
    assert np.all((g1 >= 1.0 - delta2) & (g1 <= 2.0 - delta2))


def test_linear_predictor_matches_the_noise_free_curves():
    # with the warp and white noise off the observed curves equal the
    # smooth ones, so eta can be recomputed from the panel directly
    cfg = Study1Config(n_subjects=8, n_obs=60, sigma_w=0.0, sigma=0.0, seed=5)
    panel, truth = simulate_study1(cfg)
    grid = panel.curves[0].times
    beta = np.column_stack([study1_beta(0, grid), study1_beta(1, grid)])
    for i, curve in enumerate(panel.curves):
        eta = cfg.b0 + truth.v[i] * cfg.b1 + np.mean(np.sum(curve.values * beta, axis=1))
        assert truth.eta[i] == pytest.approx(eta, abs=1e-10)


def test_outcomes_track_the_linear_predictor():
    _, truth = simulate_study1(Study1Config(n_subjects=80, n_obs=40, seed=6))
    order = np.argsort(truth.eta)
    low = truth.labels[order[:20]].mean()
    high = truth.labels[order[-20:]].mean()
    assert high > low


def test_noise_free_curves_are_identical_within_group():
    cfg = Study2Config(
        scenario="A", seed=8, n_subjects=8, n_obs=16,
        delta1=0.0, delta2=0.0, sigma=0.0, sigma_r=0.0, sigma_w=0.0,
    )
    panel, truth = simulate_study2(cfg)
    ref0, ref1 = panel.curves[0].values, panel.curves[4].values
    for curve, group in zip(panel.curves, truth.groups):
        assert np.array_equal(curve.values, ref0 if group == 0 else ref1)
    # the delta shifts vanish but the group-1 time distortion does not
    assert not np.array_equal(ref0, ref1)
    # delta2 = 0 puts both covariate laws on [1, 2]
    assert np.all((truth.v >= 1.0) & (truth.v <= 2.0))


def test_noise_free_curves_follow_the_analytic_group_means():
    cfg = Study2Config(
        scenario="A", seed=9, n_subjects=4, n_obs=50,
        sigma=0.0, sigma_r=0.0, sigma_w=0.0,
    )
    panel, truth = simulate_study2(cfg)
    t = panel.curves[0].times
    m0 = np.column_stack([np.exp(np.cos(2 * np.pi * t)), np.exp(np.sin(2 * np.pi * t))])
    # spline projection of the smooth mean: close but not exact
    assert np.max(np.abs(panel.curves[0].values - m0)) < 0.02
    idx1 = int(np.argmax(truth.groups == 1))
    assert np.max(np.abs(panel.curves[idx1].values - m0)) > 0.05


def test_true_warps_interpolate_the_anchor_offsets():
    cfg = Study2Config(scenario="B", seed=10, n_subjects=6, n_obs=12)
    _, truth = simulate_study2(cfg)
    grid = np.linspace(0.0, 1.0, 301)
    for sid, off in truth.warp_offsets.items():
        assert off[0] == 0.0 and off[-1] == 0.0
        g = truth.warp_on_grid(sid, grid)
        expect = hyman_interp(truth.anchors, truth.anchors + off)(grid)
        assert np.array_equal(g, expect)
        assert g[0] == pytest.approx(0.0, abs=1e-12)
        assert g[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(g) > 0)


def test_true_coefficient_curves():
    t = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.allclose(study1_beta(0, t), np.cos(2 * np.pi * t))
    assert np.allclose(study1_beta(1, t), 2.0 * (t - 1.0) ** 2)
    with pytest.raises(DataError):
        study1_beta(2, t)


def test_scenario_defaults_resolve_and_override():
    cfg = Study2Config(scenario="A")
    assert cfg.delta1 == 0.18
    assert cfg.delta2 == 0.7
    assert cfg.sigma == 0.03
    cfg_b = Study2Config(scenario="B")
    assert cfg_b.delta1 == 0.15
    assert cfg_b.sigma_w == 0.005
    assert Study2Config(scenario="A", delta1=0.0).delta1 == 0.0
    # filled in when the config is built, each a float
    given = Study2Config(scenario="B", delta1=0, sigma=1)
    values = [given.delta1, given.delta2, given.sigma, given.sigma_r, given.sigma_w]
    assert values == [0.0, 0.5, 1.0, 0.02, 0.005]
    assert all(type(x) is float for x in values)
    with pytest.raises(DataError, match="scenario"):
        Study2Config(scenario="C")
    with pytest.raises(DataError, match=">= 0"):
        Study2Config(scenario="A", sigma=-0.1)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Study2Config(scenario="A", sigma=-0.1), "sigma"),
        (lambda: Study2Config(scenario="B", sigma_w=float("nan")), "sigma_w"),
        (lambda: Study1Config(sigma_r=float("nan")), "sigma_r"),
    ],
    ids=["study2-negative-sigma", "study2-nan-sigma_w", "study1-nan-sigma_r"],
)
def test_a_bad_noise_scale_is_refused_when_the_config_is_built(make, name):
    with pytest.raises(DataError, match=f"{name} must be >= 0"):
        make()


def test_config_validation():
    with pytest.raises(DataError):
        Study1Config(n_subjects=3)
    with pytest.raises(DataError):
        Study1Config(n_obs=3)
    with pytest.raises(DataError, match="sigma_r"):
        Study1Config(sigma_r=-1.0)
    with pytest.raises(DataError, match="positive definite"):
        Study1Config(o_group0=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(DataError, match="symmetric"):
        Study1Config(o_group1=((1.0, 0.5), (0.2, 1.0)))
    with pytest.raises(DataError, match="even"):
        Study2Config(n_subjects=7)


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            _feed(h, value[key])
    else:
        h.update(repr(value).encode())


def _draw_digest(simulate, cfg):
    """sha256 of a draw: every curve, scalar record and SimTruth field."""
    panel, truth = simulate(cfg)
    h = hashlib.sha256()
    for curve, rec in zip(panel.curves, panel.scalars):
        for value in (curve.subject_id, curve.times, curve.values, rec.subject_id, rec.v, rec.y):
            _feed(h, value)
    for f in dataclasses.fields(truth):
        h.update(f.name.encode())
        _feed(h, getattr(truth, f.name))
    return h.hexdigest()


# The bytes of small draws, pinned so that a change to the generators that
# moves any draw (and with it the quality study's and the benchmark's
# inputs) fails here rather than only between two runs of one version.
PINNED_DRAWS = {
    "study1-defaults": (
        simulate_study1, Study1Config(),
        "44ebc93592976ad53f1702ba6f09563b36328ffb11b3ce3f47eac2eeae061dad",
    ),
    "study1-no-noise": (
        simulate_study1,
        Study1Config(n_subjects=6, n_obs=15, sigma_r=0.0, sigma_w=0.0, sigma=0.0, seed=2),
        "ed85a8cd15568ba59b5a70920bf43c66197a5ccf4ff18643751d1c50e59d328f",
    ),
    "study1-odd-panel": (
        simulate_study1, Study1Config(n_subjects=7, n_obs=10, seed=5),
        "a65f41775827c4adb32aaf8197f1751a3ced86ab06c52b06e04dce565d71dfd0",
    ),
    "study2-A": (
        simulate_study2, Study2Config(scenario="A", seed=1, n_subjects=8, n_obs=20),
        "adb1c459b93fd1bf002c27e47297e94430725038ccde41366245d75b3f03e96b",
    ),
    "study2-B": (
        simulate_study2, Study2Config(scenario="B", seed=2, n_subjects=6, n_obs=15),
        "950e072db460f7c9a53447c75d98c96e06b224f1853ad72fedee4993efdfaf37",
    ),
    "study2-A-overrides": (
        simulate_study2,
        Study2Config(scenario="A", seed=3, n_subjects=4, n_obs=10, delta1=0, sigma=0),
        "02c757d4cb27f4113f6e6454945f65e891c72ae540c5700b1a5d64d7de100f14",
    ),
    "study2-B-overrides": (
        simulate_study2,
        Study2Config(scenario="B", seed=4, n_subjects=4, n_obs=10,
                     delta2=0.0, sigma_r=0.0, sigma_w=0.0),
        "627ba0c48b2d82999fd55300f1905e87e59f685c7a1c245ff592c95379766a5a",
    ),
    # Draws of several 64-subject blocks; the second hits the identity guard.
    "study2-A-three-blocks": (
        simulate_study2, Study2Config(scenario="A", seed=7, n_subjects=150, n_obs=30),
        "5addb5c6c0fa0d79fcc7b490560f729e7237c26953ead55ff36c166cca4798b1",
    ),
    "study2-A-wide-warps": (
        simulate_study2,
        Study2Config(scenario="A", seed=9, n_subjects=130, n_obs=12, sigma_w=0.2),
        "8d4f4800525417876792740b13ba8814a11f3430348bf8fde0b87faea6a215ae",
    ),
    "study1-three-blocks": (
        simulate_study1, Study1Config(n_subjects=131, n_obs=25, seed=3),
        "c64c919b6259e6f7313b2aa3e65366180aa7633a532bf4dd717ea763da6ffd70",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRAWS))
def test_generators_draw_the_pinned_bytes(case):
    simulate, cfg, expected = PINNED_DRAWS[case]
    assert _draw_digest(simulate, cfg) == expected


def _simeval_warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "warpclass.simeval"]


def test_identity_warps_are_counted_in_one_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="warpclass.simeval"):
        _, truth = simulate_study2(Study2Config(scenario="A", seed=0, n_subjects=120, sigma_w=0.2))
    n_identity = sum(not off.any() for off in truth.warp_offsets.values())
    assert n_identity == 93
    assert _simeval_warnings(caplog) == [
        "93 of 120 subjects drew warp ordinates that do not increase; their warps are the identity"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="warpclass.simeval"):
        simulate_study1(Study1Config())
        simulate_study2(Study2Config(scenario="A"))
        simulate_study2(Study2Config(scenario="B"))
    assert _simeval_warnings(caplog) == []


# ---------------------------------------------------------------------------
# Classification metrics against brute-force pair counting.


def _rand_by_enumeration(truth, pred):
    truth, pred = list(truth), list(pred)
    agree = total = 0
    for i, j in itertools.combinations(range(len(truth)), 2):
        total += 1
        agree += (truth[i] == truth[j]) == (pred[i] == pred[j])
    return agree / total


def _ari_by_enumeration(truth, pred):
    # textbook contingency formula, built with explicit loops
    truth, pred = list(truth), list(pred)
    n = len(truth)
    cells = {}
    for a, b in zip(truth, pred):
        cells[(a, b)] = cells.get((a, b), 0) + 1
    rows, cols = {}, {}
    for (a, b), cnt in cells.items():
        rows[a] = rows.get(a, 0) + cnt
        cols[b] = cols.get(b, 0) + cnt
    s_cells = sum(math.comb(c, 2) for c in cells.values())
    s_rows = sum(math.comb(c, 2) for c in rows.values())
    s_cols = sum(math.comb(c, 2) for c in cols.values())
    expect = s_rows * s_cols / math.comb(n, 2)
    denom = 0.5 * (s_rows + s_cols) - expect
    if denom == 0.0:
        return 1.0 if s_cells == s_rows == s_cols else 0.0
    return (s_cells - expect) / denom


def test_accuracy_counts_exact_matches():
    assert metric_ca([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
    assert metric_ca([0, 1], [0, 1]) == 1.0
    with pytest.raises(DataError):
        metric_ca([], [])
    with pytest.raises(DataError, match="length"):
        metric_ca([0, 1], [0])


def test_pair_indices_match_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    for n in (2, 5, 12):
        for n_cat in (2, 3):
            for _ in range(20):
                a = rng.integers(0, n_cat, size=n)
                b = rng.integers(0, n_cat, size=n)
                assert metric_rand(a, b) == pytest.approx(_rand_by_enumeration(a, b), abs=1e-12)
                assert metric_ari(a, b) == pytest.approx(_ari_by_enumeration(a, b), abs=1e-12)


def test_flipped_binary_labels():
    truth = [0, 1, 0, 1, 1]
    pred = [1, 0, 1, 0, 0]
    # every label is wrong but the partition is the same
    assert metric_ca(truth, pred) == 0.0
    assert metric_rand(truth, pred) == 1.0
    assert metric_ari(truth, pred) == 1.0


def test_hand_computed_small_partition():
    truth = [0, 0, 1, 1]
    pred = [0, 0, 0, 1]
    assert metric_rand(truth, pred) == pytest.approx(0.5)
    assert metric_ari(truth, pred) == pytest.approx(0.0)


def test_adjusted_rand_ignores_category_names():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=30)
    b = rng.integers(0, 2, size=30)
    assert metric_ari(a, b) == pytest.approx(metric_ari(a, 1 - b), abs=1e-12)
    assert metric_ari(a, a) == 1.0


def test_degenerate_partitions():
    # both all-same and both all-distinct: perfect agreement, zero denominator
    assert metric_ari([0, 0, 0], [1, 1, 1]) == 1.0
    assert metric_ari([0, 1, 2], [2, 0, 1]) == 1.0
    # one trivial partition against an informative one carries no signal
    assert metric_ari([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0
    with pytest.raises(DataError):
        metric_rand([0], [0])


def test_bias_and_spread_of_replicate_estimates():
    bias, ssd = metric_bias_ssd([[1.0], [2.0], [3.0]], [2.0])
    assert bias[0] == pytest.approx(0.0, abs=1e-15)
    assert ssd[0] == pytest.approx(1.0)
    bias, ssd = metric_bias_ssd([[1.0, 4.0], [3.0, 8.0]], [2.0, 5.0])
    assert np.allclose(bias, [0.0, 1.0])
    assert np.allclose(ssd, [np.sqrt(2.0), np.sqrt(8.0)])
    with pytest.raises(DataError):
        metric_bias_ssd([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(DataError, match="columns"):
        metric_bias_ssd([[1.0], [2.0]], [1.0, 2.0])


def test_integrated_bias_of_a_constant_offset():
    grid = np.linspace(0.0, 1.0, 51)
    truth = np.sin(2 * np.pi * grid)
    est = np.tile(truth + 0.3, (5, 1))
    isbias, imse = metric_isbias_imse(est, truth, grid)
    # constant offset c: both integrals equal c^2 and the trapezoid rule is exact
    assert isbias == pytest.approx(0.09, abs=1e-10)
    assert imse == pytest.approx(0.09, abs=1e-10)


def test_integrated_error_splits_bias_from_variance():
    grid = np.linspace(0.0, 1.0, 41)
    truth = grid ** 2
    est = np.vstack([truth + 0.2, truth - 0.2, truth + 0.2, truth - 0.2])
    isbias, imse = metric_isbias_imse(est, truth, grid)
    assert isbias == pytest.approx(0.0, abs=1e-12)
    assert imse == pytest.approx(0.04, abs=1e-10)
    with pytest.raises(DataError, match="grid"):
        metric_isbias_imse(est[:, :-1], truth, grid)


def test_integrated_mse_dominates_integrated_squared_bias():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 33)
    truth = np.cos(grid)
    est = truth + rng.normal(size=(7, 33)) * 0.1
    isbias, imse = metric_isbias_imse(est, truth, grid)
    assert imse >= isbias - 1e-12


def test_average_integrated_squared_warp_error():
    grid = np.linspace(0.0, 1.0, 101)
    true = {"a": grid, "b": grid}
    est = {"a": grid + 0.01, "b": grid.copy()}
    assert warp_imse(est, true, grid) == pytest.approx(0.5 * 1e-4, abs=1e-12)
    with pytest.raises(DataError, match="different subjects"):
        warp_imse({"a": grid}, true, grid)
    with pytest.raises(DataError):
        warp_imse({}, {}, grid)
    with pytest.raises(DataError, match="grid"):
        warp_imse({"a": grid[:-1], "b": grid}, true, grid)


def test_quadrature_weights_integrate_linear_functions_exactly():
    grid = np.sort(np.random.default_rng(2).random(17))
    w = quad_weights(grid)
    assert w @ np.ones_like(grid) == pytest.approx(grid[-1] - grid[0], abs=1e-12)
    assert w @ grid == pytest.approx((grid[-1] ** 2 - grid[0] ** 2) / 2.0, abs=1e-12)


def test_report_round_trips_through_json():
    rep = MetricsReport(
        ca=0.9, ri=0.8, ari=0.6,
        bias=np.array([0.1, 0.2]), ssd=np.array([0.3, 0.4]),
        isbias={0: 1e-3}, imse={0: 2e-3}, warp_imse=1e-4,
    )
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["ca"] == 0.9
    assert back["bias"] == [0.1, 0.2]
    assert back["isbias"] == {"0": 1e-3}
    assert back["warp_imse"] == 1e-4


def test_report_validates_ranges():
    with pytest.raises(DataError, match="ca"):
        MetricsReport(ca=1.2)
    with pytest.raises(DataError, match="ari"):
        MetricsReport(ari=-1.5)
    assert MetricsReport(ca=None).to_dict()["ca"] is None
