"""CLI artifacts are byte-identical whatever number of BLAS threads computes them.

The fit, the predictions and the FPCA probe run in fresh interpreters,
because OpenBLAS reads its thread count once, when numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import warpclass
from warpclass.cli import main

SRC = Path(warpclass.__file__).resolve().parent.parent
CONFIG = {"n_interior_knots": 4, "k_x": 5, "k_e": 3, "max_outer": 4, "variance_maxiter": 40}
# The FPCA of 60 curves on 101 points, the benchmark's training size: a
# covariance product this large is one OpenBLAS splits across threads.
FPCA_PROBE = """
import hashlib
import numpy as np
from warpclass.classify import fpca_decompose, smooth_covariance
vals = np.random.default_rng(0).standard_normal((60, 101))
cov = smooth_covariance(vals)
fpca = fpca_decompose(cov, np.linspace(0.0, 1.0, 101), 18, mean=vals.mean(axis=0))
print(hashlib.sha256(cov.tobytes() + fpca.eigenfunctions.tobytes()).hexdigest())
"""

# The variance likelihood and its gradient on the benchmark's two kinds of
# stack: one shared 100-point grid with 60 subjects (120 blocks), and 30
# jittered 60-point grids with one subject each, in stacks of 9, 9, 9 and 3
# as the irregular workload's fits make them.  Per stack, C^-1 [r, B] and
# dS C^-1 [r, B] are batched BLAS products over observations, one per
# block.  Four draws of the blocks: a sum that depends on the thread count
# can still round alike on one.  The probe prints the hash of all of them.
VARIANCE_PROBE = """
import hashlib
import numpy as np
from warpclass.registration import _BIG, _variance_negloglik
rng = np.random.default_rng(0)
jittered = np.linspace(0.0, 1.0, 60) + rng.uniform(-0.002, 0.002, (30, 60))
# keyed by (points, blocks per grid, stack)
stacks = {(100, 120, 0): [np.linspace(0.0, 1.0, 100)]}
stacks.update({(60, 2, i): jittered[9 * i : 9 * i + 9] for i in range(4)})
grids = {key: np.array(stack) for key, stack in stacks.items()}
points = np.log([[1.0, 0.3, 1.0, 0.3], [40.0, 0.1, 0.02, 1.5], [0.05, 2.0, 5.0, 0.05]])
anchors = np.array([0.0, 0.33, 0.67, 1.0])
out = []
for _ in range(4):
    blocks = {
        (n, k, i): rng.standard_normal((len(stack), k, 3, n))
        for (n, k, i), stack in stacks.items()
    }
    for p in points:
        value, grad, _, sigma2, _ = _variance_negloglik(p, 3.0, 1.5, grids, blocks, anchors)
        out.append([value, sigma2, *grad])
out = np.array(out)
assert np.all(out[:, 0] < _BIG), out
assert np.all(np.isfinite(out)), out
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


# One warp step at the benchmark's size: 60 subjects on one 100-point grid,
# so each group of 30 whitens 180 columns in one triangular solve.  Then one
# on 30 jittered grids of two lengths (a third of the subjects keep every
# other time point), so each group's warped times and their derivatives come
# from one gathered einsum and one batched matmul per length.
WARP_PROBE = """
import hashlib, json
import numpy as np
from warpclass.basis import BSplineBasis
from warpclass.curves import CurvePanel, SubjectCurve
from warpclass.registration import (
    GridTable, MeanWeights, RegistrationConfig, WarpState, build_context, estimate_c,
    estimate_d, fit_warps, gls_normals, warp_design,
)
from warpclass.simeval import Study2Config, simulate_study2
cfg = RegistrationConfig()
basis = BSplineBasis.uniform(cfg.n_interior_knots, cfg.spline_order)
anchors = np.asarray(cfg.warp_anchors)

def step(panel):
    warps = WarpState.identity(anchors, panel.group_of)
    var, table = cfg.initial_variance(), GridTable(panel, anchors)
    ctx = build_context(panel, basis, var, table, table.factors(var.curve_cov))
    normals = gls_normals(panel, warps, ctx, warp_design(panel, warps, basis))
    shared = estimate_c(normals, {k: np.zeros((2, basis.size)) for k in (0, 1)})
    deviations, shared = estimate_d(normals, shared, 1.0)
    warps, stats = fit_warps(panel, MeanWeights(shared, deviations), ctx, warps)
    h = hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
    for offsets in [*warps.group_offsets.values(), *warps.subject_offsets.values()]:
        h.update(offsets.tobytes())
    print(stats["n_opt"], h.hexdigest())

panel, _ = simulate_study2(Study2Config(scenario="A", seed=0, n_subjects=60, n_obs=100))
step(panel)
panel, _ = simulate_study2(Study2Config(scenario="A", seed=1, n_subjects=30, n_obs=60))
rng = np.random.default_rng(1)
curves = []
for i, c in enumerate(panel.curves):
    keep = slice(None, None, 2 if i % 3 == 0 else 1)
    times = c.times + rng.uniform(-0.002, 0.002, len(c.times))
    curves.append(SubjectCurve(c.subject_id, times[keep], c.values[keep]))
step(CurvePanel(curves, panel.scalars))
"""


def _python(args, blas_threads: int) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(args, blas_threads: int) -> None:
    _python(["-m", "warpclass.cli", *args], blas_threads)


def test_fpca_at_benchmark_size_is_identical_across_blas_thread_counts():
    assert _python(["-c", FPCA_PROBE], 1) == _python(["-c", FPCA_PROBE], 2)


def test_variance_likelihood_at_benchmark_size_is_identical_across_blas_thread_counts():
    assert _python(["-c", VARIANCE_PROBE], 1) == _python(["-c", VARIANCE_PROBE], 2)


def test_warp_step_at_benchmark_size_is_identical_across_blas_thread_counts():
    one = _python(["-c", WARP_PROBE], 1)
    # 60 subject solves and 2 group solves; then 30 and 2
    assert [line.split()[0] for line in one.splitlines()] == ["62", "32"]
    assert one == _python(["-c", WARP_PROBE], 2)


def test_artifacts_are_identical_across_blas_thread_counts(tmp_path):
    data = tmp_path / "data"
    assert main([
        "simulate", "--study", "2", "--scenario", "A", "--seed", "4",
        "--n-subjects", "40", "--n-obs", "30", "--split-files", "--out", str(data),
    ]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        _cli([
            "fit", "--curves", data / "curves_train.csv", "--scalars", data / "scalars_train.csv",
            "--config", cfg, "--out", out,
        ], threads)
        _cli([
            "predict", "--fit", out, "--curves", data / "curves_test.csv",
            "--scalars", data / "scalars_test.csv", "--out", out / "predictions.csv",
        ], threads)
    for name in ("registration.json", "classifier.json", "fit_report.json", "predictions.csv"):
        one, two = ((tmp_path / f"blas{n}" / name).read_bytes() for n in (1, 2))
        assert one == two, name
