"""
Curve registration on a small simulated panel
==============================================

Simulates two groups of warped bivariate curves, fits the two-level
registration by alternating conditional estimation, and inspects what
the fit gives back: the objective trace, the identifiability centering,
and how much the alignment tightens each group around its template.
"""

import numpy as np

from warpclass.registration import (
    RegistrationConfig,
    align_curves,
    fit_registration,
    warp_values,
)
from warpclass.simeval import Study2Config, simulate_study2

# a small panel keeps this demo under half a minute
cfg = Study2Config(scenario="A", seed=1, n_subjects=20, n_obs=40)
panel, truth = simulate_study2(cfg)
print(f"panel: {panel.n_subjects} subjects, {len(panel.curves[0].times)} points each")

# a loose tolerance is plenty here; the objective flattens within a few passes
fit = fit_registration(panel, RegistrationConfig(tol_rel=1e-3))
print(f"converged={fit.converged} after {fit.n_outer} outer iterations")
print(f"estimated noise sd: {fit.var.noise_sd:.4f} (generator used {cfg.sigma})")

# the penalized objective never increases along the fit
trace = np.asarray(fit.trace)
print("\nobjective trace:", np.round(trace, 3).tolist())
drops = np.diff(trace)
print(f"non-increasing steps: {np.sum(drops <= 1e-6)} of {len(drops)}")

# centering: per-group mean subject warp offsets are zero, and the
# group template deviations sum to zero
for k in (0, 1):
    sids = [s for s, g in fit.warps.group_of.items() if g == k]
    mean_off = np.mean([fit.warps.subject_offsets[s] for s in sids], axis=0)
    print(f"group {k}: max |mean subject warp offset| = {np.max(np.abs(mean_off)):.2e}")
d_sum = sum(fit.means.group.values())
print(f"max |sum of group deviations| = {np.max(np.abs(d_sum)):.2e}")

# how close are the fitted warps to the generating ones?
grid = np.linspace(0.0, 1.0, 101)
errs = []
for sid in panel.subject_ids:
    g_hat = warp_values(fit.warps.anchors, fit.warps.ordinates(sid), grid)
    g_true = truth.warp_on_grid(sid, grid)
    errs.append(np.sqrt(np.trapezoid((g_hat - g_true) ** 2, grid)))
print(f"\nwarp RMSE over subjects: median {np.median(errs):.4f}, worst {np.max(errs):.4f}")

# alignment should pull each group's curves toward a common shape:
# compare the spread around the group mean before and after
aligned = align_curves(panel, fit)
for k in (0, 1):
    idx = [i for i, s in enumerate(aligned.subject_ids) if fit.warps.group_of[s] == k]
    raw = np.stack([
        np.interp(aligned.grid, panel.curves[i].times, panel.curves[i].values[:, 0])
        for i in idx
    ])
    reg = aligned.values[idx, :, 0]
    sd_raw = float(np.mean(raw.std(axis=0)))
    sd_reg = float(np.mean(reg.std(axis=0)))
    print(f"group {k}: mean pointwise sd raw {sd_raw:.4f} -> aligned {sd_reg:.4f}")
