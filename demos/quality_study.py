"""
Quality study: what the estimates look like over many simulated draws
=====================================================================

Runs Study 2 scenarios A and B over fixed seeds (0-9 by default), each
draw split 60/60 by the simulation's training mask, through the public
API as ``warpclass fit`` and ``warpclass predict`` run it: default
``RunConfig``, the truncation pair chosen by cross-validation, then the
held-out half predicted in one ``predict_panel`` call.  It prints one
JSON report: a record per scenario and seed, the medians per scenario,
and a sha256 digest of the records, so two runs, or two versions of the
package, can be compared by one line.

Per draw the record gives, for the classifier: held-out ``ca``, the mean
held-out deviance, the fraction of held-out ``pi_hat`` on the 1e-15 clip,
the largest |coefficient| (intercept, scalar and spline coefficients),
``sigma_e`` and whether it sits on its floor, ``converged`` and
``n_passes``, and the cross-validated pair with every pair's mean
validation deviance in rank order; for the registration:
``final_objective``, ``n_outer``, ``converged``, ``warp_imse`` over the
training subjects and the variance parameters.  The report holds no wall
times, so its digest depends only on the estimates.

Study 1 (the estimation study) is left out for now: it would add the
functional coefficients' ISBias and IMSE, and no question this study is
asked yet depends on them.

Run from the repository root (about 20 s for the default seeds on two cores):

    PYTHONPATH=src python3 demos/quality_study.py [--seeds 0-9] [--scenarios A B]
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from warpclass import (
    RunConfig,
    Study2Config,
    cross_validate_K,
    fit_classifier,
    fit_registration,
    hyman_interp,
    metric_ca,
    predict_panel,
    simulate_study2,
    warp_imse,
)

# pi_hat is kept this far from 0 and 1 (classify._PROB_FLOOR)
PROB_CLIP = 1e-15
# sigma_e at fit_glmm's floor on the ridge variance, sqrt(1e-10)
SIGMA_E_FLOOR = 1e-5
# warps are compared with the truth on this grid, as the benchmark does
WARP_GRID = np.linspace(0.0, 1.0, 101)


def run_draw(scenario: str, seed: int, config: RunConfig, n_subjects: int, n_obs: int) -> dict:
    """Fit, cross-validate, classify and predict one draw; its record."""
    panel, truth = simulate_study2(
        Study2Config(scenario=scenario, seed=seed, n_subjects=n_subjects, n_obs=n_obs)
    )
    ids = panel.subject_ids
    train = panel.subset([sid for sid, m in zip(ids, truth.train_mask) if m])
    test = panel.subset([sid for sid, m in zip(ids, truth.train_mask) if not m])

    fit = fit_registration(train, config.registration())
    (k_x, k_e), table = cross_validate_K(
        fit, train, pairs=config.cv_grid, n_folds=config.cv_folds, seed=config.seed,
        return_table=True, smoothing_window=config.smoothing_window,
    )
    model = fit_classifier(fit, train, k_x, k_e, smoothing_window=config.smoothing_window)
    results = predict_panel(fit, model, test.curves, test.covariates)

    y = test.labels
    pi = np.array([r.pi_hat for r in results])
    deviance = -2.0 * (y * np.log(pi) + (1 - y) * np.log(1.0 - pi))
    theta = np.concatenate([[model.b0], model.b1, model.e.ravel()])
    anchors = fit.warps.anchors
    est, true = {}, {}
    for sid in train.subject_ids:
        est[sid] = hyman_interp(anchors, fit.warps.ordinates(sid))(WARP_GRID)
        true[sid] = truth.warp_on_grid(sid, WARP_GRID)
    var = fit.var
    return {
        "scenario": scenario,
        "seed": seed,
        "ca": float(metric_ca(y, [r.label for r in results])),
        "mean_deviance": float(deviance.mean()),
        "pi_hat_clipped": float(np.mean((pi <= PROB_CLIP) | (pi >= 1.0 - PROB_CLIP))),
        "max_abs_theta": float(np.abs(theta).max()),
        "sigma_e": float(model.sigma_e),
        "sigma_e_on_floor": bool(model.sigma_e <= SIGMA_E_FLOOR),
        "classifier_converged": bool(model.converged),
        "classifier_n_passes": int(model.n_passes),
        "cv_pair": [int(k_x), int(k_e)],
        "cv_table": [[int(kx), int(ke), float(dev)] for (kx, ke), dev, _ in table],
        "final_objective": float(fit.trace[-1]),
        "n_outer": int(fit.n_outer),
        "registration_converged": bool(fit.converged),
        "warp_imse": float(warp_imse(est, true, WARP_GRID)),
        "noise_sd": float(var.noise_sd),
        "curve_cov": [float(var.curve_cov.amplitude), float(var.curve_cov.length_scale),
                      float(var.curve_cov.smoothness)],
        "warp_cov": [float(var.warp_cov.amplitude), float(var.warp_cov.length_scale),
                     float(var.warp_cov.smoothness)],
    }


def summarize(records: list) -> dict:
    """Medians of the numeric fields, the share of true flags and the count
    of each cross-validated pair."""
    out = {"n_draws": len(records)}
    for key, first in records[0].items():
        if key in ("scenario", "seed", "cv_table"):
            continue
        values = [r[key] for r in records]
        if key == "cv_pair":
            pairs = sorted({tuple(v) for v in values})
            out["cv_pair_counts"] = {f"{kx},{ke}": values.count([kx, ke]) for kx, ke in pairs}
        elif isinstance(first, bool):
            out[f"{key}_share"] = float(np.mean(values))
        elif isinstance(first, list):
            out[f"median_{key}"] = np.median(values, axis=0).tolist()
        else:
            out[f"median_{key}"] = float(np.median(values))
    return out


def run_study(seeds, scenarios=("A", "B"), config=None, n_subjects=120, n_obs=100) -> dict:
    """The report: records per scenario and seed, medians per scenario, digest."""
    config = config or RunConfig()
    records = [
        run_draw(scenario, seed, config, n_subjects, n_obs)
        for scenario in scenarios
        for seed in seeds
    ]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {
        "study": 2,
        "scenarios": list(scenarios),
        "seeds": list(seeds),
        "n_subjects": n_subjects,
        "n_obs": n_obs,
        "records": records,
        "medians": {s: summarize([r for r in records if r["scenario"] == s]) for s in scenarios},
        "digest": digest,
    }


def _seeds(text: str) -> list:
    """'0-9' or '0,3,5' as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=list(range(10)))
    parser.add_argument("--scenarios", nargs="+", choices=("A", "B"), default=["A", "B"])
    args = parser.parse_args(argv)
    report = run_study(args.seeds, args.scenarios)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
