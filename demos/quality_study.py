"""
Quality study: what the estimates look like over many simulated draws
=====================================================================

Study 2 (the default) runs scenarios A and B over fixed seeds (0-9 by
default), each draw split 60/60 by the simulation's training mask,
through the public API as ``warpclass fit`` and ``warpclass predict`` run
it: default ``RunConfig``, the truncation pair chosen by
cross-validation, then the held-out half predicted in one
``predict_panel`` call.  It prints one JSON report: a record per scenario
and seed, the medians per scenario, and a sha256 digest of the records,
so two runs, or two versions of the package, can be compared by one line.

Per draw the record gives, for the classifier: held-out ``ca``, the mean
held-out deviance, the fraction of held-out ``pi_hat`` on the 1e-15 clip,
the largest |coefficient| (intercept, scalar and spline coefficients),
``sigma_e`` and whether it sits on the lower end of its interval
(``classify._SIGMA_MIN``), ``converged`` and ``n_passes``, and the
cross-validated pair with every pair's mean validation deviance in rank
order; for the registration: ``final_objective``, ``n_outer``,
``converged``, ``warp_imse`` over the training subjects and the variance
parameters.

Study 1 (``--study 1``, the estimation study) runs seeds 0-9 at the
``Study1Config`` defaults and fits all 80 subjects the same way, with the
pair chosen by cross-validation.  Per draw the record gives the
registration's ``n_outer``, ``converged`` and ridge weight (and whether
it is on its upper bound), the cross-validated pair, the classifier's
``converged``, ``n_passes``, ``sigma_e`` and largest |coefficient|, the
estimates of b0 and b1, and the integrated squared error of each
functional coefficient against the truth on a 101-point grid.  Across
draws the report gives ISBias and IMSE of each functional coefficient
and the bias and SD of b0 and b1, with the medians of the records and
one digest of the records and these.

The reports hold no wall times, so their digests depend only on the
estimates.  Run from the repository root (at the default seeds, about
10 s for Study 2 and 7 s for Study 1 on a 2-core VM at one BLAS thread):

    PYTHONPATH=src python3 demos/quality_study.py [--study 1] [--seeds 0-9] [--scenarios A B]
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from warpclass import (
    RunConfig,
    Study1Config,
    Study2Config,
    cross_validate_K,
    fit_classifier,
    fit_registration,
    functional_coefficient,
    hyman_interp,
    metric_bias_ssd,
    metric_ca,
    metric_isbias_imse,
    predict_panel,
    simulate_study1,
    simulate_study2,
    warp_imse,
)
from warpclass.classify import _SIGMA_MIN
from warpclass.registration import _RIDGE_MAX
from warpclass.simeval import study1_beta

# pi_hat is kept this far from 0 and 1 (classify._PROB_FLOOR)
PROB_CLIP = 1e-15
# warps and functional coefficients are compared with the truth on this
# grid, as the benchmark does
GRID = np.linspace(0.0, 1.0, 101)


def fit_pipeline(panel, config: RunConfig):
    """Registration, the cross-validated pair with its table, and the classifier."""
    fit = fit_registration(panel, config.registration())
    (k_x, k_e), table = cross_validate_K(
        fit, panel, pairs=config.cv_grid, n_folds=config.cv_folds, seed=config.seed,
        return_table=True, smoothing_window=config.smoothing_window,
    )
    model = fit_classifier(fit, panel, k_x, k_e, smoothing_window=config.smoothing_window)
    return fit, (k_x, k_e), table, model


def max_abs_theta(model) -> float:
    """The largest |coefficient|: intercept, scalar and spline coefficients."""
    return float(np.abs(np.concatenate([[model.b0], model.b1, model.e.ravel()])).max())


def run_draw(scenario: str, seed: int, config: RunConfig, n_subjects: int, n_obs: int) -> dict:
    """Fit, cross-validate, classify and predict one Study 2 draw; its record."""
    panel, truth = simulate_study2(
        Study2Config(scenario=scenario, seed=seed, n_subjects=n_subjects, n_obs=n_obs)
    )
    ids = panel.subject_ids
    train = panel.subset([sid for sid, m in zip(ids, truth.train_mask) if m])
    test = panel.subset([sid for sid, m in zip(ids, truth.train_mask) if not m])

    fit, (k_x, k_e), table, model = fit_pipeline(train, config)
    results = predict_panel(fit, model, test.curves, test.covariates)

    y = test.labels
    pi = np.array([r.pi_hat for r in results])
    deviance = -2.0 * (y * np.log(pi) + (1 - y) * np.log(1.0 - pi))
    anchors = fit.warps.anchors
    est, true = {}, {}
    for sid in train.subject_ids:
        est[sid] = hyman_interp(anchors, fit.warps.ordinates(sid))(GRID)
        true[sid] = truth.warp_on_grid(sid, GRID)
    var = fit.var
    return {
        "scenario": scenario,
        "seed": seed,
        "ca": float(metric_ca(y, [r.label for r in results])),
        "mean_deviance": float(deviance.mean()),
        "pi_hat_clipped": float(np.mean((pi <= PROB_CLIP) | (pi >= 1.0 - PROB_CLIP))),
        "max_abs_theta": max_abs_theta(model),
        "sigma_e": float(model.sigma_e),
        "sigma_e_on_floor": bool(model.sigma_e == _SIGMA_MIN),
        "classifier_converged": bool(model.converged),
        "classifier_n_passes": int(model.n_passes),
        "cv_pair": [int(k_x), int(k_e)],
        "cv_table": [[int(kx), int(ke), float(dev)] for (kx, ke), dev, _ in table],
        "final_objective": float(fit.trace[-1]),
        "n_outer": int(fit.n_outer),
        "registration_converged": bool(fit.converged),
        "warp_imse": float(warp_imse(est, true, GRID)),
        "noise_sd": float(var.noise_sd),
        "curve_cov": [float(var.curve_cov.amplitude), float(var.curve_cov.length_scale),
                      float(var.curve_cov.smoothness)],
        "warp_cov": [float(var.warp_cov.amplitude), float(var.warp_cov.length_scale),
                     float(var.warp_cov.smoothness)],
    }


def run_draw1(seed: int, config: RunConfig, n_subjects: int, n_obs: int) -> tuple:
    """Fit, cross-validate and classify one Study 1 draw on all its subjects;
    its record and the two functional coefficients on ``GRID``."""
    panel, _ = simulate_study1(Study1Config(seed=seed, n_subjects=n_subjects, n_obs=n_obs))
    fit, (k_x, k_e), _, model = fit_pipeline(panel, config)
    betas = [functional_coefficient(model, a, GRID) for a in (0, 1)]
    ise = [metric_isbias_imse(b[None], study1_beta(a, GRID), GRID)[1] for a, b in enumerate(betas)]
    record = {
        "seed": seed,
        "n_outer": int(fit.n_outer),
        "registration_converged": bool(fit.converged),
        "ridge_lambda": float(fit.ridge_lambda),
        "ridge_lambda_at_max": bool(fit.ridge_lambda == _RIDGE_MAX),
        "cv_pair": [int(k_x), int(k_e)],
        "classifier_converged": bool(model.converged),
        "classifier_n_passes": int(model.n_passes),
        "sigma_e": float(model.sigma_e),
        "max_abs_theta": max_abs_theta(model),
        "b0": float(model.b0),
        "b1": float(model.b1[0]),
        "beta1_ise": float(ise[0]),
        "beta2_ise": float(ise[1]),
    }
    return record, betas


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


def run_study1(seeds, config=None, n_subjects=80, n_obs=100) -> dict:
    """The Study 1 report: records per seed, their medians, the estimation
    metrics across draws, and one digest of records and metrics."""
    config = config or RunConfig()
    draws = [run_draw1(seed, config, n_subjects, n_obs) for seed in seeds]
    records = [record for record, _ in draws]
    truth = Study1Config()
    across = {}
    for a in (0, 1):
        isbias, imse = metric_isbias_imse(
            [betas[a] for _, betas in draws], study1_beta(a, GRID), GRID
        )
        across[f"beta{a + 1}"] = {"isbias": float(isbias), "imse": float(imse)}
    bias, ssd = metric_bias_ssd([[r["b0"], r["b1"]] for r in records], [truth.b0, truth.b1])
    for i, name in enumerate(("b0", "b1")):
        across[name] = {"bias": float(bias[i]), "ssd": float(ssd[i])}
    digest = hashlib.sha256(
        json.dumps({"records": records, "across_draws": across}, sort_keys=True).encode()
    ).hexdigest()
    return {
        "study": 1,
        "seeds": list(seeds),
        "n_subjects": n_subjects,
        "n_obs": n_obs,
        "records": records,
        "medians": summarize(records),
        "across_draws": across,
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
    parser.add_argument("--study", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seeds", type=_seeds, default=list(range(10)))
    parser.add_argument("--scenarios", nargs="+", choices=("A", "B"), default=["A", "B"],
                        help="Study 2 only")
    args = parser.parse_args(argv)
    if args.study == 1 and len(args.seeds) < 2:
        parser.error("Study 1's bias and SD need at least two seeds")
    report = run_study1(args.seeds) if args.study == 1 else run_study(args.seeds, args.scenarios)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
