"""The quality study in demos/ runs end to end on tiny draws, reproducibly."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from warpclass import RunConfig, registration

_PATH = Path(__file__).resolve().parents[1] / "demos" / "quality_study.py"


def _load():
    spec = importlib.util.spec_from_file_location("quality_study", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quality_study_reports_every_field_with_one_digest():
    study = _load()
    config = RunConfig(max_outer=2, n_align_grid=41, cv_grid=((6, 3), (8, 4)))
    runs = [study.run_study([0, 1], config=config, n_subjects=20, n_obs=20) for _ in range(2)]
    report = runs[0]
    assert runs[1]["digest"] == report["digest"]
    assert json.loads(json.dumps(report)) == report
    assert [(r["scenario"], r["seed"]) for r in report["records"]] == [
        ("A", 0), ("A", 1), ("B", 0), ("B", 1)
    ]
    assert set(report["records"][0]) == {
        "scenario", "seed", "ca", "mean_deviance", "pi_hat_clipped", "max_abs_theta",
        "sigma_e", "sigma_e_on_floor", "classifier_converged", "classifier_n_passes",
        "cv_pair", "cv_table", "final_objective", "n_outer", "registration_converged",
        "warp_imse", "noise_sd", "curve_cov", "warp_cov",
    }
    for scenario in ("A", "B"):
        medians = report["medians"][scenario]
        assert medians["n_draws"] == 2
        assert {"median_ca", "median_mean_deviance", "median_warp_imse", "median_n_outer",
                "sigma_e_on_floor_share", "registration_converged_share",
                "cv_pair_counts", "median_curve_cov"} <= set(medians)
        assert sum(medians["cv_pair_counts"].values()) == 2
    for record in report["records"]:
        assert 0.0 <= record["ca"] <= 1.0 and 0.0 <= record["pi_hat_clipped"] <= 1.0
        assert record["cv_pair"] == record["cv_table"][0][:2]


def test_study1_reports_every_field_with_one_digest():
    study = _load()
    config = RunConfig(max_outer=2, n_align_grid=41, cv_grid=((6, 3), (8, 4)))
    runs = [study.run_study1([0, 1], config=config, n_subjects=20, n_obs=20) for _ in range(2)]
    report = runs[0]
    assert runs[1]["digest"] == report["digest"]
    assert json.loads(json.dumps(report)) == report
    assert report["study"] == 1 and [r["seed"] for r in report["records"]] == [0, 1]
    assert set(report["records"][0]) == {
        "seed", "n_outer", "registration_converged", "ridge_lambda", "ridge_lambda_at_max",
        "cv_pair", "classifier_converged", "classifier_n_passes", "sigma_e", "max_abs_theta",
        "b0", "b1", "beta1_ise", "beta2_ise",
    }
    assert set(report["across_draws"]) == {"beta1", "beta2", "b0", "b1"}
    for name in ("beta1", "beta2"):
        block = report["across_draws"][name]
        # IMSE is the mean of the draws' ISEs and dominates ISBias
        ise = [r[f"{name}_ise"] for r in report["records"]]
        assert block["imse"] == pytest.approx(np.mean(ise), rel=1e-12)
        assert 0.0 <= block["isbias"] <= block["imse"]
    for name in ("b0", "b1"):
        assert report["across_draws"][name]["bias"] >= 0.0
        assert report["across_draws"][name]["ssd"] >= 0.0
    for record in report["records"]:
        assert registration._RIDGE_MIN <= record["ridge_lambda"] <= registration._RIDGE_MAX
        assert record["ridge_lambda_at_max"] == (record["ridge_lambda"] == registration._RIDGE_MAX)
    medians = report["medians"]
    assert medians["n_draws"] == 2 and sum(medians["cv_pair_counts"].values()) == 2
    assert {"median_ridge_lambda", "ridge_lambda_at_max_share", "median_beta1_ise"} <= set(medians)
