"""End-to-end command tests driven through the in-process entry point.

A module-scoped fixture runs the whole pipeline once on a small panel
(simulate, fit, predict); individual tests inspect the artifacts and
exercise the error paths.
"""

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import warpclass.registration as registration
from warpclass.classify import ClassifierModel, cross_validate_K, predict_new
from warpclass.cli import PREDICTIONS_HEADER, _write_json, main
from warpclass.config import RunConfig
from warpclass.curves import join_panel, load_curves, load_scalars
from warpclass.errors import NumericalError
from warpclass.registration import RegistrationFit

SMALL_CONFIG = {
    "n_interior_knots": 4,
    "k_x": 5,
    "k_e": 3,
    "max_outer": 4,
    "variance_maxiter": 40,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main([
        "simulate", "--study", "2", "--scenario", "A", "--seed", "9",
        "--n-subjects", "16", "--n-obs", "30", "--out", str(data),
        "--split-files",
    ])
    assert rc == 0
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    fit = root / "fit"
    rc = main([
        "fit", "--curves", str(data / "curves_train.csv"),
        "--scalars", str(data / "scalars_train.csv"),
        "--config", str(cfg), "--out", str(fit),
    ])
    assert rc == 0
    pred = root / "predictions.csv"
    rc = main([
        "predict", "--fit", str(fit),
        "--curves", str(data / "curves_test.csv"),
        "--scalars", str(data / "scalars_test.csv"),
        "--out", str(pred),
    ])
    assert rc == 0
    return SimpleNamespace(root=root, data=data, cfg=cfg, fit=fit, pred=pred)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_data_and_truth(pipeline):
    for name in ("curves.csv", "scalars.csv", "truth.json",
                 "curves_train.csv", "scalars_train.csv",
                 "curves_test.csv", "scalars_test.csv"):
        assert (pipeline.data / name).exists()
    truth = json.loads((pipeline.data / "truth.json").read_text())
    assert truth["format_version"] == 1
    assert len(truth["subjects"]) == 16
    assert len(truth["labels"]) == 16
    assert sum(truth["train_mask"]) == 8
    assert truth["scenario"] == "A"
    assert set(truth["warp_offsets"]) == set(truth["subjects"])


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--study", "2", "--scenario", "B", "--seed", "4",
            "--n-subjects", "6", "--n-obs", "12"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("curves.csv", "scalars.csv", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_defaults_to_the_full_panel(tmp_path):
    out = tmp_path / "big"
    assert main(["simulate", "--study", "2", "--scenario", "A", "--seed", "0",
                 "--n-obs", "8", "--out", str(out)]) == 0
    rows = _read_rows(out / "scalars.csv")
    assert len(rows) == 1 + 120


def test_simulate_estimation_study_payload(tmp_path):
    out = tmp_path / "s1"
    assert main(["simulate", "--study", "1", "--seed", "2",
                 "--n-subjects", "6", "--n-obs", "10", "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["study"] == 1
    assert truth["train_mask"] is None
    assert truth["b1"] == -0.5
    t = np.asarray(truth["beta_grids"]["t"])
    assert np.allclose(truth["beta_grids"]["beta1"], np.cos(2 * np.pi * t))


def test_simulate_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["simulate", "--study", "3", "--out", out]) == 2
    assert main(["simulate", "--study", "2", "--out", out]) == 2
    assert main(["simulate", "--study", "1", "--scenario", "A", "--out", out]) == 2
    assert main(["simulate", "--study", "1", "--split-files", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "scenario" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--study", "1", "--n-subjects", "0", "--n-obs", "0"], "need at least 4 subjects"),
        (["--study", "2", "--scenario", "A", "--n-obs", "0"], "need at least 4 observation points"),
    ],
    ids=["study1-zero-sizes", "study2-zero-n-obs"],
)
def test_simulate_refuses_a_zero_size_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "x"
    assert main(["simulate", *flags, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_artifacts_and_report(pipeline):
    for name in ("registration.json", "classifier.json", "fit_report.json"):
        assert (pipeline.fit / name).exists()
    report = json.loads((pipeline.fit / "fit_report.json").read_text())
    assert report["classifier"]["k_x"] == 5
    assert report["classifier"]["chosen_by"] == "config"
    assert report["registration"]["n_outer"] >= 1
    assert 0.0 <= report["registration"]["warp_opt_converged_fraction"] <= 1.0
    assert report["registration"]["warp_steps_reverted"] == 0
    assert report["registration"]["warp_evaluations"] >= 1
    registration = json.loads((pipeline.fit / "registration.json").read_text())
    assert report["registration"]["variance_evaluations"] == registration["fit"]["variance_evaluations"] >= 1
    assert report["registration"]["ridge_lambda"] == registration["fit"]["ridge_lambda"]
    # the persisted config holds exactly the run's settings
    assert set(report["run_config"]) == {f.name for f in fields(RunConfig)}
    assert report["run_config"]["k_e"] == 3


def _fit(pipeline, cfg_path, out):
    return main([
        "fit", "--curves", str(pipeline.data / "curves_train.csv"),
        "--scalars", str(pipeline.data / "scalars_train.csv"),
        "--config", str(cfg_path), "--out", str(out),
    ])


def test_fit_artifacts_are_byte_identical_across_runs(pipeline, tmp_path):
    fit2 = tmp_path / "fit2"
    assert _fit(pipeline, pipeline.cfg, fit2) == 0
    for name in ("registration.json", "classifier.json", "fit_report.json"):
        assert (fit2 / name).read_bytes() == (pipeline.fit / name).read_bytes()


def test_cross_validation_uses_the_configured_smoothing_window(pipeline, tmp_path):
    grid = [[4, 3], [5, 3], [5, 4]]
    settings = {k: v for k, v in SMALL_CONFIG.items() if k not in ("k_x", "k_e")}
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps({**settings, "cv_grid": grid, "cv_folds": 2, "smoothing_window": 5}))
    assert _fit(pipeline, cfg, tmp_path / "fit") == 0
    report = json.loads((tmp_path / "fit" / "fit_report.json").read_text())
    reg = json.loads((tmp_path / "fit" / "registration.json").read_text())
    reg_fit = RegistrationFit.from_dict(reg["fit"])
    panel = join_panel(
        load_curves(pipeline.data / "curves_train.csv"),
        load_scalars(pipeline.data / "scalars_train.csv"),
    )
    tables = {
        window: cross_validate_K(
            reg_fit, panel, pairs=grid, n_folds=2, seed=report["run_config"]["seed"],
            return_table=True, smoothing_window=window,
        )[1]
        for window in (5, 11)
    }
    assert report["classifier"]["cv_table"] == [[list(p), dev, n] for p, dev, n in tables[5]]
    assert tables[5] != tables[11]


def test_fitted_config_is_a_valid_config_file(pipeline, tmp_path):
    reg = json.loads((pipeline.fit / "registration.json").read_text())
    cfg = tmp_path / "fitted.json"
    cfg.write_text(json.dumps(reg["fit"]["config"]))
    assert _fit(pipeline, cfg, tmp_path / "refit") == 0
    again = json.loads((tmp_path / "refit" / "registration.json").read_text())
    assert json.dumps(again["fit"], sort_keys=True) == json.dumps(reg["fit"], sort_keys=True)


def test_fit_rejects_the_old_config_spellings(pipeline, tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"n_mean_knots": 4, "anchors": [0.0, 0.5, 1.0]}))
    assert _fit(pipeline, cfg, tmp_path / "f") == 3
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    assert "n_mean_knots" in err and "anchors" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"max_outer": 0}, "max_outer must be >= 1, got 0"),
        ({"n_interior_knots": -1}, "interior knots must be >= 0, got -1"),
        (
            {"warp_anchors": [0.0, 0.67, 0.33, 1.0]},
            "warp anchors must be strictly increasing, got [0.0, 0.67, 0.33, 1.0]",
        ),
        ({"cv_grid": [[4]]}, "cv_grid entries must be [k_x, k_e] pairs, got (4,)"),
        ({"k_x": "5", "k_e": 3}, "k_x must be an integer, got '5'"),
        ({"warp_anchors": 5}, "warp_anchors must be a list of numbers, got 5"),
        ({"warp_maxfun": 0}, "warp_maxfun must be >= 1, got 0"),
        ({"n_variance_updates": -1}, "n_variance_updates must be >= 0, got -1"),
        ({"curve_cov_init": [1.0, 0.3, 200]}, "Matern smoothness must be at most 64, got 200"),
    ],
)
def test_fit_rejects_edge_settings(pipeline, tmp_path, capsys, setting, message):
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, **setting}))
    assert _fit(pipeline, cfg, tmp_path / "f") == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "f" / "registration.json").exists()


def test_fit_missing_file_reports_the_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = main(["fit", "--curves", str(missing), "--scalars", str(missing),
               "--out", str(tmp_path / "f")])
    assert rc == 3
    assert str(missing) in capsys.readouterr().err


def test_fit_rejects_inverted_truncation_pair(pipeline, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "k_x": 3, "k_e": 5}))
    rc = main(["fit", "--curves", str(pipeline.data / "curves_train.csv"),
               "--scalars", str(pipeline.data / "scalars_train.csv"),
               "--config", str(cfg), "--out", str(tmp_path / "f")])
    assert rc == 3
    assert "k_x" in capsys.readouterr().err


def test_fit_requires_labels(pipeline, tmp_path, capsys):
    rows = _read_rows(pipeline.data / "scalars_train.csv")
    blank = tmp_path / "scalars_unlabeled.csv"
    with open(blank, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow([row[0], ""] + row[2:])
    rc = main(["fit", "--curves", str(pipeline.data / "curves_train.csv"),
               "--scalars", str(blank), "--out", str(tmp_path / "f")])
    assert rc == 3
    assert "label" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict


def test_predictions_cover_every_input_subject(pipeline):
    rows = _read_rows(pipeline.pred)
    assert rows[0] == PREDICTIONS_HEADER
    assert len(rows) == 1 + 8
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0
        assert row[2] in ("0", "1")
        assert row[3] in ("1", "2")
        assert row[4] in ("0", "1")


def test_predictions_match_the_library_calls(pipeline):
    reg_payload = json.loads((pipeline.fit / "registration.json").read_text())
    cls_payload = json.loads((pipeline.fit / "classifier.json").read_text())
    reg_fit = RegistrationFit.from_dict(reg_payload["fit"])
    model = ClassifierModel.from_dict(cls_payload["model"])
    panel = join_panel(
        load_curves(pipeline.data / "curves_test.csv"),
        load_scalars(pipeline.data / "scalars_test.csv"),
    )
    rows = {r[0]: r for r in _read_rows(pipeline.pred)[1:]}
    want = [",".join(PREDICTIONS_HEADER)]
    for i, sid in enumerate(panel.subject_ids):
        res = predict_new(reg_fit, model, panel.curve(sid), panel.covariates[i])
        assert float(rows[sid][1]) == res.pi_hat
        assert int(rows[sid][2]) == res.label
        assert rows[sid][3:] == [str(res.iterations), str(int(res.converged))]
        want.append(f"{sid},{res.pi_hat!r},{res.label},{res.iterations},{int(res.converged)}")
    # the whole file, predicted in one call, is the subjects predicted one by one
    assert pipeline.pred.read_text() == "\n".join(want) + "\n"


def test_predict_exits_4_where_a_held_out_kernel_cannot_be_factored(
    pipeline, tmp_path, capsys, monkeypatch
):
    def unfactorable(s_mat):
        raise NumericalError("matrix not positive definite")

    monkeypatch.setattr(registration, "_curve_factor", unfactorable)
    registration._held_out_grid.cache_clear()  # a cached grid would not reach the patch
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--fit", str(pipeline.fit),
               "--curves", str(pipeline.data / "curves_test.csv"),
               "--scalars", str(pipeline.data / "scalars_test.csv"), "--out", str(out)])
    assert rc == 4
    assert "numerical error: matrix not positive definite" in capsys.readouterr().err
    assert not out.exists()


def test_predicting_the_training_half_recovers_most_labels(pipeline):
    out = pipeline.root / "pred_train.csv"
    rc = main(["predict", "--fit", str(pipeline.fit),
               "--curves", str(pipeline.data / "curves_train.csv"),
               "--scalars", str(pipeline.data / "scalars_train.csv"),
               "--out", str(out)])
    assert rc == 0
    truth = json.loads((pipeline.data / "truth.json").read_text())
    label_of = dict(zip(truth["subjects"], truth["labels"]))
    rows = _read_rows(out)[1:]
    hits = sum(int(r[2]) == label_of[r[0]] for r in rows)
    assert hits >= 6  # of 8: in-sample labels, allowing small-sample slack


def test_predict_empty_input_writes_only_the_header(pipeline, tmp_path):
    empty = tmp_path / "empty.csv"
    shutil.copyfile(pipeline.data / "curves_test.csv", empty)
    empty.write_text(empty.read_text().splitlines()[0] + "\n")
    out = tmp_path / "pred_empty.csv"
    rc = main(["predict", "--fit", str(pipeline.fit), "--curves", str(empty),
               "--scalars", str(pipeline.data / "scalars_test.csv"),
               "--out", str(out)])
    assert rc == 0
    assert out.read_text() == ",".join(PREDICTIONS_HEADER) + "\n"


def test_predict_has_no_max_iter_option(pipeline, tmp_path, capsys):
    # a subject is scored under at most its two group alignments, so there
    # is no iteration cap to set
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--fit", str(pipeline.fit),
               "--curves", str(pipeline.data / "curves_test.csv"),
               "--scalars", str(pipeline.data / "scalars_test.csv"),
               "--max-iter", "3", "--out", str(out)])
    assert rc == 2
    assert "unrecognized arguments: --max-iter 3" in capsys.readouterr().err
    assert not out.exists()
    # nor has fit a seed option: the config file's seed is the run's
    rc = main(["fit", "--curves", str(pipeline.data / "curves_train.csv"),
               "--scalars", str(pipeline.data / "scalars_train.csv"),
               "--config", str(pipeline.cfg), "--seed", "3", "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_predict_rejects_another_number_of_covariates(pipeline, tmp_path, capsys):
    # the model was fitted with one covariate, v1; the test file gains a v2
    rows = _read_rows(pipeline.data / "scalars_test.csv")
    assert rows[0][2:] == ["v1"]
    scalars = tmp_path / "scalars_v2.csv"
    with open(scalars, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i, row in enumerate(rows):
            writer.writerow(row + ["v2" if i == 0 else str(i)])
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--fit", str(pipeline.fit),
               "--curves", str(pipeline.data / "curves_test.csv"),
               "--scalars", str(scalars), "--out", str(out)])
    assert rc == 3
    assert "has 2 scalar covariates; the model was fitted with 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("artifact", ["registration.json", "classifier.json"])
def test_predict_rejects_a_fit_of_another_format_version(pipeline, tmp_path, capsys, artifact):
    args = ["--curves", str(pipeline.data / "curves_test.csv"),
            "--scalars", str(pipeline.data / "scalars_test.csv"),
            "--out", str(tmp_path / "pred.csv")]
    fit2 = tmp_path / "fit_old"
    shutil.copytree(pipeline.fit, fit2)
    payload = json.loads((fit2 / artifact).read_text())
    payload["format_version"] = 0
    (fit2 / artifact).write_text(json.dumps(payload))
    assert main(["predict", "--fit", str(fit2)] + args) == 3
    assert "format_version 0; expected 1" in capsys.readouterr().err
    del payload["format_version"]
    (fit2 / artifact).write_text(json.dumps(payload))
    assert main(["predict", "--fit", str(fit2)] + args) == 3
    assert "no format_version; expected 1" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


def test_register_rejects_a_fit_of_another_format_version(pipeline, tmp_path, capsys):
    fit2 = tmp_path / "fit_old"
    shutil.copytree(pipeline.fit, fit2)
    payload = json.loads((fit2 / "registration.json").read_text())
    payload["format_version"] = 2
    (fit2 / "registration.json").write_text(json.dumps(payload))
    rc = main(["register", "--fit", str(fit2),
               "--curves", str(pipeline.data / "curves_train.csv"),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 3
    assert "format_version 2; expected 1" in capsys.readouterr().err


_DROP = object()


@pytest.mark.parametrize(
    "command, artifact, path, value, message",
    [
        ("register", "registration.json", ("fit", "means"), _DROP, "fit.means is missing"),
        ("register", "registration.json", ("fit", "means", "group", "x"), [[0.0]],
         "fit.means.group key 'x' must be an integer"),
        ("register", "registration.json", ("fit", "n_outer"), 2.5,
         "fit.n_outer must be an integer, got 2.5"),
        ("predict", "classifier.json", ("model", "b0"), "abc",
         "model.b0 must be a number, got 'abc'"),
        ("predict", "classifier.json", ("model", "e"), [["a"]],
         "model.e must be an array of numbers"),
        ("predict", "classifier.json", ("model", "fpca"), [{}], "model.fpca[0].grid is missing"),
        ("predict", "classifier.json", ("model", "extra"), 1, "unknown model keys: ['extra']"),
        ("predict", "registration.json", ("fit", "means", "shared"), [[0.0]],
         "fit: means.shared has shape (1, 1), expected (2, 8)"),
        ("register", "registration.json", ("fit", "warps", "group_offsets", "0"), [0.0, 0.0],
         "fit: warps.group_offsets.0 has shape (2,), expected (4,)"),
        ("predict", "classifier.json", ("model", "fpca", 1, "eigenvalues"), [1.0],
         "model.fpca[1]: eigenvalues has shape (1,), expected (5,)"),
        ("predict", "classifier.json", ("model", "scalar_b"), [0.0],
         "model: scalar_b has shape (1,), expected"),
        ("predict", "classifier.json", ("model", "scalar_b"), _DROP, "model.scalar_b is missing"),
        ("predict", "classifier.json", ("model", "coef_basis"), _DROP,
         "model.coef_basis is missing"),
        ("predict", "classifier.json", ("model", "j_mats"), _DROP, "model.j_mats is missing"),
        ("predict", "classifier.json", ("model", "fpca"), _DROP, "model.fpca is missing"),
        ("predict", "registration.json", ("fit", "format_version"), _DROP,
         "registration fit has no format_version; expected 2"),
        ("predict", "registration.json", ("fit", "warps", "group_offsets", "1"),
         [0.0, 0.4, -0.4, 0.0],
         "fit: warps.group_offsets.1: the warp of class 1 is not strictly increasing"),
        ("register", "registration.json", ("fit", "warps", "group_offsets", "0"),
         [0.0, 0.34, 0.0, 0.0],
         "fit: warps.group_offsets.0: the warp of class 0 is not strictly increasing"),
        ("predict", "registration.json", ("fit", "warps", "subject_offsets", "s0009"),
         [0.0, 0.0, -0.5, 0.0],
         "fit: warps.subject_offsets.s0009: the warp of subject s0009 is not strictly increasing"),
        ("register", "registration.json", ("fit", "warps", "subject_offsets", "s0001"),
         [0.0, 0.9, -0.9, 0.0],
         "fit: warps.subject_offsets.s0001: the warp of subject s0001 is not strictly increasing"),
        ("register", "registration.json", ("fit", "warps", "subject_offsets", "s0002"),
         [0.0, float("nan"), 0.0, 0.0],
         "fit: warps.subject_offsets.s0002: the warp of subject s0002 is not strictly increasing"),
        # JSON reads Infinity; a kernel with it would factor to non-finite numbers
        ("predict", "registration.json", ("fit", "var", "curve_cov", "amplitude"), float("inf"),
         "fit.var.curve_cov: Matern amplitude must be positive and finite, got inf"),
        ("predict", "registration.json", ("fit", "var", "warp_cov", "length_scale"), float("inf"),
         "fit.var.warp_cov: Matern length_scale must be positive and finite, got inf"),
        ("predict", "registration.json", ("fit", "var", "noise_sd"), float("inf"),
         "fit.var: noise_sd must be positive and finite, got inf"),
        # a fit's ridge weight lies where estimate_ridge searches
        ("predict", "registration.json", ("fit", "ridge_lambda"), float("nan"),
         "fit: ridge_lambda must lie in [1e-12, 1e+12], got nan"),
        ("register", "registration.json", ("fit", "ridge_lambda"), -1.0,
         "fit: ridge_lambda must lie in [1e-12, 1e+12], got -1.0"),
        ("predict", "registration.json", ("fit", "ridge_lambda"), 0.0,
         "fit: ridge_lambda must lie in [1e-12, 1e+12], got 0.0"),
    ],
)
def test_malformed_artifacts_exit_3_naming_the_field(
    pipeline, tmp_path, capsys, command, artifact, path, value, message
):
    fit2 = tmp_path / "fit_bad"
    shutil.copytree(pipeline.fit, fit2)
    payload = json.loads((fit2 / artifact).read_text())
    *outer, last = path
    block = payload
    for key in outer:
        block = block[key]
    if value is _DROP:
        del block[last]
    else:
        block[last] = value
    (fit2 / artifact).write_text(json.dumps(payload))
    args = [command, "--fit", str(fit2), "--curves", str(pipeline.data / "curves_train.csv"),
            "--out", str(tmp_path / "out.csv")]
    if command == "predict":
        args += ["--scalars", str(pipeline.data / "scalars_train.csv")]
    assert main(args) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "artifact, block, cls",
    [("registration.json", "fit", RegistrationFit), ("classifier.json", "model", ClassifierModel)],
)
def test_fit_artifacts_re_encode_byte_for_byte(pipeline, tmp_path, artifact, block, cls):
    written = (pipeline.fit / artifact).read_bytes()
    payload = json.loads(written)
    payload[block] = cls.from_dict(payload[block]).to_dict()
    _write_json(tmp_path / artifact, payload)
    assert (tmp_path / artifact).read_bytes() == written


# ---------------------------------------------------------------------------
# register


def test_register_writes_the_common_grid(pipeline):
    out = pipeline.root / "aligned.csv"
    rc = main(["register", "--fit", str(pipeline.fit),
               "--curves", str(pipeline.data / "curves_train.csv"),
               "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 1 + 8 * 101
    times = sorted({float(r[1]) for r in rows[1:]})
    assert len(times) == 101
    assert times[0] == 0.0 and times[-1] == 1.0


def test_register_rejects_subjects_outside_the_fit(pipeline, tmp_path, capsys):
    rogue = tmp_path / "rogue.csv"
    rows = _read_rows(pipeline.data / "curves_test.csv")
    with open(rogue, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow(["zz99"] + row[1:])
    rc = main(["register", "--fit", str(pipeline.fit), "--curves", str(rogue),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 3
    assert "zz99" in capsys.readouterr().err


def test_register_flags_a_corrupted_warp_as_numerical(pipeline, tmp_path, capsys):
    # a warp that does not strictly increase is refused when the fit is loaded
    fit2 = tmp_path / "fit_bad"
    shutil.copytree(pipeline.fit, fit2)
    payload = json.loads((fit2 / "registration.json").read_text())
    sid = next(iter(payload["fit"]["warps"]["subject_offsets"]))
    payload["fit"]["warps"]["subject_offsets"][sid] = [0.0, 0.9, -0.9, 0.0]
    (fit2 / "registration.json").write_text(json.dumps(payload))
    rc = main(["register", "--fit", str(fit2),
               "--curves", str(pipeline.data / "curves_train.csv"),
               "--out", str(tmp_path / "a.csv")])
    assert rc == 3
    assert f"the warp of subject {sid} is not strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_scores_the_predictions(pipeline):
    out = pipeline.root / "metrics.json"
    rc = main(["evaluate", "--predictions", str(pipeline.pred),
               "--truth", str(pipeline.data / "truth.json"),
               "--fit", str(pipeline.fit), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_scored"] == 8
    m = payload["metrics"]
    assert 0.0 <= m["ca"] <= 1.0
    assert 0.0 <= m["ri"] <= 1.0
    assert -1.0 <= m["ari"] <= 1.0
    assert m["warp_imse"] > 0.0


def _write_predictions(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTIONS_HEADER)
        for row in rows:
            writer.writerow(row)


def test_evaluate_perfect_and_flipped_predictions(pipeline, tmp_path):
    truth = json.loads((pipeline.data / "truth.json").read_text())
    label_of = dict(zip(truth["subjects"], truth["labels"]))
    test_ids = [s for s, tr in zip(truth["subjects"], truth["train_mask"]) if not tr]

    perfect = tmp_path / "perfect.csv"
    _write_predictions(
        perfect, [[s, "1.0", label_of[s], 1, 1] for s in test_ids]
    )
    out = tmp_path / "m1.json"
    assert main(["evaluate", "--predictions", str(perfect),
                 "--truth", str(pipeline.data / "truth.json"), "--out", str(out)]) == 0
    m = json.loads(out.read_text())["metrics"]
    assert m["ca"] == 1.0 and m["ri"] == 1.0 and m["ari"] == 1.0

    flipped = tmp_path / "flipped.csv"
    _write_predictions(
        flipped, [[s, "0.5", 1 - label_of[s], 1, 1] for s in test_ids]
    )
    out2 = tmp_path / "m2.json"
    assert main(["evaluate", "--predictions", str(flipped),
                 "--truth", str(pipeline.data / "truth.json"), "--out", str(out2)]) == 0
    m = json.loads(out2.read_text())["metrics"]
    assert m["ca"] == 0.0 and m["ri"] == 1.0


@pytest.mark.parametrize(
    "key, with_fit", [("subjects", False), ("labels", False), ("anchors", True),
                      ("warp_offsets", True)],
)
def test_evaluate_names_a_missing_truth_entry(pipeline, tmp_path, capsys, key, with_fit):
    truth = json.loads((pipeline.data / "truth.json").read_text())
    del truth[key]
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    args = ["evaluate", "--predictions", str(pipeline.pred), "--truth", str(path),
            "--out", str(tmp_path / "m.json")]
    if with_fit:
        args += ["--fit", str(pipeline.fit)]
    assert main(args) == 3
    assert f"has no '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _first_fitted_subject(pipeline):
    with open(pipeline.data / "curves_train.csv", newline="") as fh:
        return next(csv.DictReader(fh))["subject_id"]


@pytest.mark.parametrize(
    "change, with_fit, message",
    [
        (lambda t, sid: {"labels": [str(y) for y in t["labels"]]}, False,
         "labels[0] must be an integer, got '"),
        (lambda t, sid: {"subjects": 5}, False, "'subjects' must be a list of strings"),
        (lambda t, sid: {"labels": 1}, False, "'labels' must be a list of"),
        (lambda t, sid: {"anchors": "abc"}, True, "anchors must be a list of numbers, got 'abc'"),
        (lambda t, sid: {"anchors": [0.0, 0.33, 0.67, 2.0]}, True,
         "anchors must span [0, 1], got [0.0, 0.33, 0.67, 2.0]"),
        (lambda t, sid: {"warp_offsets": {**t["warp_offsets"], sid: "zz"}}, True,
         "warp_offsets[SID] must be a list of 4 numbers, got 'zz'"),
        (lambda t, sid: {"warp_offsets": {**t["warp_offsets"], sid: t["warp_offsets"][sid][:2]}},
         True, "warp_offsets[SID] must be a list of 4 numbers, got ["),
    ],
    ids=["labels-text", "subjects-int", "labels-int", "anchors-text", "anchors-span",
         "offsets-text", "offsets-short"],
)
def test_evaluate_rejects_malformed_truth_entries(
    pipeline, tmp_path, capsys, change, with_fit, message
):
    truth = json.loads((pipeline.data / "truth.json").read_text())
    sid = _first_fitted_subject(pipeline)
    assert len(truth["anchors"]) == 4 and sid in truth["warp_offsets"]
    truth.update(change(truth, sid))
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    args = ["evaluate", "--predictions", str(pipeline.pred), "--truth", str(path),
            "--out", str(tmp_path / "m.json")]
    if with_fit:
        args += ["--fit", str(pipeline.fit)]
    assert main(args) == 3
    assert f"{path}: " + message.replace("SID", repr(sid)) in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "column, value, message",
    [
        (1, "abc", "line 3: pi_hat must be a number, got 'abc'"),
        (1, "1.5", "line 3: pi_hat must lie in [0, 1], got 1.5"),
        (1, "nan", "line 3: pi_hat must lie in [0, 1], got nan"),
        (2, "x", "line 3: label must be 0 or 1, got 'x'"),
        (2, "7", "line 3: label must be 0 or 1, got '7'"),
        (3, "abc", "line 3: iterations must be a count and converged 0 or 1, got ['abc', '1']"),
        (4, "yes", "line 3: iterations must be a count and converged 0 or 1, got ['1', 'yes']"),
        (0, None, "is predicted twice"),  # None: the subject of line 2
    ],
    ids=["pi_hat-text", "pi_hat-range", "pi_hat-nan", "label-text", "label-7", "iterations",
         "converged", "duplicate"],
)
def test_evaluate_rejects_bad_prediction_rows(pipeline, tmp_path, capsys, column, value, message):
    truth = json.loads((pipeline.data / "truth.json").read_text())
    rows = [[s, "0.5", y, 1, 1] for s, y in zip(truth["subjects"], truth["labels"])]
    rows[1][column] = rows[0][0] if value is None else value
    path = tmp_path / "predictions.csv"
    _write_predictions(path, rows)
    assert main(["evaluate", "--predictions", str(path),
                 "--truth", str(pipeline.data / "truth.json"),
                 "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert message in err and "line 3" in err
    assert not (tmp_path / "m.json").exists()


def test_evaluate_rejects_unknown_subjects_and_bad_headers(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    _write_predictions(bad, [["ghost", "0.5", 1, 1, 1]])
    assert main(["evaluate", "--predictions", str(bad),
                 "--truth", str(pipeline.data / "truth.json"),
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "ghost" in capsys.readouterr().err

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("subject,probability\nx,0.5\n")
    assert main(["evaluate", "--predictions", str(malformed),
                 "--truth", str(pipeline.data / "truth.json"),
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry points


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def test_console_script_is_installed():
    exe = shutil.which("warpclass")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_module_requires_a_command(capsys):
    assert main([]) == 2
