"""Command-line pipeline: simulate | fit | predict | register | evaluate.

Artifacts are deterministic for a given seed: JSON is written with
sorted keys, CSV floats use shortest round-trip formatting, and wall
clock timings only appear when asked for.  Exit codes: 0 success, 2
usage, 3 data validation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .classify import (
    ClassifierModel,
    cross_validate_K,
    fit_classifier,
    predict_panel,
)
from .codec import encode, read_json
from .config import RunConfig, load_config
from .curves import (
    CurvePanel,
    ScalarRecord,
    SubjectCurve,
    join_panel,
    load_curves,
    load_scalars,
    save_curves,
    save_scalars,
)
from .errors import DataError, NumericalError, check_format_version, check_int, check_reals
from .registration import RegistrationFit, align_curves, fit_registration, warp_values
from .simeval import (
    MetricsReport,
    Study1Config,
    Study2Config,
    metric_ari,
    metric_ca,
    metric_rand,
    simulate_study1,
    simulate_study2,
    study1_beta,
    warp_imse,
)

FORMAT_VERSION = 1
PREDICTIONS_HEADER = ["subject_id", "pi_hat", "label", "iterations", "converged"]


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_panel(curves_path, scalars_path) -> CurvePanel:
    for p in (curves_path, scalars_path):
        if not Path(p).exists():
            raise DataError(f"file not found: {p}")
    return join_panel(load_curves(curves_path), load_scalars(scalars_path))


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    # only the size flags given reach the config, which holds the defaults
    sizes = {k: getattr(args, k) for k in ("n_subjects", "n_obs") if getattr(args, k) is not None}
    if args.study == 1:
        if args.scenario is not None:
            raise UsageError("--scenario applies to study 2 only")
        cfg = Study1Config(seed=args.seed, **sizes)
        panel, truth = simulate_study1(cfg)
        grid = panel.curves[0].times
        study_payload = {
            "study": 1,
            "beta_grids": {"t": grid, "beta1": study1_beta(0, grid), "beta2": study1_beta(1, grid)},
        }
    else:
        if args.scenario is None:
            raise UsageError("--scenario A|B is required for study 2")
        cfg = Study2Config(scenario=args.scenario, seed=args.seed, **sizes)
        panel, truth = simulate_study2(cfg)
        study_payload = {"study": 2, "scenario": cfg.scenario}
    names = ("n_subjects", "n_obs", "sigma", "sigma_r", "sigma_w", "b0", "b1", "delta1", "delta2", "seed")
    study_payload["config"] = {k: getattr(cfg, k) for k in names if hasattr(cfg, k)}

    subjects = panel.subject_ids
    payload = {"format_version": FORMAT_VERSION, "subjects": subjects, **study_payload}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_curves(out / "curves.csv", panel.curves)
    save_scalars(out / "scalars.csv", panel.scalars)
    _write_json(out / "truth.json", encode(payload) | encode(truth))

    if args.split_files:
        if truth.train_mask is None:
            raise UsageError("--split-files requires a study with a train/test split")
        for tag, keep in (("train", truth.train_mask), ("test", ~truth.train_mask)):
            ids = [sid for sid, k in zip(subjects, keep) if k]
            sub = panel.subset(ids)
            save_curves(out / f"curves_{tag}.csv", sub.curves)
            save_scalars(out / f"scalars_{tag}.csv", sub.scalars)
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    panel = _load_panel(args.curves, args.scalars)
    if not panel.has_labels:
        raise DataError("fitting requires a label for every subject")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    provenance = cfg.to_dict()

    t0 = time.perf_counter()
    reg_fit = fit_registration(panel, cfg.registration())
    timings["registration_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cv_table = None
    if cfg.k_x is not None:
        k_x, k_e = cfg.k_x, cfg.k_e
        chosen_by = "config"
    else:
        (k_x, k_e), cv_table = cross_validate_K(
            reg_fit,
            panel,
            pairs=cfg.cv_grid,
            n_folds=cfg.cv_folds,
            seed=cfg.seed,
            return_table=True,
            smoothing_window=cfg.smoothing_window,
        )
        chosen_by = "cv"
    model = fit_classifier(
        reg_fit, panel, k_x, k_e, smoothing_window=cfg.smoothing_window
    )
    timings["classifier_s"] = time.perf_counter() - t0

    _write_json(
        out / "registration.json",
        {
            "format_version": FORMAT_VERSION,
            "kind": "registration",
            "fit": reg_fit.to_dict(),
            "run_config": provenance,
        },
    )
    _write_json(
        out / "classifier.json",
        {
            "format_version": FORMAT_VERSION,
            "kind": "classifier",
            "k_x": k_x,
            "k_e": k_e,
            "model": model.to_dict(),
            "run_config": provenance,
        },
    )
    report = {
        "format_version": FORMAT_VERSION,
        "kind": "fit_report",
        "registration": {
            "converged": reg_fit.converged,
            "n_outer": reg_fit.n_outer,
            "trace_phases": reg_fit.trace_phases,
            "warp_opt_converged_fraction": reg_fit.warp_opt_converged_fraction,
            "warp_steps_reverted": reg_fit.warp_steps_reverted,
            "warp_evaluations": reg_fit.warp_evaluations,
            "variance_evaluations": reg_fit.variance_evaluations,
            "noise_sd": reg_fit.var.noise_sd,
            "ridge_lambda": reg_fit.ridge_lambda,
        },
        "classifier": {
            "k_x": k_x,
            "k_e": k_e,
            "chosen_by": chosen_by,
            "cv_table": None
            if cv_table is None
            else [[list(pair), dev, n] for pair, dev, n in cv_table],
            "converged": model.converged,
            "n_passes": model.n_passes,
            "sigma_e": model.sigma_e,
        },
        "run_config": provenance,
    }
    if args.timings:
        report["timings"] = timings
    _write_json(out / "fit_report.json", report)
    return 0


def _load_fit(fit_dir) -> tuple[RegistrationFit, ClassifierModel]:
    fit_dir = Path(fit_dir)
    reg_fit = _load_registration_only(fit_dir)
    path = fit_dir / "classifier.json"
    cls_payload = read_json(path)
    check_format_version(cls_payload, FORMAT_VERSION, str(path))
    return reg_fit, ClassifierModel.from_dict(cls_payload.get("model"))


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args) -> int:
    reg_fit, model = _load_fit(args.fit)
    if not Path(args.curves).exists():
        raise DataError(f"file not found: {args.curves}")
    curves = load_curves(args.curves)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if not curves:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(PREDICTIONS_HEADER)
        return 0
    scalars = load_scalars(args.scalars)
    panel = join_panel(curves, scalars)

    results = predict_panel(reg_fit, model, panel.curves, panel.covariates)

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTIONS_HEADER)
        for res in results:
            writer.writerow(
                [
                    res.subject_id,
                    _fmt(res.pi_hat),
                    res.label,
                    res.iterations,
                    int(res.converged),
                ]
            )
    return 0


# ---------------------------------------------------------------------------
# register


def cmd_register(args) -> int:
    reg_fit = _load_registration_only(args.fit)
    if not Path(args.curves).exists():
        raise DataError(f"file not found: {args.curves}")
    curves = load_curves(args.curves)
    missing = [c.subject_id for c in curves if c.subject_id not in reg_fit.warps.subject_offsets]
    if missing:
        raise DataError(f"subjects not present in the fit: {missing[:5]}")
    scalars = [ScalarRecord(c.subject_id, np.zeros(0), None) for c in curves]
    panel = CurvePanel(curves, scalars)
    aligned = align_curves(panel, reg_fit)
    rows = [
        SubjectCurve(sid, aligned.grid, aligned.values[i])
        for i, sid in enumerate(aligned.subject_ids)
    ]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_curves(out_path, rows)
    return 0


def _load_registration_only(fit_dir) -> RegistrationFit:
    path = Path(fit_dir) / "registration.json"
    payload = read_json(path)
    check_format_version(payload, FORMAT_VERSION, str(path))
    return RegistrationFit.from_dict(payload.get("fit"))


# ---------------------------------------------------------------------------
# evaluate


def _read_predictions(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREDICTIONS_HEADER:
            raise DataError(f"unexpected predictions header: {header}")
        rows, seen = [], set()
        for line in reader:
            if len(line) != len(PREDICTIONS_HEADER):
                raise DataError(f"malformed predictions row: {line}")
            sid, pi_text, label, iterations, converged = line
            where = f"{path} line {reader.line_num}"
            try:
                pi_hat = float(pi_text)
            except ValueError:
                raise DataError(f"{where}: pi_hat must be a number, got {pi_text!r}") from None
            if not 0.0 <= pi_hat <= 1.0:
                raise DataError(f"{where}: pi_hat must lie in [0, 1], got {pi_text}")
            if label not in ("0", "1"):
                raise DataError(f"{where}: label must be 0 or 1, got {label!r}")
            if not iterations.isdecimal() or converged not in ("0", "1"):
                raise DataError(
                    f"{where}: iterations must be a count and converged 0 or 1, got {line[3:]}"
                )
            if sid in seen:
                raise DataError(f"{where}: subject {sid!r} is predicted twice")
            seen.add(sid)
            rows.append({"subject_id": sid, "pi_hat": pi_hat, "label": int(label)})
    return rows


def cmd_evaluate(args) -> int:
    preds = _read_predictions(args.predictions)
    truth = read_json(args.truth)

    def entry(key: str):
        if key not in truth:
            raise DataError(f"{args.truth} has no {key!r}")
        return truth[key]

    subjects, labels = entry("subjects"), entry("labels")
    if not isinstance(subjects, list) or not all(isinstance(s, str) for s in subjects):
        raise DataError(f"{args.truth}: 'subjects' must be a list of strings")
    if len(set(subjects)) != len(subjects):
        raise DataError(f"{args.truth}: 'subjects' lists a subject twice")
    if not isinstance(labels, list) or len(labels) != len(subjects):
        raise DataError(f"{args.truth}: 'labels' must be a list of {len(subjects)} labels")
    for i, label in enumerate(labels):
        check_int(f"{args.truth}: labels[{i}]", label, 0)
        if label > 1:
            raise DataError(f"{args.truth}: labels[{i}] must be 0 or 1, got {label}")
    label_of = dict(zip(subjects, labels))
    missing = [p["subject_id"] for p in preds if p["subject_id"] not in label_of]
    if missing:
        raise DataError(f"predicted subjects missing from truth: {missing[:5]}")
    if not preds:
        raise DataError("no predictions to score")
    y_true = [label_of[p["subject_id"]] for p in preds]
    y_pred = [p["label"] for p in preds]

    grid = np.linspace(0.0, 1.0, 101)
    est, true = {}, {}
    if args.fit:
        reg_fit = _load_registration_only(args.fit)
        anchors, offsets = entry("anchors"), entry("warp_offsets")
        check_reals(f"{args.truth}: anchors", anchors)
        if not isinstance(offsets, dict):
            raise DataError(f"{args.truth}: 'warp_offsets' must map subjects to offsets")
        anchors = np.asarray(anchors, dtype=float)
        if len(anchors) < 2 or anchors[0] != 0.0 or anchors[-1] != 1.0:
            raise DataError(f"{args.truth}: anchors must span [0, 1], got {anchors.tolist()}")
        for sid, offs in offsets.items():
            check_reals(f"{args.truth}: warp_offsets[{sid!r}]", offs, len(anchors))
            if sid not in reg_fit.warps.subject_offsets:
                continue
            est[sid] = warp_values(
                reg_fit.warps.anchors, reg_fit.warps.ordinates(sid), grid
            )
            true[sid] = warp_values(anchors, anchors + np.asarray(offs, dtype=float), grid)
    report = MetricsReport(
        ca=metric_ca(y_true, y_pred),
        ri=metric_rand(y_true, y_pred),
        ari=metric_ari(y_true, y_pred),
        warp_imse=warp_imse(est, true, grid) if est else None,
    )
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "metrics",
        "n_scored": len(preds),
        "metrics": report.to_dict(),
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out_path, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class UsageError(Exception):
    """Invalid flag combination caught after argparse."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpclass",
        description="Joint registration and classification of bivariate curve panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic study data set")
    p.add_argument("--study", type=int, choices=(1, 2), required=True)
    p.add_argument("--scenario", choices=("A", "B"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-subjects", type=int, default=None)
    p.add_argument("--n-obs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--split-files",
        action="store_true",
        help="also write curves/scalars split into train and test halves",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit registration and classifier")
    p.add_argument("--curves", required=True)
    p.add_argument("--scalars", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--timings", action="store_true", help="include wall times in the report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="label prediction for new subjects")
    p.add_argument("--fit", required=True, help="directory with fit artifacts")
    p.add_argument("--curves", required=True)
    p.add_argument("--scalars", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("register", help="write aligned curves on the common grid")
    p.add_argument("--fit", required=True)
    p.add_argument("--curves", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("evaluate", help="score predictions against simulation truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--fit", default=None, help="optionally score fitted warps too")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
