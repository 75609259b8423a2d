"""Run configuration: one field list, one JSON codec, load-time checks."""

import json
import re
from dataclasses import fields

import pytest

from warpclass.config import RunConfig, load_config
from warpclass.errors import DataError
from warpclass.registration import RegistrationConfig


def _non_default_config() -> RunConfig:
    return RunConfig(
        n_interior_knots=5,
        spline_order=3,
        warp_anchors=(0.0, 0.4, 1.0),
        noise_sd_init=0.07,
        curve_cov_init=(2.0, 0.2, 2.5),
        warp_cov_init=(0.5, 0.4, 1.5),
        warp_maxfun=40,
        variance_maxiter=12,
        n_variance_updates=1,
        max_outer=3,
        tol_rel=1e-6,
        n_align_grid=51,
        k_x=6,
        k_e=4,
        cv_grid=((6, 4), (5, 5), (3, 1)),
        cv_folds=3,
        smoothing_window=7,
        seed=17,
    )


def test_run_config_declares_only_the_run_fields():
    own = [f.name for f in fields(RunConfig) if f not in fields(RegistrationConfig)]
    assert own == ["k_x", "k_e", "cv_grid", "cv_folds", "smoothing_window", "seed"]
    cfg = _non_default_config()
    reg = cfg.registration()
    assert type(reg) is RegistrationConfig
    assert reg.to_dict() == {k: v for k, v in cfg.to_dict().items() if k not in own}


def test_run_config_round_trips_through_json():
    cfg = _non_default_config()
    defaults = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
    back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert back.cv_grid == ((6, 4), (5, 5), (3, 1))


def test_load_config_reads_a_file_and_rejects_bad_ones(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cv_grid": [[4, 3]], "warp_cov_init": [1.0, 0.5, 2.5]}))
    cfg = load_config(path)
    assert cfg.cv_grid == ((4, 3),)
    assert cfg.initial_variance().warp_cov.length_scale == 0.5
    for text, message in [
        ("{", "not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"threads": 2}', "unknown config keys: ['threads']"),
        ('{"k_x": 4}', "given together"),
        ('{"cv_grid": [[2, 3]]}', "violates k_x >= k_e"),
    ]:
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_config(path)
    with pytest.raises(DataError, match="not found"):
        load_config(tmp_path / "missing.json")
    with pytest.raises(DataError, match="cannot open"):
        load_config(tmp_path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DataError, match="not valid JSON"):
        load_config(path)
