"""Curve panel data model and CSV round trips."""

import logging

import numpy as np
import pytest

from warpclass.curves import (
    CurvePanel,
    ScalarRecord,
    SubjectCurve,
    join_panel,
    load_curves,
    load_scalars,
    save_curves,
    save_scalars,
)
from warpclass.errors import DataError
from warpclass.simeval import Study2Config, simulate_study2


def _curve(sid="s1", n=5):
    t = np.linspace(0.0, 1.0, n)
    return SubjectCurve(sid, t, np.column_stack([np.sin(t), np.cos(t)]))


def _panel(n_subjects=3):
    curves, scalars = [], []
    for i in range(n_subjects):
        sid = f"s{i}"
        curves.append(_curve(sid))
        scalars.append(ScalarRecord(sid, np.array([0.5 + i]), y=i % 2))
    return CurvePanel(tuple(curves), tuple(scalars))


# ---------------------------------------------------------------------------
# Record validation.


def test_subject_curve_rejects_short_grid():
    t = np.array([0.0, 0.5, 1.0])
    with pytest.raises(DataError, match="at least 4"):
        SubjectCurve("s1", t, np.zeros((3, 2)))


def test_subject_curve_rejects_bad_value_shape():
    t = np.linspace(0, 1, 5)
    with pytest.raises(DataError, match="shape"):
        SubjectCurve("s1", t, np.zeros((5, 3)))


def test_subject_curve_rejects_nonmonotone_grid():
    t = np.array([0.0, 0.5, 0.4, 1.0, 0.9])
    with pytest.raises(DataError, match="strictly increasing"):
        SubjectCurve("s1", np.sort(t)[[0, 2, 1, 3, 4]], np.zeros((5, 2)))


def test_subject_curve_rejects_duplicate_time():
    t = np.array([0.0, 0.5, 0.5, 0.8, 1.0])
    with pytest.raises(DataError, match="strictly increasing"):
        SubjectCurve("s1", t, np.zeros((5, 2)))


def test_subject_curve_rejects_times_outside_unit_interval():
    t = np.array([0.0, 0.5, 1.0, 1.5])
    with pytest.raises(DataError, match="outside"):
        SubjectCurve("s1", t, np.zeros((4, 2)))


def test_subject_curve_rejects_nonfinite_values():
    t = np.linspace(0, 1, 4)
    v = np.zeros((4, 2))
    v[2, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        SubjectCurve("s1", t, v)


def test_subject_curve_arrays_are_frozen():
    c = _curve()
    with pytest.raises(ValueError):
        c.times[0] = 0.5


def test_scalar_record_rejects_bad_label():
    with pytest.raises(DataError, match="label"):
        ScalarRecord("s1", np.array([1.0]), y=2)


def test_scalar_record_rejects_nonfinite_covariate():
    with pytest.raises(DataError, match="non-finite"):
        ScalarRecord("s1", np.array([np.inf]))


def test_scalar_record_allows_missing_label():
    rec = ScalarRecord("s1", np.array([1.0]))
    assert rec.y is None


# ---------------------------------------------------------------------------
# Panel invariants.


def test_panel_requires_sorted_unique_ids():
    a, b = _curve("s2"), _curve("s1")
    recs = (ScalarRecord("s2", np.array([1.0])), ScalarRecord("s1", np.array([1.0])))
    with pytest.raises(DataError, match="sorted"):
        CurvePanel((a, b), recs)


def test_panel_requires_aligned_scalars():
    with pytest.raises(DataError, match="one-to-one"):
        CurvePanel((_curve("s1"),), (ScalarRecord("s2", np.array([1.0])),))


def test_panel_requires_consistent_covariate_dim():
    curves = (_curve("s1"), _curve("s2"))
    recs = (
        ScalarRecord("s1", np.array([1.0])),
        ScalarRecord("s2", np.array([1.0, 2.0])),
    )
    with pytest.raises(DataError, match="covariate dimensions"):
        CurvePanel(curves, recs)


def test_panel_labels_and_groups():
    panel = _panel(4)
    assert panel.has_labels
    assert np.array_equal(panel.labels, [0, 1, 0, 1])
    assert panel.group_of == {"s0": 0, "s1": 1, "s2": 0, "s3": 1}
    assert panel.covariates.shape == (4, 1)


def test_panel_labels_unavailable_when_partial():
    curves = (_curve("s1"), _curve("s2"))
    recs = (
        ScalarRecord("s1", np.array([1.0]), y=1),
        ScalarRecord("s2", np.array([2.0])),
    )
    panel = CurvePanel(curves, recs)
    assert not panel.has_labels
    with pytest.raises(DataError, match="unlabeled"):
        panel.labels


def test_panel_subset_and_unknown_subject():
    panel = _panel(4)
    sub = panel.subset(["s3", "s0"])
    assert sub.subject_ids == ["s0", "s3"]
    with pytest.raises(DataError, match="unknown"):
        panel.subset(["s9"])
    with pytest.raises(DataError, match="s7"):
        panel.curve("s7")


# ---------------------------------------------------------------------------
# CSV ingestion.


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_curves_groups_and_sorts_rows(tmp_path):
    # rows deliberately interleaved and time-shuffled within subject
    text = (
        "subject_id,t,x1,x2\n"
        "b,0.9,4.0,5.0\n"
        "a,0.0,1.0,2.0\n"
        "b,0.0,6.0,7.0\n"
        "a,0.6,3.0,4.0\n"
        "b,0.3,8.0,9.0\n"
        "a,0.3,5.0,6.0\n"
        "b,0.6,1.0,1.5\n"
        "a,0.9,7.0,8.0\n"
    )
    curves = load_curves(_write(tmp_path / "c.csv", text))
    assert [c.subject_id for c in curves] == ["a", "b"]
    assert np.allclose(curves[0].times, [0.0, 0.3, 0.6, 0.9])
    assert np.allclose(curves[1].values[:, 0], [6.0, 8.0, 1.0, 4.0])


def test_load_curves_rejects_wrong_header(tmp_path):
    text = "subject,t,x1,x2\na,0.0,1.0,2.0\n"
    with pytest.raises(DataError, match="header"):
        load_curves(_write(tmp_path / "c.csv", text))


def test_load_curves_rejects_missing_column(tmp_path):
    text = "subject_id,t,x1,x2\na,0.0,1.0,2.0\na,0.3,1.0\na,0.6,1,1\na,1,1,1\n"
    with pytest.raises(DataError, match="row 3"):
        load_curves(_write(tmp_path / "c.csv", text))


def test_load_curves_rejects_unparseable_value(tmp_path):
    text = "subject_id,t,x1,x2\na,0.0,oops,2.0\n"
    with pytest.raises(DataError, match="x1='oops'"):
        load_curves(_write(tmp_path / "c.csv", text))


def test_load_curves_rejects_duplicate_time_pair(tmp_path):
    rows = ["subject_id,t,x1,x2"]
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 0.5):
        rows.append(f"a,{t},1.0,2.0")
    with pytest.raises(DataError, match="subject a.*t=0.5"):
        load_curves(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))


def test_load_curves_rejects_short_subject(tmp_path):
    text = (
        "subject_id,t,x1,x2\n"
        "a,0.0,1.0,2.0\na,0.5,1.0,2.0\na,1.0,1.0,2.0\n"
        "b,0.0,1.0,2.0\nb,0.3,1.0,2.0\nb,0.6,1.0,2.0\nb,1.0,1.0,2.0\n"
    )
    with pytest.raises(DataError, match="subject a"):
        load_curves(_write(tmp_path / "c.csv", text))


def test_load_curves_empty_file_gives_empty_list(tmp_path):
    assert load_curves(_write(tmp_path / "c.csv", "subject_id,t,x1,x2\n")) == []


def test_load_curves_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_curves(str(tmp_path / "nope.csv"))


def test_load_curves_normalizes_wide_time_axis(tmp_path, caplog):
    rows = ["subject_id,t,x1,x2"]
    for t in (2.0, 4.0, 6.0, 8.0, 12.0):
        rows.append(f"a,{t},1.0,2.0")
    # a second subject inside [0, 1] moves with the file-wide span
    rows += [f"b,{t},1.0,2.0" for t in (3.0, 4.5, 7.0, 9.5)]
    path = _write(tmp_path / "c.csv", "\n".join(rows) + "\n")
    with caplog.at_level(logging.WARNING, logger="warpclass.curves"):
        curves = load_curves(path)
    assert np.allclose(curves[0].times, [0.0, 0.2, 0.4, 0.6, 1.0])
    assert np.allclose(curves[1].times, [0.1, 0.25, 0.5, 0.75])
    (record,) = caplog.records
    assert record.levelname == "WARNING" and record.name == "warpclass.curves"
    assert record.getMessage() == f"{path}: times rescaled from [2, 12] to [0, 1]"


def test_load_curves_keeps_unit_interval_times_exact(tmp_path):
    # values chosen so any rescaling would perturb the bits
    ts = [0.1, 1.0 / 3.0, 0.7, 0.9999999]
    rows = ["subject_id,t,x1,x2"] + [f"a,{t!r},1.0,2.0" for t in ts]
    curves = load_curves(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))
    assert curves[0].times.tolist() == ts


def test_load_scalars_parses_labels_and_missing(tmp_path):
    text = "subject_id,y,v1,v2\na,1,0.5,2.0\nb,,1.5,3.0\nc,0,2.5,4.0\n"
    recs = load_scalars(_write(tmp_path / "s.csv", text))
    assert [r.y for r in recs] == [1, None, 0]
    assert np.allclose(recs[1].v, [1.5, 3.0])


def test_load_scalars_rejects_bad_header(tmp_path):
    text = "subject_id,y,w1\na,1,0.5\n"
    with pytest.raises(DataError, match="header"):
        load_scalars(_write(tmp_path / "s.csv", text))


def test_load_scalars_rejects_duplicate_subject(tmp_path):
    text = "subject_id,y,v1\na,1,0.5\na,0,0.7\n"
    with pytest.raises(DataError, match="duplicated subject_id"):
        load_scalars(_write(tmp_path / "s.csv", text))


def test_load_scalars_rejects_fractional_label(tmp_path):
    text = "subject_id,y,v1\na,0.5,0.5\n"
    with pytest.raises(DataError, match="label"):
        load_scalars(_write(tmp_path / "s.csv", text))


# ---------------------------------------------------------------------------
# Join and write.


def test_join_panel_matches_on_subject_id():
    curves = [_curve("s2"), _curve("s1")]
    recs = [ScalarRecord("s1", np.array([1.0]), 0), ScalarRecord("s2", np.array([2.0]), 1)]
    panel = join_panel(curves, recs)
    assert panel.subject_ids == ["s1", "s2"]
    assert np.array_equal(panel.labels, [0, 1])


def test_join_panel_is_order_independent():
    curves = [_curve(f"s{i}") for i in range(5)]
    recs = [ScalarRecord(f"s{i}", np.array([float(i)]), i % 2) for i in range(5)]
    a = join_panel(curves, recs)
    b = join_panel(curves[::-1], list(reversed(recs)))
    assert a.subject_ids == b.subject_ids
    assert np.array_equal(a.covariates, b.covariates)


def test_join_panel_reports_unmatched_subjects():
    curves = [_curve("s1"), _curve("s2")]
    recs = [ScalarRecord("s1", np.array([1.0])), ScalarRecord("s3", np.array([1.0]))]
    with pytest.raises(DataError, match=r"\['s2'\].*\['s3'\]"):
        join_panel(curves, recs)


def test_join_panel_rejects_empty_inputs():
    with pytest.raises(DataError, match="non-empty"):
        join_panel([], [ScalarRecord("s1", np.array([1.0]))])


def test_save_load_curves_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    curves = []
    for i in range(4):
        t = np.sort(rng.uniform(0, 1, 9))
        t[0], t[-1] = 0.0, 1.0
        curves.append(SubjectCurve(f"s{i}", t, rng.standard_normal((9, 2)) * 1e-3))
    path = tmp_path / "c.csv"
    save_curves(path, curves)
    back = load_curves(str(path))
    for orig, got in zip(curves, back):
        assert got.subject_id == orig.subject_id
        assert got.times.tolist() == orig.times.tolist()
        assert got.values.tolist() == orig.values.tolist()


def test_save_load_scalars_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    recs = [
        ScalarRecord("a", rng.standard_normal(3), 1),
        ScalarRecord("b", rng.standard_normal(3), None),
        ScalarRecord("c", rng.standard_normal(3), 0),
    ]
    path = tmp_path / "s.csv"
    save_scalars(path, recs)
    back = load_scalars(str(path))
    for orig, got in zip(recs, back):
        assert got.y == orig.y
        assert got.v.tolist() == orig.v.tolist()


def test_simulator_output_survives_csv_round_trip(tmp_path):
    panel, _ = simulate_study2(Study2Config(scenario="A", seed=3, n_subjects=6, n_obs=12))
    cpath, spath = tmp_path / "c.csv", tmp_path / "s.csv"
    save_curves(cpath, panel.curves)
    save_scalars(spath, panel.scalars)
    back = join_panel(load_curves(str(cpath)), load_scalars(str(spath)))
    assert back.subject_ids == panel.subject_ids
    for a, b in zip(panel.curves, back.curves):
        assert a.times.tolist() == b.times.tolist()
        assert a.values.tolist() == b.values.tolist()
    assert np.array_equal(back.labels, panel.labels)
