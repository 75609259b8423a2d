"""Data model and CSV ingestion for labeled two-dimensional curve panels.

A panel joins per-subject sampled curves (two coordinates on a shared
per-subject time grid) with one scalar record per subject: covariates
plus an optional binary class label.  Grids are normalized to [0, 1] on
load when the raw time axis falls outside that interval; grids already
inside [0, 1] are kept bit-exact so simulator output round-trips.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

CURVES_HEADER = ["subject_id", "t", "x1", "x2"]
MIN_GRID_LEN = 4


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SubjectCurve:
    """One subject's sampled curve: strictly increasing grid, two coordinates."""

    subject_id: str
    times: np.ndarray
    values: np.ndarray  # shape (n, 2), columns x1 and x2

    def __post_init__(self):
        t = _freeze(np.asarray(self.times, dtype=float))
        v = _freeze(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        sid = self.subject_id
        if t.ndim != 1 or len(t) < MIN_GRID_LEN:
            raise DataError(
                f"subject {sid}: grid needs at least {MIN_GRID_LEN} points, got {t.shape}"
            )
        if v.shape != (len(t), 2):
            raise DataError(f"subject {sid}: values shape {v.shape} != ({len(t)}, 2)")
        if not np.isfinite(t).all() or not np.isfinite(v).all():
            raise DataError(f"subject {sid}: non-finite observation")
        if (t[1:] <= t[:-1]).any():
            raise DataError(f"subject {sid}: time grid not strictly increasing")
        if t[0] < -1e-12 or t[-1] > 1 + 1e-12:
            raise DataError(f"subject {sid}: times outside [0, 1]; normalize on load")


@dataclass(frozen=True)
class ScalarRecord:
    """Per-subject scalar covariates and an optional 0/1 class label."""

    subject_id: str
    v: np.ndarray
    y: int | None = None

    def __post_init__(self):
        v = _freeze(np.atleast_1d(np.asarray(self.v, dtype=float)))
        object.__setattr__(self, "v", v)
        if not np.isfinite(v).all():
            raise DataError(f"subject {self.subject_id}: non-finite covariate")
        if self.y is not None:
            if self.y not in (0, 1):
                raise DataError(f"subject {self.subject_id}: label must be 0 or 1, got {self.y}")
            object.__setattr__(self, "y", int(self.y))


@dataclass(frozen=True)
class CurvePanel:
    """Joined curves and scalar records, ordered by subject id."""

    curves: tuple
    scalars: tuple

    def __post_init__(self):
        ids = [c.subject_id for c in self.curves]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise DataError("panel curves must be unique and sorted by subject_id")
        if [s.subject_id for s in self.scalars] != ids:
            raise DataError("panel scalars must align one-to-one with curves")
        p = {len(s.v) for s in self.scalars}
        if len(p) > 1:
            raise DataError(f"inconsistent covariate dimensions across subjects: {sorted(p)}")

    @property
    def n_subjects(self) -> int:
        return len(self.curves)

    @property
    def subject_ids(self) -> list:
        return [c.subject_id for c in self.curves]

    @property
    def has_labels(self) -> bool:
        return all(s.y is not None for s in self.scalars)

    @property
    def labels(self) -> np.ndarray:
        if not self.has_labels:
            raise DataError("panel has unlabeled subjects; labels unavailable")
        return np.array([s.y for s in self.scalars], dtype=int)

    @property
    def group_of(self) -> dict:
        """subject_id -> label, for labeled panels."""
        labels = self.labels
        return {sid: int(k) for sid, k in zip(self.subject_ids, labels)}

    @property
    def covariates(self) -> np.ndarray:
        return np.array([s.v for s in self.scalars], dtype=float)

    def curve(self, subject_id: str) -> SubjectCurve:
        for c in self.curves:
            if c.subject_id == subject_id:
                return c
        raise DataError(f"unknown subject {subject_id}")

    def subset(self, subject_ids) -> "CurvePanel":
        want = set(subject_ids)
        missing = want - set(self.subject_ids)
        if missing:
            raise DataError(f"unknown subjects in subset: {sorted(missing)}")
        curves = tuple(c for c in self.curves if c.subject_id in want)
        scalars = tuple(s for s in self.scalars if s.subject_id in want)
        return CurvePanel(curves=curves, scalars=scalars)


def _parse_float(text: str, row_num: int, col: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise DataError(f"row {row_num}: cannot parse {col}={text!r} as a number") from exc
    if not np.isfinite(val):
        raise DataError(f"row {row_num}: non-finite value {col}={text!r}")
    return val


def load_curves(path) -> list:
    """Read the long-format curves CSV (header ``subject_id,t,x1,x2``).

    Rows are grouped by subject and sorted by time.  Duplicate
    (subject_id, t) pairs and malformed values raise with the row number.
    Time axes falling outside [0, 1] are affinely rescaled to [0, 1]
    using the file-wide min and max.
    """
    rows = []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open curves file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CURVES_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(CURVES_HEADER)!r}, got {header!r}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"row {row_num}: expected 4 columns, got {len(row)}")
            sid = row[0]
            rows.append(
                (
                    sid,
                    _parse_float(row[1], row_num, "t"),
                    _parse_float(row[2], row_num, "x1"),
                    _parse_float(row[3], row_num, "x2"),
                )
            )
    if not rows:
        return []

    times = np.array([r[1] for r in rows])
    tmin, tmax = times.min(), times.max()
    if tmin < -1e-12 or tmax > 1 + 1e-12:
        if tmax <= tmin:
            raise DataError("cannot normalize a time axis with zero span")
        rows = [(sid, (t - tmin) / (tmax - tmin), a, b) for sid, t, a, b in rows]

    by_subject: dict = {}
    for sid, t, a, b in rows:
        by_subject.setdefault(sid, []).append((t, a, b))

    curves = []
    for sid in sorted(by_subject):
        triples = sorted(by_subject[sid], key=lambda r: r[0])
        ts = np.array([r[0] for r in triples])
        dup = np.flatnonzero(np.diff(ts) == 0)
        if dup.size:
            raise DataError(f"subject {sid}: duplicated time point t={float(ts[dup[0]])!r}")
        vals = np.array([[r[1], r[2]] for r in triples])
        curves.append(SubjectCurve(subject_id=sid, times=ts, values=vals))
    return curves


def load_scalars(path) -> list:
    """Read the scalars CSV (header ``subject_id,y,v1,...,vp``; y may be empty)."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open scalars file {path}: {exc}") from exc
    records = []
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if (
            header is None
            or len(header) < 3
            or header[:2] != ["subject_id", "y"]
            or header[2:] != [f"v{j}" for j in range(1, len(header) - 1)]
        ):
            raise DataError(
                f"{path}: expected header subject_id,y,v1,...,vp, got {header!r}"
            )
        p = len(header) - 2
        seen = set()
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 2:
                raise DataError(f"row {row_num}: expected {p + 2} columns, got {len(row)}")
            sid = row[0]
            if sid in seen:
                raise DataError(f"row {row_num}: duplicated subject_id {sid!r}")
            seen.add(sid)
            y: int | None
            if row[1] == "":
                y = None
            else:
                yf = _parse_float(row[1], row_num, "y")
                if yf not in (0.0, 1.0):
                    raise DataError(f"row {row_num}: label must be 0 or 1, got {row[1]!r}")
                y = int(yf)
            v = [_parse_float(row[2 + j], row_num, f"v{j + 1}") for j in range(p)]
            records.append(ScalarRecord(subject_id=sid, v=np.array(v), y=y))
    return records


def join_panel(curves, scalars) -> CurvePanel:
    """One-to-one join of curves and scalar records on subject_id."""
    if not curves or not scalars:
        raise DataError("join requires non-empty curves and scalars")
    cmap = {c.subject_id: c for c in curves}
    smap = {s.subject_id: s for s in scalars}
    if len(cmap) != len(curves):
        raise DataError("duplicate subject_id among curves")
    only_curves = sorted(set(cmap) - set(smap))
    only_scalars = sorted(set(smap) - set(cmap))
    if only_curves or only_scalars:
        raise DataError(
            f"unmatched subjects; curves-only: {only_curves}, scalars-only: {only_scalars}"
        )
    ids = sorted(cmap)
    return CurvePanel(
        curves=tuple(cmap[i] for i in ids),
        scalars=tuple(smap[i] for i in ids),
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def save_curves(path, curves) -> None:
    """Write curves in the long CSV format, floats at full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CURVES_HEADER)
        for c in curves:
            for t, (a, b) in zip(c.times, c.values):
                writer.writerow([c.subject_id, _fmt(t), _fmt(a), _fmt(b)])


def save_scalars(path, records) -> None:
    """Write scalar records; an absent label becomes an empty field."""
    records = list(records)
    p = len(records[0].v) if records else 1
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["subject_id", "y"] + [f"v{j}" for j in range(1, p + 1)])
        for s in records:
            y = "" if s.y is None else str(int(s.y))
            writer.writerow([s.subject_id, y] + [_fmt(x) for x in s.v])
