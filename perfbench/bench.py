"""Workloads, seeded inputs, one pipeline pass and its output checks.

A pass is the library pipeline a user runs: ``fit_registration`` ->
``cross_validate_K`` -> ``fit_classifier`` -> ``predict_new`` for each
held-out subject.  Every library entry point is looked up on its module
at call time, so the tracer in ``tracing.py`` sees the calls when it is
installed and the untraced pass runs the program as shipped.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

# Relative tolerance of the objective-trace check; the same slack that
# fit_warps allows itself before it rejects an update.
TRACE_RTOL = 1e-9
WARP_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload: a training draw and a held-out draw.

    Both are Study 2 scenario A populations with half of the subjects in
    each group; the held-out draw uses a second seed.  ``jitter`` moves
    every observation time of every subject by up to that much.
    """

    n_train: int
    n_test: int
    n_obs: int
    jitter: float = 0.0


WORKLOADS = {
    "full": {
        "study2-common": Workload(60, 300, 100),
        "study2-irregular": Workload(30, 200, 60, jitter=0.002),
        "study2-scoring": Workload(30, 300, 100),
    },
    "smoke": {
        "study2-common": Workload(12, 6, 30),
        "study2-irregular": Workload(12, 6, 30, jitter=0.002),
        "study2-scoring": Workload(12, 6, 30),
    },
}

# Every fit does a fixed amount of optimizer work: 6 outer iterations
# (unconstrained fits stop after 6 to 8) and at most 30 Nelder-Mead
# iterations per variance update (unconstrained ones take 34 to 83, for a
# final objective within 0.2 % of the capped one).  Otherwise the seed's
# convergence luck, not the code, sets most of the run-to-run spread.
MAX_OUTER = 6
VARIANCE_MAXITER = 30


def fit_settings(wc, scale: str) -> dict:
    """Registration config and CV arguments for a scale."""
    if scale == "smoke":
        return {
            "config": wc.registration.RegistrationConfig(
                max_outer=1, n_variance_updates=1, variance_maxiter=10, warp_maxfun=30
            ),
            "cv": {"pairs": ((4, 3),), "n_folds": 2},
        }
    config = wc.registration.RegistrationConfig(
        max_outer=MAX_OUTER, variance_maxiter=VARIANCE_MAXITER
    )
    return {"config": config, "cv": {}}


class InputError(Exception):
    """Generated inputs do not have the property the workload relies on."""


def derive_seed(seed: int, tag: str) -> int:
    """A 64-bit seed for one input stream of the workload seed."""
    seq = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class Inputs:
    train: object  # CurvePanel
    test: object  # CurvePanel of the held-out draw
    truth: object  # SimTruth of the training draw
    cv_seed: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for panel in (self.train, self.test):
            for c, s in zip(panel.curves, panel.scalars):
                h.update(c.subject_id.encode())
                h.update(c.times.tobytes())
                h.update(c.values.tobytes())
                h.update(s.v.tobytes())
                h.update(bytes([s.y]))
        return h.hexdigest()


def _check_jittered(curves) -> None:
    for c in curves:
        t = c.times
        if not (np.all(np.diff(t) > 0) and t[0] >= 0.0 and t[-1] <= 1.0):
            raise InputError(f"jittered grid of {c.subject_id} is not increasing inside [0, 1]")
    if len({c.times.tobytes() for c in curves}) != len(curves):
        raise InputError("two subjects share a jittered grid")


def _draw(wc, wl: Workload, n: int, seed: int, prefix: str, rng):
    """One scenario A draw, subject ids prefixed, grids jittered by ``rng``."""
    panel, truth = wc.simeval.simulate_study2(
        wc.simeval.Study2Config(scenario="A", seed=seed, n_subjects=n, n_obs=wl.n_obs)
    )
    curves = []
    for c in panel.curves:
        t = c.times + rng.uniform(-wl.jitter, wl.jitter, len(c.times)) if wl.jitter else c.times
        curves.append(wc.curves.SubjectCurve(prefix + c.subject_id, t, c.values))
    scalars = [wc.curves.ScalarRecord(prefix + s.subject_id, s.v, s.y) for s in panel.scalars]
    offsets = {prefix + sid: off for sid, off in truth.warp_offsets.items()}
    return wc.curves.CurvePanel(curves, scalars), replace(truth, warp_offsets=offsets)


def make_inputs(wc, wl: Workload, seed: int) -> Inputs:
    """Generate a workload's inputs from its seed alone."""
    train_seed, test_seed = derive_seed(seed, "train"), derive_seed(seed, "test")
    if train_seed == test_seed:
        raise InputError("held-out seed equals the training seed")
    rng = np.random.default_rng(derive_seed(seed, "jitter"))
    train, truth = _draw(wc, wl, wl.n_train, train_seed, "train-", rng)
    test, _ = _draw(wc, wl, wl.n_test, test_seed, "test-", rng)
    if wl.jitter:
        _check_jittered(train.curves + test.curves)
    return Inputs(train=train, test=test, truth=truth, cv_seed=derive_seed(seed, "cv") % 2**32)


def timed_setup(wc, wl: Workload, seed: int, repeats: int, speed) -> tuple[Inputs, float]:
    """Generate the inputs ``repeats`` times; median seconds, checked identical."""
    times, digests, inputs = [], set(), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = make_inputs(wc, wl, seed)
        times += speed.normalize([time.perf_counter() - t0])
        digests.add(inputs.digest())
    if len(digests) != 1:
        raise InputError("the same seed generated different inputs")
    return inputs, statistics.median(times)


# ---------------------------------------------------------------------------
# Output checks.


def fit_problems(fit) -> list:
    """Violations of the registration guarantees, as messages."""
    out = []
    trace = fit.trace
    for a, b in zip(trace, trace[1:]):
        if b > a + TRACE_RTOL * max(1.0, abs(a)):
            out.append(f"objective trace increased from {a!r} to {b!r}")
            break
    for sid in fit.warps.subject_offsets:
        if not np.all(np.diff(fit.warps.ordinates(sid)) > 0):
            out.append(f"fitted warp of {sid} is not strictly increasing")
    return out


def prediction_problems(res) -> list:
    out = []
    if not 0.0 <= res.pi_hat <= 1.0:
        out.append(f"{res.subject_id}: pi_hat {res.pi_hat!r} outside [0, 1]")
    if res.label not in (0, 1):
        out.append(f"{res.subject_id}: label {res.label!r} not in {{0, 1}}")
    return out


def output_digest(fit, model, predictions) -> str:
    payload = {
        "fit": fit.to_dict(),
        "model": model.to_dict(),
        "predictions": [asdict(p) for p in predictions],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# One pass.


@dataclass
class PassResult:
    fit_s: float
    fit_wall_s: float
    pipeline_s: float
    wall_s: float
    latencies: list
    attempted: int
    failed: int
    problems: list
    digest: str
    ca: float
    final_objective: float
    warp_imse: float
    fit: object


# Predictions timed between two machine-speed samples.
SPEED_BLOCK = 10


def run_pass(wc, inputs: Inputs, settings: dict, speed, split_fit: bool = True) -> PassResult:
    """fit -> CV -> classifier -> predict every test subject, then check.

    Times are in reference seconds (see ``speed.py``); ``fit_wall_s`` and
    ``wall_s`` are plain wall times of the fit and of the whole pass.  A
    traced pass does not split the fit, so no speed sample lands inside a
    span.
    """
    reg, cls = wc.registration, wc.classify
    train, test = inputs.train, inputs.test
    start = time.perf_counter()
    # fit_registration runs for several seconds: sample the machine's speed
    # after each warp and variance step so that it is normalized piecewise.
    cuts = ("fit_warps", "fit_variance") if split_fit else ()
    with speed.split_at(reg, cuts) as fit_time:
        fit = reg.fit_registration(train, settings["config"])
    t0 = time.perf_counter()
    k_x, k_e = cls.cross_validate_K(fit, train, seed=inputs.cv_seed, **settings["cv"])
    model = cls.fit_classifier(fit, train, k_x, k_e)
    (classifier_s,) = speed.normalize([time.perf_counter() - t0])
    problems = fit_problems(fit)
    failed = int(bool(problems))

    predictions, latencies, block, y_true = [], [], [], []
    covariates = test.covariates
    for i, sid in enumerate(test.subject_ids):
        t1 = time.perf_counter()
        try:
            res = cls.predict_new(fit, model, test.curve(sid), covariates[i])
        except Exception:  # counted as a failed operation; the pass goes on
            traceback.print_exc()
            problems.append(f"{sid}: predict_new raised")
            failed += 1
            continue
        block.append(time.perf_counter() - t1)
        if len(block) == SPEED_BLOCK:
            latencies += speed.normalize(block)
            block = []
        bad = prediction_problems(res)
        problems += bad
        failed += int(bool(bad))
        predictions.append(res)
        y_true.append(test.scalars[i].y)
    if block:
        latencies += speed.normalize(block)
    wall_s = time.perf_counter() - start

    est = {
        sid: reg.warp_values(fit.warps.anchors, fit.warps.ordinates(sid), WARP_GRID)
        for sid in train.subject_ids
    }
    true = {sid: inputs.truth.warp_on_grid(sid, WARP_GRID) for sid in train.subject_ids}
    ca = wc.simeval.metric_ca(y_true, [p.label for p in predictions]) if predictions else 0.0
    return PassResult(
        fit_s=fit_time.seconds,
        fit_wall_s=fit_time.wall,
        pipeline_s=fit_time.seconds + classifier_s + sum(latencies),
        wall_s=wall_s,
        latencies=latencies,
        attempted=1 + test.n_subjects,
        failed=failed,
        problems=problems,
        digest=output_digest(fit, model, predictions),
        ca=float(ca),
        final_objective=float(fit.trace[-1]),
        warp_imse=float(wc.simeval.warp_imse(est, true, WARP_GRID)),
        fit=fit,
    )
