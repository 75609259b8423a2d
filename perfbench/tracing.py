"""In-memory spans and counters around the calls into each warpclass layer.

The tracer wraps module attributes where their caller looks them up
(``warpclass.registration.minimize`` rather than ``scipy.optimize.minimize``),
so the program runs unchanged and every wrapper is removed when the
``patched`` block ends.  A span records (name, start, end, parent span);
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The span name is the layer that does the
# work followed by the function, so per-layer totals group by prefix.
SPANS = (
    ("simeval", "simulate_study2", "simeval.simulate_study2"),
    ("registration", "fit_registration", "registration.fit_registration"),
    ("registration", "build_context", "registration.build_context"),
    ("registration", "warp_design", "registration.warp_design"),
    ("registration", "estimate_c", "registration.estimate_c"),
    ("registration", "estimate_d", "registration.estimate_d"),
    ("registration", "fit_warps", "registration.fit_warps"),
    ("registration", "build_linearization", "registration.build_linearization"),
    ("registration", "fit_variance", "registration.fit_variance"),
    ("registration", "penalized_objective", "registration.penalized_objective"),
    ("registration", "minimize", "registration.minimize"),
    ("registration", "matern_cov", "gp.matern_cov"),
    ("registration", "CholFactor", "gp.CholFactor"),
    ("classify", "cross_validate_K", "classify.cross_validate_K"),
    ("classify", "fit_classifier", "classify.fit_classifier"),
    ("classify", "predict_new", "classify.predict_new"),
    ("classify", "fit_subject_warp", "classify.fit_subject_warp"),
    ("classify", "align_curves", "classify.align_curves"),
    ("classify", "align_single", "classify.align_single"),
    ("classify", "fit_glmm", "classify.fit_glmm"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)

# Spans whose minimize calls are attributed to them (nearest enclosing one).
_NFEV_OWNERS = (
    "registration.fit_warps",
    "registration.fit_variance",
    "classify.fit_subject_warp",
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory until written."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []

    def _owner(self, names) -> str | None:
        for idx in reversed(self._stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None

    def _root(self) -> str | None:
        return self.spans[self._stack[0]][0] if self._stack else None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            self._count(name, args, kwargs, out)
            return out

        return traced

    def _count(self, name, args, kwargs, out) -> None:
        if name == "registration.minimize":
            owner = self._owner(_NFEV_OWNERS)
            if owner is not None:
                self.counts[f"nfev:{owner}"] += int(out.nfev)
        elif name == "gp.matern_cov":
            s = args[1] if len(args) > 1 else kwargs["s_grid"]
            t = args[2] if len(args) > 2 else kwargs.get("t_grid")
            self.counts["matern_entries"] += len(s) * (len(s) if t is None else len(t))
        elif name == "classify.predict_new":
            self.counts["predict_iterations"] += int(out.iterations)
            self.counts["predict_not_converged"] += int(not out.converged)
        elif name == "classify.fit_glmm":
            self.counts["glmm_passes"] += int(out.n_passes)

    def count_calls(self, key: str, fn):
        """Count calls without a span, split by the outermost open span."""

        def counted(*args, **kwargs):
            self.counts[f"{key}:{self._root()}"] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per span name: number of calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return {name: dict(out[name]) for name in SPAN_NAMES}


@contextlib.contextmanager
def patched(tracer: Tracer, modules: dict):
    """Install the tracer's wrappers on ``modules`` and always remove them."""
    saved = []
    try:
        for mod_name, attr, span_name in SPANS:
            mod = modules[mod_name]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(span_name, getattr(mod, attr)))
        reg = modules["registration"]
        saved.append((reg, "hyman_interp", reg.hyman_interp))
        reg.hyman_interp = tracer.count_calls("hyman_interp", reg.hyman_interp)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
