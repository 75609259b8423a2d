"""Benchmark of the warpclass pipeline: end-to-end metrics and per-layer traces.

    python3 perfbench/run.py --workload study2-common --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one caller, a closed loop: each library call starts after
the previous one returns.  ``--trace 0`` repeats the pipeline while the
``--seconds`` budget allows (at least once) and prints the end-to-end
metrics.  ``--trace 1`` runs the pipeline once untraced and once traced
and prints the per-layer metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
report (environment, checks, spans) goes to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("study2-common", "study2-irregular", "study2-scoring")
SETUP_REPEATS = 5
# One BLAS thread: the load is one caller in one process, and the program's
# results do not depend on the thread count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "pipeline_s": "s",
    "predict_subjects_per_s": "1/s",
    "predict_p50_ms": "ms",
    "predict_p95_ms": "ms",
    "ca": "fraction",
    "final_objective": "1",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    """The warpclass sources are not in this checkout."""


def import_program():
    """Import warpclass from this checkout's ``src``, never from elsewhere."""
    import importlib

    src = ROOT / "src"
    if not (src / "warpclass" / "__init__.py").is_file():
        raise ProgramMissing(f"no warpclass sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    wc = importlib.import_module("warpclass")
    if Path(wc.__file__).resolve().parent != (src / "warpclass").resolve():
        raise ProgramMissing(f"warpclass imported from {wc.__file__}, not {src}")
    return wc


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "warpclass").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(key: str, digest: str, counts: dict | None) -> list:
    """Compare outputs and counts with an earlier run of the same code and seed."""
    path = OUT_DIR / "state" / f"{key}.json"
    prev = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    if prev.get("digest", digest) != digest:
        problems.append("outputs differ from an earlier run of the same seed")
    if counts and prev.get("counts"):
        for name, value in counts.items():
            if prev["counts"].get(name, value) != value:
                problems.append(f"{name} is {value}, an earlier run of the same seed had {prev['counts'][name]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": digest, "counts": prev.get("counts") or counts}))
    os.replace(tmp, path)
    return problems


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "load": {
            "processes": 1,
            "callers": 1,
            "loop": "closed",
            "python_threads": threading.active_count(),
        },
    }


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end_metrics(passes, setup_s: float) -> dict:
    lat_ms = [1e3 * x for p in passes for x in p.latencies]
    first = passes[0]
    return {
        "setup_s": setup_s,
        "fit_s": statistics.median(p.fit_s for p in passes),
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "predict_subjects_per_s": len(lat_ms) / (1e-3 * sum(lat_ms)),
        "predict_p50_ms": _pct(lat_ms, 50),
        "predict_p95_ms": _pct(lat_ms, 95),
        "ca": first.ca,
        "final_objective": first.final_objective,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(summary: dict, slowdown: float, counts, traced, untraced) -> dict:
    """Span times in reference seconds: divided by the traced pass's median slowdown."""

    def total(*names):
        return sum(summary[n]["total_s"] for n in names) / slowdown

    fit = traced.fit
    out = {
        "registration.fit_s": total("registration.fit_registration"),
        "registration.warp_s": total("registration.fit_warps"),
        "registration.warp.converged_ratio": fit.warp_opt_converged_fraction,
        "registration.variance_s": total("registration.fit_variance"),
        "registration.gls_s": total("registration.estimate_c", "registration.estimate_d"),
        "registration.linearize_s": total("registration.build_linearization"),
        "registration.objective_s": total("registration.penalized_objective"),
        "registration.context_s": total("registration.build_context", "registration.warp_design"),
        "registration.warp_imse": traced.warp_imse,
        "gp.matern_cov_s": total("gp.matern_cov"),
        "gp.chol_s": total("gp.CholFactor"),
        "classify.subject_warp_s": total("classify.fit_subject_warp"),
        "classify.predict_s": total("classify.predict_new"),
        "classify.cv_s": total("classify.cross_validate_K"),
        "classify.fit_classifier_s": total("classify.fit_classifier"),
        "classify.align_s": total("classify.align_curves", "classify.align_single"),
        "simeval.simulate_s": total("simeval.simulate_study2"),
        "trace.pipeline_s": traced.pipeline_s,
        "trace.overhead_s": traced.pipeline_s - untraced.pipeline_s,
    }
    out.update(count_metrics(summary, counts, fit))
    for name, rec in summary.items():
        out[f"{name}.self_s"] = rec["self_s"] / slowdown
    return out


def count_metrics(summary: dict, counts, fit) -> dict:
    """Work counts of the traced pass: compared exactly across runs of one seed."""
    return {
        "registration.warp.calls": summary["registration.fit_warps"]["calls"],
        "registration.warp.nfev": counts["nfev:registration.fit_warps"],
        "basis.warp_evals": counts["hyman_interp:registration.fit_registration"],
        "basis.subject_warp_evals": counts["hyman_interp:classify.predict_new"],
        "registration.variance.nfev": counts["nfev:registration.fit_variance"],
        "gp.matern_cov.calls": summary["gp.matern_cov"]["calls"],
        "gp.matern_cov.entries": counts["matern_entries"],
        "gp.chol.calls": summary["gp.CholFactor"]["calls"],
        "classify.subject_warp.calls": summary["classify.fit_subject_warp"]["calls"],
        "classify.subject_warp.nfev": counts["nfev:classify.fit_subject_warp"],
        "classify.predict.calls": summary["classify.predict_new"]["calls"],
        "classify.predict.iterations": counts["predict_iterations"],
        "classify.predict.not_converged": counts["predict_not_converged"],
        "classify.glmm.passes": counts["glmm_passes"],
        "registration.n_outer": fit.n_outer,
    }


def design_check(workload: str, m: dict) -> dict:
    """Whether the trace shows the layer each workload is meant to stress."""
    if workload == "study2-common":
        phases = ("warp_s", "variance_s", "gls_s", "linearize_s", "objective_s", "context_s")
        top = max(phases, key=lambda p: m[f"registration.{p}"])
        return {"largest_registration_phase": f"registration.{top}", "as_designed": top == "warp_s"}
    if workload == "study2-irregular":
        selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        return {"largest_self_time": top, "as_designed": top == "gp.matern_cov.self_s"}
    shares = {
        "registration.fit_s": m["registration.fit_s"],
        "classify.cv_s": m["classify.cv_s"],
        "classify.fit_classifier_s": m["classify.fit_classifier_s"],
        "classify.subject_warp_s": m["classify.subject_warp_s"],
        "classify.predict_s minus subject_warp_s": m["classify.predict_s"] - m["classify.subject_warp_s"],
    }
    top = max(shares, key=shares.get)
    return {
        "largest_share_of_pipeline": top,
        "share": shares[top] / m["trace.pipeline_s"],
        "as_designed": top == "classify.subject_warp_s",
    }


def unit_of(name: str, count_names) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in count_names:
        return "count"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_s"):
        return "s"
    return "1"


def run_one(args) -> dict:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # numpy reads the BLAS thread count when it is first imported, so the
    # benchmark's own modules (which import numpy) load only after this point.
    # The program's third-party dependencies load before the clock starts:
    # setup_s counts the program's own import work, not scipy's.
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401

    t0 = time.perf_counter()
    wc = import_program()
    import_wall = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    import bench
    import speed as speedmod
    import tracing

    speed = speedmod.Speedometer()
    (import_s,) = speed.normalize([import_wall])

    wl = bench.WORKLOADS[args.scale][args.workload]
    settings = bench.fit_settings(wc, args.scale)
    inputs, gen_s = bench.timed_setup(wc, wl, args.seed, SETUP_REPEATS, speed)
    key = f"{code_hash()}-{args.workload}-{args.scale}-{args.seed}"
    report = {"workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace}

    if args.trace:
        untraced = bench.run_pass(wc, inputs, settings, speed)
        first_traced_sample = len(speed.ratios)
        tracer = tracing.Tracer()
        modules = {"simeval": wc.simeval, "registration": wc.registration, "classify": wc.classify}
        with tracing.patched(tracer, modules):
            traced_inputs = bench.make_inputs(wc, wl, args.seed)
            traced = bench.run_pass(wc, traced_inputs, settings, speed, split_fit=False)
        summary = tracer.summary()
        slowdown = statistics.median(speed.ratios[first_traced_sample:])
        metrics = per_layer_metrics(summary, slowdown, tracer.counts, traced, untraced)
        passes = [untraced, traced]
        problems = untraced.problems + traced.problems
        if traced_inputs.digest() != inputs.digest():
            problems.append("traced and untraced runs generated different inputs")
        if traced.digest != untraced.digest:
            problems.append("traced and untraced runs of the same seed gave different outputs")
        counts = count_metrics(summary, tracer.counts, traced.fit)
        problems += check_repeat(key, untraced.digest, counts)
        report["design"] = design_check(args.workload, metrics)
        t_ref = tracer.spans[0][1] if tracer.spans else 0.0
        report["spans"] = [[n, s - t_ref, e - t_ref, p] for n, s, e, p in tracer.spans]
    else:
        passes, start = [], time.perf_counter()
        while True:
            passes.append(bench.run_pass(wc, inputs, settings, speed))
            typical = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - start + typical > args.seconds:
                break
        metrics = end_to_end_metrics(passes, import_s + gen_s)
        problems = [msg for p in passes for msg in p.problems]
        if len({p.digest for p in passes}) != 1:
            problems.append("passes over the same inputs gave different outputs")
        problems += check_repeat(key, passes[0].digest, None)
        report["warp_imse"] = passes[0].warp_imse
        counts = {}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report.update(
        environment=environment(),
        passes=len(passes),
        predictions_per_pass=inputs.test.n_subjects,
        setup={"import_s": import_s, "generate_s": gen_s, "repeats": SETUP_REPEATS},
        wall_s={"fit": [p.fit_wall_s for p in passes], "pass": [p.wall_s for p in passes]},
        slowdown={
            "reference_s": speedmod.REFERENCE_S,
            "samples": len(speed.ratios),
            "median": statistics.median(speed.ratios),
            "min": min(speed.ratios),
            "max": max(speed.ratios),
        },
        problems=problems,
    )
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k, counts)} for k, v in metrics.items()},
    }
    report["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1))
    for name, m in result["metrics"].items():
        print(f"{args.workload:18s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(f"environment: {json.dumps(report['environment'])}")
    if "design" in report:
        print(f"design: {json.dumps(report['design'])}")
    print(f"report: {out_path}")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}:{k}"] = v
    return combined


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
