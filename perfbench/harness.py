"""Set-up, timed passes, checks and metrics for one workload run.

An untraced run repeats full passes over the workload's items while another
pass still fits in ``seconds`` (at least one), and reports end-to-end
metrics.  A traced run makes one untraced and one traced pass and reports
per-module metrics from the traced pass's spans, plus the ratio of the two
pass times.  Every pass's outputs are checked against the oracles; checks run
after the timed phase and are not timed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from spans import Tracer
from workloads import SIZES, WORKLOADS, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("geom", "integrate", "tri2d", "functional2d", "subdivision", "experiments", "render")
MAX_ERRORS_SHOWN = 5
# Whole-process set-ups per untraced run (the run's own plus fresh ones);
# setup_s is their median.
SETUP_RUNS = 5


def load_library():
    """Import the package from the checkout's ``src``."""
    pkg = importlib.import_module("vorfunc")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"vorfunc imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"vorfunc.{m}") for m in MODULES})


def set_up(workload, seed, start, size_name="full"):
    """Import the library and generate the seeded inputs.

    Returns (library, items, seconds since ``start``).
    """
    lib = load_library()
    items = WORKLOADS[workload].generate(seed, SIZES[workload][size_name])
    return lib, items, time.perf_counter() - start


def _fresh_setups(workload, seed, size_name, runs):
    """Set-up times of ``runs`` fresh processes (``run.py --setup-only``),
    each measured from its first line as the run's own set-up is."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--size", size_name, "--setup-only"]
    times = []
    for _ in range(runs):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "concurrency": "one process, one thread: no queues, so no waiting time to report",
    }


def _pass(wl, lib, tr, items, size, seed):
    lat, outs = [], []
    start = time.perf_counter()
    for inp in items:
        tr.item = inp.index
        t0 = time.perf_counter()
        try:
            out = wl.run(lib, tr, inp, size)
        except Exception as exc:  # a failed item is counted, the run goes on
            out = exc
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    tr.item = -1
    extra = None
    if wl.extra is not None:
        try:
            extra = wl.extra(lib, tr, seed, size)
        except Exception as exc:
            extra = exc
    return time.perf_counter() - start, lat, outs, extra


def _record(tally, label, errs):
    tally["attempted"] += 1
    if errs:
        tally["failed"] += 1
        tally["errors"].extend(f"{label}: {e}" for e in errs)


def _check(wl, lib, items, outs, extra, refs, size, tally):
    jobs = [(f"item {inp.index}", out, lambda inp=inp, out=out: wl.check(lib, inp, out, refs, size)) for inp, out in zip(items, outs)]
    if wl.extra is not None:
        jobs.append(("extra", extra, lambda: wl.check_extra(lib, extra, refs)))
    for label, out, check in jobs:
        if isinstance(out, Exception):
            errs = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                errs = check()
            except Exception as exc:  # a broken output is a failed item
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        _record(tally, label, errs)


def _p90(values):
    """Nearest-rank 90th percentile: with 100+ values, 10 or more lie above it."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _layer_metrics(tr, refs, overhead):
    times, counts = tr.times(), tr.counts

    def s(name):
        return times.get(name, (0.0, 0.0, 0))[0]

    def c(name):
        return counts.get(name, 0)

    closed_s = s("functional2d.vf_triangulation") + s("functional2d.radius_functional") + s("functional2d.rajan_triangle")
    m = {
        "tri2d.enumerate_triangulations.s": (s("tri2d.enumerate_triangulations"), "s"),
        "tri2d.enumerate_triangulations.triangulations": (c("tri2d.enumerate_triangulations.triangulations"), "count"),
        "tri2d.enumerate_triangulations.triangulations_per_s": (
            _rate(c("tri2d.enumerate_triangulations.triangulations"), s("tri2d.enumerate_triangulations")),
            "triangulations/s",
        ),
        "tri2d.delaunay.s": (s("tri2d.delaunay"), "s"),
        "tri2d.delaunay.points_per_s": (_rate(c("tri2d.delaunay.points"), s("tri2d.delaunay")), "points/s"),
        "functional2d.vf_triangulation.s": (s("functional2d.vf_triangulation"), "s"),
        "functional2d.radius_functional.s": (s("functional2d.radius_functional"), "s"),
        "functional2d.rajan_triangle.s": (s("functional2d.rajan_triangle"), "s"),
        "functional2d.closed_form.triangles_per_s": (_rate(c("functional2d.closed_form.triangles"), closed_s), "triangles/s"),
        "functional2d.closed_form.rel_err": (refs.get("closed_form.rel_err", 0.0), "ratio"),
        "functional2d.g_field.s": (s("functional2d.g_field"), "s"),
        "functional2d.g_field.calls": (c("functional2d.g_field.calls"), "count"),
        "functional2d.g_field.point_triangles_per_s": (
            _rate(c("functional2d.g_field.point_triangles"), s("functional2d.g_field")),
            "point_tri/s",
        ),
        "integrate.mc_integrate.s": (s("integrate.mc_integrate"), "s"),
        "integrate.mc_integrate.self_s": (times.get("integrate.mc_integrate", (0.0, 0.0, 0))[1], "s"),
        "integrate.mc_integrate.samples_per_s": (
            _rate(c("integrate.mc_integrate.samples"), s("integrate.mc_integrate")),
            "samples/s",
        ),
        "integrate.mc_integrate.useful_share": (
            _rate(c("integrate.mc_integrate.useful"), c("integrate.mc_integrate.samples")),
            "ratio",
        ),
        "integrate.mc_integrate.inconclusive": (len(refs.get("inconclusive", ())), "count"),
        "subdivision.cell_decomposition_check.s": (s("subdivision.cell_decomposition_check"), "s"),
        "subdivision.cell_decomposition_check.samples_per_s": (
            _rate(c("subdivision.cell_decomposition_check.samples"), s("subdivision.cell_decomposition_check")),
            "samples/s",
        ),
        "experiments.topological_counterexample.s": (s("experiments.topological_counterexample"), "s"),
        "subdivision.vf_via_sd.s": (s("subdivision.vf_via_sd"), "s"),
        "subdivision.vf_via_sd.cells_per_s": (_rate(c("subdivision.vf_via_sd.cells"), s("subdivision.vf_via_sd")), "cells/s"),
        "subdivision.vf_via_sd.rel_err": (max(refs.get("vf_via_sd.rel_err", [0.0])), "ratio"),
        "render.svg_gamma_image.s": (s("render.svg_gamma_image"), "s"),
        "geom.orient2.calls_per_s": (_rate(c("geom.orient2.calls"), s("geom.orient2")), "calls/s"),
        "geom.in_circle.calls_per_s": (_rate(c("geom.in_circle.calls"), s("geom.in_circle")), "calls/s"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, start: float, size_name: str = "full", trace_dir=None):
    """Run one workload; returns (result dict, info dict).

    ``start`` is the ``time.perf_counter()`` reading at process start, so a
    set-up covers the imports of numpy, scipy and the library as well as
    input generation.  Untraced runs add SETUP_RUNS - 1 set-ups in fresh
    processes after the checks and report the median.
    """
    wl = WORKLOADS[workload]
    size = SIZES[workload][size_name]
    lib, items, setup = set_up(workload, seed, start, size_name)
    setups = [setup]

    refs = {}
    tally = {"attempted": 0, "failed": 0, "errors": []}
    walls, lats = [], []
    budget_start = time.perf_counter()
    while True:
        wall, lat, outs, extra = _pass(wl, lib, Tracer(False), items, size, seed)
        if not walls:
            # Library, inputs and one pass's outputs; no oracle state yet.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check(wl, lib, items, outs, extra, refs, size, tally)
        del outs, extra
        walls.append(wall)
        lats.extend(lat)
        spent = time.perf_counter() - budget_start
        if trace or spent + wall > seconds:
            break

    if trace:
        tr = Tracer(True)
        wall, _, outs, extra = _pass(wl, lib, tr, items, size, seed)
        _check(wl, lib, items, outs, extra, refs, size, tally)
        for inp, out in zip(items, outs):
            if not isinstance(out, Exception):
                tr.item = inp.index
                _record(tally, f"probe {inp.index}", probe(lib, tr, out[0]))
        metrics = _layer_metrics(tr, refs, wall / walls[0])
        walls.append(wall)
    else:
        setups += _fresh_setups(workload, seed, size_name, SETUP_RUNS - 1)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "item_p50_s": {"value": statistics.median(lats), "unit": "s"},
            "item_p90_s": {"value": _p90(lats), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "items": len(items),
        "passes": len(walls),
        "pass_walls_s": walls,
        "last_pass_traced": trace,
        "setup_s": setups,
        "fail_ratio": tally["failed"] / tally["attempted"],
        "inconclusive_mc": len(refs.get("inconclusive", ())),
        "errors": tally["errors"][:MAX_ERRORS_SHOWN],
    }
    if trace and trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        tr.dump(Path(trace_dir) / f"trace_{workload}_{size_name}_{seed}.json", {"env": environment(), "info": info})
    return result, info
