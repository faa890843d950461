#!/usr/bin/env python3
"""Benchmark of pmdag: three workloads, end-to-end metrics, and a traced run.

Run from the root of the repository:

    python3 perfbench/run.py --workload random-fit --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload untraced for about ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs the three workloads in
turn, each in a fresh interpreter.  The library is imported from ``src/``
next to this directory; without it the benchmark exits with code 2.  See
README.md for the design.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Outcome

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 4  # extra fresh-process set-ups; setup_s is the median over 1 + these
CHILD_TIMEOUT_S = 150
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class UnitResult:
    label: str
    engine: str | None
    seconds: float
    outcome: Outcome


@dataclass
class PassResult:
    units: list[UnitResult]

    @property
    def wall(self) -> float:
        return sum(u.seconds for u in self.units)

    @property
    def failures(self) -> list[UnitResult]:
        return [u for u in self.units if u.outcome.problem is not None]


def run_unit(job, tracer=None, unit_id=None) -> UnitResult:
    """One unit call, timed; its preparation and output check run untimed."""
    if job.prepare is not None:
        job.prepare()
    if tracer is not None:
        tracer.begin_unit(unit_id, job.label)
    t0 = time.perf_counter()
    try:
        if tracer is not None and job.span is not None:
            with tracer.span(job.span):
                result = job.call()
        else:
            result = job.call()
    except Exception:  # a unit call that raises is counted as failed; the run goes on
        seconds = time.perf_counter() - t0
        problem = "raised " + traceback.format_exc().strip().splitlines()[-1]
        return UnitResult(job.label, job.engine, seconds, Outcome(0, problem))
    finally:
        if tracer is not None:
            tracer.end_unit()
    seconds = time.perf_counter() - t0
    try:
        outcome = job.check(result)
    except Exception:  # a malformed result fails its check
        outcome = Outcome(0, "check raised " + traceback.format_exc().strip().splitlines()[-1])
    return UnitResult(job.label, job.engine, seconds, outcome)


def run_pass(workload, tracer=None, unit_ids=None) -> PassResult:
    """Every unit call of the workload once."""
    return PassResult([run_unit(job, tracer, None if unit_ids is None else next(unit_ids))
                       for job in workload.jobs])


def run_for(workload, seconds: float) -> list[list[UnitResult]]:
    """The workload's unit calls in turn, cycling, for about ``seconds``; each job's results.

    One whole pass always runs.  After it the calls go on one at a time,
    while the next call's mean time so far still fits in ``seconds``, so a
    run measures its whole budget even when one pass takes most of it.
    """
    per_job = [[] for _ in workload.jobs]
    start = time.perf_counter()
    i = 0
    while True:
        if all(per_job):
            typical = statistics.fmean(u.seconds for u in per_job[i])
            if time.perf_counter() - start + typical > seconds:
                return per_job
        per_job[i].append(run_unit(workload.jobs[i]))
        i = (i + 1) % len(per_job)


# --- environment --------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, or None when unknown."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- child processes --------------------------------------------------------------


def run_child(args, extra: list[str], env: dict) -> dict:
    """Run this script in a fresh interpreter and return its last output line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_engine_us(result: PassResult) -> dict:
    out = {}
    for engine in {u.engine for u in result.units if u.engine}:
        units = [u for u in result.units if u.engine == engine]
        out[engine] = sum(u.seconds for u in units) / sum(u.outcome.iterations for u in units) * 1e6
    return out


# --- the two kinds of run ----------------------------------------------------------


def report(correct, attempted, failed, metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def print_failures(units) -> None:
    for u in units:
        if u.outcome.problem is not None:
            print(f"FAILED {u.label}: {u.outcome.problem}")


def end_to_end(args, outdir: Path) -> int:
    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, outdir)
    setups = [time.perf_counter() - t0]
    check_library_origin()
    env = dict(os.environ)
    for _ in range(SETUP_CHILDREN):
        setups.append(run_child(args, ["--setup-only"], env)["setup_s"])

    per_job = run_for(workload, args.seconds)
    units = [u for results in per_job for u in results]
    print("env: " + json.dumps(environment()))
    for results in per_job:
        times = [u.seconds for u in results]
        print(f"job {results[0].label}: {len(times)} calls, mean {statistics.fmean(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s")
    print(f"setups s: {[round(s, 4) for s in setups]}")
    print_failures(units)
    failed = sum(u.outcome.problem is not None for u in units)
    print(f"failed_ratio = {failed / len(units)!r} 1")
    # one pass of the job list, each job at its mean over the run
    wall = sum(statistics.fmean(u.seconds for u in results) for results in per_job)
    iterations = sum(statistics.fmean(u.outcome.iterations for u in results) for results in per_job)
    report(failed == 0, len(units), failed, {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "iters_per_s": (iterations / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    return 0


def traced(args, outdir: Path) -> int:
    import layers
    from tracer import Tracer

    setup_tr = Tracer()
    for target, layer in layers.SETUP:
        setup_tr.wrap(target, layer)
    workload = workloads.build(args.workload, args.seed, outdir)
    setup_tr.uninstall()
    check_library_origin()

    base = run_pass(workload)
    tr = Tracer()
    inst = layers.Installation(tr)
    try:
        traced_pass = run_pass(workload, tr, itertools.count())
    finally:
        tr.uninstall()

    one_thread = None
    if args.workload == "random-fit":
        env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
        one_thread = run_child(args, ["--blas-one-thread"], env)
    reduced_peak = workloads.reduced_peak_entries(workload)

    metrics, absent = layers.compute(tr, inst, setup_tr, [u.outcome for u in traced_pass.units],
                                     base.wall, traced_pass.wall, one_thread, reduced_peak)
    print("env: " + json.dumps(environment()))
    print(f"untraced pass s: {base.wall!r}; traced pass s: {traced_pass.wall!r}")
    for target in tr.missing + setup_tr.missing:
        print(f"not wrapped (absent at this commit): {target}")
    for name, reason in absent.items():
        print(f"absent: {name}: {reason}")
    print_failures(base.units + traced_pass.units)
    attempted = len(base.units) + len(traced_pass.units)
    failed = len(base.failures) + len(traced_pass.failures)
    report(failed == 0, attempted, failed, metrics)
    return 0


def check_library_origin() -> None:
    """Refuse to measure a pmdag imported from anywhere but this checkout's src/."""
    origin = Path(sys.modules["pmdag"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: pmdag was imported from {origin}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: fresh-process measurements started by the runs above
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--blas-one-thread", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not args.blas_one_thread:
        # parent and change both get the BLAS threading a user gets by default
        for key in BLAS_ENV:
            os.environ.pop(key, None)
    if not (SRC / "pmdag" / "__init__.py").is_file():
        print(f"error: no pmdag sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outdir = ROOT / ".perfbench_out" / str(os.getpid())
    outdir.mkdir(parents=True)
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            workloads.build(args.workload, args.seed, outdir)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        if args.blas_one_thread:
            workload = workloads.build(args.workload, args.seed, outdir)
            print(json.dumps(per_engine_us(run_pass(workload))))
            return 0
        return traced(args, outdir) if args.trace else end_to_end(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
