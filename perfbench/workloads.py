"""The benchmark workloads: inputs made from a seed, unit calls, output checks.

Each workload is a fixed list of unit calls into ``pmdag`` (one identify
verdict, one fit, or one CLI call).  Inputs are built here, before the timed
section; the library receives only the generated graphs, targets and
configs.  Every unit call has a check that the benchmark runs after it,
outside the timed section.

The library's modules are looked up by attribute at call time (``solver.fit``,
``cli.main``), so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Ground truths and fit settings of the acceptance suite (tests/test_acceptance.py):
# one truth seed per canonical graph and the Figure 9 fit configuration.
TRUTH_SEEDS = {
    "backdoor": 3, "frontdoor": 3, "m": 3, "napkin": 3, "iv": 1,
    "bow": 101, "extended_bow": 101, "bad_m": 5,
}
FIG9_FIT = dict(max_iters=12000, lr=1e-3, optimizer="adamax", restarts=3)
IDENTIFIABLE = ("backdoor", "frontdoor", "m", "napkin", "iv")
BOW_FAMILY = ("bow", "extended_bow", "bad_m")
# (master seed, iters): every slot is spent on the identifiable graphs; the
# bow family exits at its first refutation
IDENTIFIABLE_PROBE = (2024, 2)
BOW_FAMILY_PROBE = (1000, 10)
TOL_ID = 1e-1
# largest interventional divergence an identifiable effect may show, as in
# criterion 6b; also bounds each napkin repetition's final do-divergence
MAX_DIVERGENCE = 1e-2

# random-fit: (v, graphs, engines fitted on each graph, fixed iteration budget).
# The budgets give each engine a comparable share of a pass on a 2-core box;
# several graphs per size average out how the cost of one structure differs
# from another's at the same size and depth.
RANDOM_GRID = (
    (16, 2, ("covariance", "accumulation"), 400),
    (32, 3, ("covariance", "accumulation"), 35),
    (8, 2, ("reduced", "covariance"), 75),
    (12, 2, ("reduced", "covariance"), 40),
)
L_STAR = 0.5
E_STAR = 0.5
# Layered depth of the graph GenSpec(v, 0.5, 0.5, seed=v).  Other seeds draw
# graphs until one has the same depth, so the per-iteration cost, which grows
# with depth, does not move with the seed.
RANDOM_DEPTH = {8: 7, 12: 8, 16: 12, 32: 21}
AGREE_RTOL = 1e-9

EXPERIMENT_GRAPHS = ("napkin", "bow")
EXPERIMENT_FIT_SEED = 31
EXPERIMENT_REPETITIONS = 2
EXPERIMENT_HOOK_STRIDE = 50
DECILE_HEADER = "iteration,decile_1,decile_5,decile_9"

WORKLOADS = ("canonical-identify", "random-fit", "canonical-experiment")


@dataclass
class Outcome:
    iterations: int
    problem: str | None = None  # why the output is wrong, None when it is right
    extra: dict = field(default_factory=dict)


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    span: str | None = None  # span the traced run opens around the call
    engine: str | None = None
    prepare: Callable[[], None] | None = None  # untimed, before the call


@dataclass
class Workload:
    jobs: list[Job]
    reduced_graphs: list = field(default_factory=list)


def _mod(name: str):
    return importlib.import_module(f"pmdag.{name}")


def warm_up() -> None:
    """One short fit on a tiny graph: fills lazy imports and BLAS start-up."""
    generate, solver = _mod("generate"), _mod("solver")
    g = generate.canonical("bow")
    _, target = generate.ground_truth(g, 0)
    solver.fit(g, target, solver.FitConfig(max_iters=50, restarts=1))


def layered_depth(g) -> int:
    """Longest root-to-node path counted in nodes: the depth of the greedy layering."""
    level = {}
    for name in g.topological_order():
        level[name] = 1 + max((level[p] for p in g.parents(name)), default=0)
    return max(level.values())


# --- canonical-identify -----------------------------------------------------


def _canonical_identify() -> Workload:
    generate, identify_mod, solver = _mod("generate"), _mod("identify"), _mod("solver")
    query = identify_mod.InterventionQuery(("X",), (0.0,), ("Y",))
    jobs = []
    for name in IDENTIFIABLE + BOW_FAMILY:
        g = generate.canonical(name)
        _, target = generate.ground_truth(g, TRUTH_SEEDS[name])
        identifiable = name in IDENTIFIABLE
        master, iters = IDENTIFIABLE_PROBE if identifiable else BOW_FAMILY_PROBE
        config = solver.FitConfig(seed=master, **FIG9_FIT)
        reports = []

        def counting_fit(g, target, config, _reports=reports):
            params, report = solver.fit(g, target, config)
            _reports.append(report)
            return params, report

        def call(g=g, target=target, config=config, iters=iters, fit=counting_fit, reports=reports):
            reports.clear()
            return identify_mod.identify(g, target, query, config, iters=iters,
                                         tol_id=TOL_ID, fn=fit)

        def check(verdict, identifiable=identifiable, reports=reports):
            out = Outcome(sum(r.iterations for r in reports), extra={
                "fits_run": verdict.fits_run, "useful_fits": len(verdict.divergences) + 1})
            if identifiable:
                if verdict.outcome != identify_mod.PRESUMED_IDENTIFIABLE:
                    out.problem = f"outcome {verdict.outcome}"
                elif not verdict.max_divergence <= MAX_DIVERGENCE:
                    out.problem = f"max_divergence {verdict.max_divergence}"
            elif verdict.outcome != identify_mod.NOT_IDENTIFIABLE:
                out.problem = f"outcome {verdict.outcome}"
            return out

        jobs.append(Job(name, call, check, span="identify.verdict"))
    return Workload(jobs)


# --- random-fit ----------------------------------------------------------------


def _random_graphs(v: int, count: int, seed: int):
    """The first ``count`` graphs of size v and the reference depth, in seed order."""
    generate = _mod("generate")
    graph_seed = v + 1000 * seed
    found = []
    while len(found) < count:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = generate.random_pmdag(generate.GenSpec(v=v, l_star=L_STAR, e_star=E_STAR,
                                                       seed=graph_seed))
        if layered_depth(g) == RANDOM_DEPTH[v]:
            found.append((g, graph_seed))
        graph_seed += 1
    return found


def _random_fit(seed: int) -> Workload:
    generate, solver = _mod("generate"), _mod("solver")
    jobs = []
    reduced_graphs = []
    for v, count, engines, budget in RANDOM_GRID:
        for g, graph_seed in _random_graphs(v, count, seed):
            _, target = generate.ground_truth(g, graph_seed)
            if "reduced" in engines:
                reduced_graphs.append((g, graph_seed))
            traces = {}
            for engine in engines:
                config = solver.FitConfig(method=engine, max_iters=budget, restarts=1,
                                          seed=graph_seed)

                def call(g=g, target=target, config=config):
                    return solver.fit(g, target, config)

                def check(result, engine=engine, budget=budget, traces=traces):
                    return _check_random_fit(result[1], engine, budget, traces)

                jobs.append(Job(f"{engine}.v{v}", call, check, engine=engine))
    return Workload(jobs, reduced_graphs)


def _check_random_fit(report, engine: str, budget: int, traces: dict) -> Outcome:
    """Fixed budget spent, KL finite and lower, and the same KL trace as the other engine."""
    out = Outcome(report.iterations)
    kl = report.kl_trace
    if report.stop_reason != "max_iters" or report.iterations != budget:
        out.problem = f"stopped by {report.stop_reason} after {report.iterations}"
    elif not (math.isfinite(kl[-1]) and kl[-1] < kl[0]):
        out.problem = f"final KL {kl[-1]} not finite and below first {kl[0]}"
    else:
        traces[engine] = kl
        other = next((t for e, t in traces.items() if e != engine), None)
        if other is not None:
            rel = max(abs(a - b) / abs(b) for a, b in zip(kl, other))
            if not rel <= AGREE_RTOL:
                out.problem = f"KL traces of the engines differ by {rel:.3g} relative"
    return out


def reduced_peak_entries(workload: Workload) -> int | None:
    """Peak live entries of the reduced engine, one forward+backward per graph.

    None when the workload has no reduced graphs or the library no longer
    offers the counter.
    """
    import numpy as np

    solver, sync_mod = _mod("solver"), _mod("sync")
    if not workload.reduced_graphs or not hasattr(solver, "AllocationCounter"):
        return None
    peak = 0
    for g, graph_seed in workload.reduced_graphs:
        sync = sync_mod.synchronize(g)
        masks = sync_mod.build_masks(sync)
        edge_w = solver.edge_weight_map(masks, solver.init_weights(sync, masks, graph_seed))
        counter = solver.AllocationCounter()
        state = solver.forward_reduced(sync, edge_w, counter=counter)
        solver.backward_reduced(sync, edge_w, state, np.eye(len(sync.layers[-1])), counter=counter)
        peak = max(peak, counter.peak)
    return peak


# --- canonical-experiment -----------------------------------------------------


def _canonical_experiment(outdir: Path) -> Workload:
    cli = _mod("cli")
    jobs = []
    for name in EXPERIMENT_GRAPHS:
        spec = {
            "graph": name,
            "truth_seed": TRUTH_SEEDS[name],
            "fit_config": dict(seed=EXPERIMENT_FIT_SEED, **FIG9_FIT),
            "repetitions": EXPERIMENT_REPETITIONS,
            "do_target": "X",
            "do_effect": "Y",
            "hook_stride": EXPERIMENT_HOOK_STRIDE,
        }
        spec_path = outdir / f"{name}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = outdir / name

        def prepare(out=out):
            shutil.rmtree(out, ignore_errors=True)

        def call(spec_path=spec_path, out=out):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["experiment", str(spec_path), "-o", str(out)])

        def check(code, name=name, out=out):
            return _check_experiment(code, name, out)

        jobs.append(Job(name, call, check, span="cli.main", prepare=prepare))
    return Workload(jobs)


def _check_experiment(code, name: str, out: Path) -> Outcome:
    if code != 0:
        return Outcome(0, f"exit code {code}")
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        header = (out / "kl_deciles.csv").read_text(encoding="utf-8").splitlines()[0]
    except (OSError, ValueError, IndexError) as exc:
        return Outcome(0, f"unreadable output: {exc}")
    reps = summary.get("repetitions", [])
    result = Outcome(sum(r["iterations"] for r in reps), extra={
        "bytes_written": sum(f.stat().st_size for f in out.iterdir() if f.is_file())})
    if len(reps) != EXPERIMENT_REPETITIONS or summary.get("converged_count") != len(reps):
        result.problem = f"{summary.get('converged_count')}/{len(reps)} repetitions converged"
    elif header != DECILE_HEADER:
        result.problem = f"decile header {header!r}"
    elif name == "napkin":
        divergences = [r.get("final_do_divergence") for r in reps]
        if not all(d is not None and d <= MAX_DIVERGENCE for d in divergences):
            result.problem = f"final do-divergences {divergences}"
    return result


# --- entry point ----------------------------------------------------------------


def build(name: str, seed: int, outdir: Path) -> Workload:
    """Import the library, build the inputs of one workload, then warm up."""
    importlib.import_module("pmdag")
    # The canonical workloads run the acceptance suite's fixed truths and fit
    # seeds whatever the seed: shifting them moves the cost of a pass by up to
    # 2x and turns some bow-family refutations into misses (see README.md).
    if name == "canonical-identify":
        workload = _canonical_identify()
    elif name == "random-fit":
        workload = _random_fit(seed)
    elif name == "canonical-experiment":
        workload = _canonical_experiment(outdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    warm_up()
    return workload
