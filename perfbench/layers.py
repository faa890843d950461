"""Per-layer metrics of the traced run: what is wrapped, and what is derived from it.

The layers are the modules of ``pmdag``.  Functions are wrapped at the
module attribute through which the library calls them (``pmdag.solver.spd_factor``
is the name the fit loop looks up, not ``pmdag.gauss.spd_factor``).  A name
that no longer exists is skipped, and the metrics that only it feeds are
reported as absent.
"""

from __future__ import annotations

import importlib

ENGINES = ("covariance", "accumulation", "reduced")
ENGINE_SUFFIX = {"cov": "covariance", "acc": "accumulation", "reduced": "reduced"}
# random-fit jobs with their own per-iteration time: the two sizes of each
# layered engine sit on either side of the 2 MiB per-core L2.
SIZED_LABELS = ("covariance.v16", "covariance.v32", "accumulation.v16",
                "accumulation.v32", "reduced.v8", "reduced.v12")

# (wrapped name, layer) for per-iteration boundaries: aggregated only.
AGGREGATED = [
    *((f"pmdag.solver.forward_{s}", f"solver.forward.{e}") for s, e in ENGINE_SUFFIX.items()),
    *((f"pmdag.solver.backward_{s}", f"solver.backward.{e}") for s, e in ENGINE_SUFFIX.items()),
    ("pmdag.solver.optimize_step", "solver.step"),
    ("pmdag.solver.extract_params", "solver.extract_params"),
    ("pmdag.solver.joint_cov", "solver.joint_cov"),
    ("pmdag.solver.spd_factor", "gauss.spd_factor"),
    ("pmdag.solver.kl_gaussian", "gauss.kl_gaussian"),
    ("pmdag.solver.synchronize", "sync.synchronize"),
    ("pmdag.solver.build_masks", "sync.build_masks"),
    ("pmdag.identify.interventional_dist", "identify.interventional_dist"),
    ("pmdag.identify.check_fit", "identify.check_fit"),
    ("pmdag.identify.divergence", "identify.divergence"),
    ("pmdag.identify.mutilate", "graph.mutilate"),
    ("pmdag.identify.kl_gaussian", "gauss.kl_gaussian"),
    ("pmdag.experiment.interventional_dist", "identify.interventional_dist"),
    ("pmdag.experiment.divergence", "identify.divergence"),
    ("pmdag.experiment.save_trace_csv", "experiment.io"),
    ("pmdag.experiment.ground_truth", "generate.ground_truth"),
    ("pmdag.graph.StructuralParams.from_edge_dict", "graph.params"),
    ("pmdag.graph.StructuralParams.to_edge_dict", "graph.params"),
]
# (wrapped name, layer) for call-level boundaries: one span per call.
SPANS = [
    ("pmdag.solver.fit", "solver.fit"),
    ("pmdag.experiment.fit", "solver.fit"),
    ("pmdag.experiment.run_experiment", "experiment.run"),
]
# Wrapped while the benchmark builds its inputs.
SETUP = [
    ("pmdag.generate.random_pmdag", "generate.random_pmdag"),
    ("pmdag.generate.ground_truth", "generate.ground_truth"),
]


def layered_flops(sync, engine: str) -> tuple[int, int]:
    """Dense-equivalent flops (2 per multiply-add) of one forward and one backward."""
    n = [len(layer) for layer in sync.layers]
    fwd = bwd = 0
    if engine == "covariance":
        for l in range(1, len(n)):
            a, b = n[l - 1], n[l]
            fwd += 2 * a * a * b + 2 * a * b * b  # Sigma W, then W^T Lambda
            bwd += 2 * a * b * b  # Lambda G
            if l > 1:
                bwd += 2 * a * b * b + 2 * a * a * b  # W G W^T
    else:
        n0 = n[0]
        for l in range(1, len(n)):
            a, b = n[l - 1], n[l]
            fwd += 2 * n0 * a * b  # A W
            bwd += 2 * a * n0 * b  # A^T Omega
            if l > 1:
                bwd += 2 * n0 * b * a  # Omega W^T
        fwd += 2 * n0 * n[-1] * n[-1]  # A^T A
        bwd += 2 * n0 * n[-1] * n[-1]  # A Gseed
    return fwd, bwd


class Installation:
    """Wraps the library for one traced pass and keeps the per-call side counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.layers = set()
        self.flops = {e: 0 for e in ("covariance", "accumulation")}
        self._flop_cache = {}  # id(sync) -> (sync, engine -> (fwd, bwd))
        self.depth = 0
        self.max_width = 0
        self.stack_entries = 0
        solver = importlib.import_module("pmdag.solver")
        self._entry_count = getattr(solver, "layered_entry_count", None)

        for target, layer in AGGREGATED:
            post = None
            engine = layer.rpartition(".")[2]
            if engine in self.flops:
                post = self._flop_post(engine, forward=".forward." in layer)
            elif layer == "sync.synchronize":
                post = self._sync_post
            if tracer.wrap(target, layer, post=post):
                self.layers.add(layer)
        for target, layer in SPANS:
            post = self._fit_post if layer == "solver.fit" else None
            if tracer.wrap(target, layer, span=True, post=post):
                self.layers.add(layer)

    def _flop_post(self, engine, forward):
        index = 0 if forward else 1

        def post(args, _result):
            if not args:
                return
            sync = args[0]
            entry = self._flop_cache.get(id(sync))
            if entry is None or entry[0] is not sync:
                entry = self._flop_cache[id(sync)] = (sync, {})
            counts = entry[1].get(engine)
            if counts is None:
                counts = entry[1][engine] = layered_flops(sync, engine)
            self.flops[engine] += counts[index]

        return post

    def _sync_post(self, _args, sync):
        self.depth = max(self.depth, sync.depth)
        self.max_width = max(self.max_width, max(len(layer) for layer in sync.layers))
        if self._entry_count is not None:
            self.stack_entries = max(self.stack_entries, self._entry_count(sync))

    @staticmethod
    def _fit_post(span, _args, result):
        report = result[1]
        span.info.update(method=report.method, restarts_used=report.restarts_used,
                         converged=report.converged)


def _iterations(span) -> int:
    """Iterations a fit ran, over all its restarts: one engine forward each."""
    return sum(c[0] for k, c in span.by_layer.items() if k.startswith("solver.forward."))


def _per_iter_us(fits) -> float:
    n = sum(_iterations(s) for s in fits)
    return sum(s.duration for s in fits) / n * 1e6 if n else 0.0


def compute(tr, inst: Installation, setup_tr, outcomes, base_wall, traced_wall,
            one_thread, reduced_peak):
    """Per-layer metrics as {name: (value, unit)}, and {name: reason} for absent ones."""
    metrics = {}
    absent = {}

    def put(name, value, unit, *sources):
        metrics[name] = (value, unit)
        if sources and not any(src in inst.layers or src in setup_tr.agg for src in sources):
            absent[name] = "no wrappable function for " + ", ".join(sources)

    def calls(layer):
        return tr.agg.get(layer, (0, 0.0, 0.0))[0]

    def self_s(*layers):
        return sum(tr.agg.get(layer, (0, 0.0, 0.0))[2] for layer in layers)

    fits = tr.spans_of("solver.fit")
    fit_s = sum(s.duration for s in fits)
    n_iter = sum(_iterations(s) for s in fits)
    put("solver.fit_s", fit_s, "s", "solver.fit")
    put("solver.fit_calls", len(fits), "count", "solver.fit")
    put("solver.iterations", n_iter, "count", "solver.fit")
    put("solver.us_per_iter", _per_iter_us(fits), "us", "solver.fit")
    put("solver.restarts_used", sum(s.info.get("restarts_used", 0) for s in fits), "count",
        "solver.fit")
    put("solver.converged_ratio",
        sum(bool(s.info.get("converged")) for s in fits) / len(fits) if fits else 0.0, "1",
        "solver.fit")

    forward = [f"solver.forward.{e}" for e in ENGINES]
    backward = [f"solver.backward.{e}" for e in ENGINES]
    put("solver.forward_s", self_s(*forward), "s", *forward)
    put("solver.backward_s", self_s(*backward), "s", *backward)
    for engine in ENGINES:
        put(f"solver.us_per_iter.{engine}",
            _per_iter_us([s for s in fits if s.info.get("method") == engine]), "us", "solver.fit")
    for label in SIZED_LABELS:
        put(f"solver.us_per_iter.{label}",
            _per_iter_us([s for s in fits if s.unit and s.unit[1] == label]), "us", "solver.fit")
    for engine, flops in inst.flops.items():
        seconds = self_s(f"solver.forward.{engine}", f"solver.backward.{engine}")
        put(f"solver.gflops.{engine}", flops / seconds / 1e9 if seconds else 0.0, "GFLOP/s",
            f"solver.forward.{engine}")
    put("solver.stack_kib", inst.stack_entries * 8 / 1024, "KiB", "sync.synchronize")
    put("solver.reduced_peak_entries", reduced_peak or 0, "count")
    if reduced_peak is None:
        absent["solver.reduced_peak_entries"] = "no reduced fits here, or no AllocationCounter"
    put("solver.step_s", self_s("solver.step"), "s", "solver.step")
    put("solver.glue_s", sum(s.self_s for s in fits), "s", "solver.fit")
    put("solver.extract_params_s", self_s("solver.extract_params"), "s", "solver.extract_params")
    put("solver.extract_params_calls", calls("solver.extract_params"), "count",
        "solver.extract_params")
    put("solver.joint_cov_s", self_s("solver.joint_cov"), "s", "solver.joint_cov")
    for engine in ENGINES:
        value = one_thread.get(engine) if one_thread else None
        put(f"solver.us_per_iter_1t.{engine}", value or 0.0, "us")
        if value is None:
            absent[f"solver.us_per_iter_1t.{engine}"] = "measured on random-fit only"

    put("gauss.spd_factor_s", self_s("gauss.spd_factor"), "s", "gauss.spd_factor")
    put("gauss.spd_factor_calls", calls("gauss.spd_factor"), "count", "gauss.spd_factor")
    put("gauss.kl_gaussian_s", self_s("gauss.kl_gaussian"), "s", "gauss.kl_gaussian")
    put("gauss.kl_gaussian_calls", calls("gauss.kl_gaussian"), "count", "gauss.kl_gaussian")

    put("graph.mutilate_s", self_s("graph.mutilate"), "s", "graph.mutilate")
    put("graph.params_s", self_s("graph.params"), "s", "graph.params")
    put("graph.params_calls", calls("graph.params"), "count", "graph.params")

    put("sync.synchronize_s", self_s("sync.synchronize"), "s", "sync.synchronize")
    put("sync.build_masks_s", self_s("sync.build_masks"), "s", "sync.build_masks")
    put("sync.depth", inst.depth, "count", "sync.synchronize")
    put("sync.max_width", inst.max_width, "count", "sync.synchronize")

    verdicts = tr.spans_of("identify.verdict")
    verdict_ids = {s.id for s in verdicts}
    verdict_fits = [s for s in fits if s.parent in verdict_ids]
    verdict_s = sum(s.duration for s in verdicts)
    put("identify.verdict_s", verdict_s, "s")
    put("identify.self_s", verdict_s - sum(s.duration for s in verdict_fits), "s", "solver.fit")
    put("identify.fits_per_verdict", len(verdict_fits) / len(verdicts) if verdicts else 0.0,
        "count", "solver.fit")
    fits_run = sum(o.extra.get("fits_run", 0) for o in outcomes)
    useful = sum(o.extra.get("useful_fits", 0) for o in outcomes)
    put("identify.useful_fit_ratio", useful / fits_run if fits_run else 0.0, "1")
    put("identify.interventional_dist_s", self_s("identify.interventional_dist"), "s",
        "identify.interventional_dist")
    put("identify.check_fit_s", self_s("identify.check_fit"), "s", "identify.check_fit")
    put("identify.divergence_s", self_s("identify.divergence"), "s", "identify.divergence")

    runs = tr.spans_of("experiment.run")
    run_ids = {s.id for s in runs}
    hooked = [s for s in fits if s.parent in run_ids]
    do_points = sum(s.by_layer.get("identify.interventional_dist", (0, 0.0))[0] for s in hooked)
    extracts = sum(s.by_layer.get("solver.extract_params", (0, 0.0))[0] for s in hooked)
    put("experiment.run_s", sum(s.duration for s in runs), "s", "experiment.run")
    put("experiment.self_s", sum(s.self_s for s in runs), "s", "experiment.run")
    put("experiment.do_points", do_points, "count", "identify.interventional_dist")
    put("experiment.hook_useful_ratio", do_points / extracts if extracts else 0.0, "1",
        "solver.extract_params")
    put("experiment.io_s", self_s("experiment.io"), "s", "experiment.io")
    put("experiment.bytes_written", sum(o.extra.get("bytes_written", 0) for o in outcomes), "B")

    def generate_s(layer):
        return sum(t.agg.get(layer, (0, 0.0, 0.0))[1] for t in (setup_tr, tr))

    put("generate.random_pmdag_s", generate_s("generate.random_pmdag"), "s",
        "generate.random_pmdag")
    put("generate.ground_truth_s", generate_s("generate.ground_truth"), "s",
        "generate.ground_truth")
    put("cli.self_s", sum(s.self_s for s in tr.spans_of("cli.main")), "s")

    put("trace.overhead_ratio", traced_wall / base_wall - 1.0, "1")
    put("trace.self_sum_error", max((abs(s.self_s + sum(c[1] for c in s.by_layer.values())
                                         - s.duration) / s.duration for s in fits),
                                    default=0.0), "1", "solver.fit")
    return metrics, absent
