"""Command-line interface.

Exit codes: 0 success, 1 validation, input or usage error, 2 target not
inducible, 3 effect not identifiable.  ``--seed`` defaults to 0.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from pmdag import bench as bench_mod
from pmdag import experiment as experiment_mod
from pmdag.gauss import GaussError, load_cov_csv, save_cov_csv
from pmdag.generate import GenSpec, canonical, canonical_names, ground_truth, random_pmdag
from pmdag.graph import GraphError, load_graph, read_json, save_graph, validate, write_json
from pmdag.identify import (
    NOT_IDENTIFIABLE,
    NOT_INDUCIBLE,
    IdentifyError,
    InterventionQuery,
    identify,
)
from pmdag.solver import (
    LOSSES,
    METHODS,
    OPTIMIZERS,
    FitConfig,
    SolverError,
    fit,
    fit_result_dict,
    save_trace_csv,
)
from pmdag.sync import build_masks, synchronize

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_INDUCIBLE = 2
EXIT_NOT_IDENTIFIABLE = 3

METHOD_ALIASES = {"cov": "covariance", "acc": "accumulation", **{m: m for m in METHODS}}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2 (``EXIT_NOT_INDUCIBLE``)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    # defaults are read from FitConfig, their one home
    p.add_argument("--loss", choices=LOSSES, default=FitConfig.loss)
    p.add_argument("--method", choices=sorted(METHOD_ALIASES), default=FitConfig.method)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=FitConfig.optimizer)
    p.add_argument("--lr", type=float, default=FitConfig.lr)
    p.add_argument("--epochs", type=int, default=FitConfig.max_iters, help="maximum iterations")
    p.add_argument("--eps", type=float, default=FitConfig.min_improvement,
                   help="minimum loss improvement")
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--kl-tol", type=float, default=FitConfig.kl_tol)


def _fit_config(args) -> FitConfig:
    return FitConfig(
        loss=args.loss,
        method=METHOD_ALIASES[args.method],
        optimizer=args.optimizer,
        lr=args.lr,
        max_iters=args.epochs,
        min_improvement=args.eps,
        seed=args.seed,
        restarts=args.restarts,
        kl_tol=args.kl_tol,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pmdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph JSON file")
    p.add_argument("graph")
    p.add_argument("--strict", action="store_true", help="require every latent to be a root")

    p = sub.add_parser("sync", help="print the layered form of a graph")
    p.add_argument("graph")
    p.add_argument("--dot", help="also write the layered drawing as DOT")
    p.add_argument("--masks", action="store_true", help="print the per-layer masks")

    p = sub.add_parser("gen", help="generate a random graph")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--lstar", type=float, default=GenSpec.l_star)
    p.add_argument("--estar", type=float, default=GenSpec.e_star)
    p.add_argument("--seed", type=int, default=GenSpec.seed)
    p.add_argument("-o", "--output", help="write graph JSON here (default stdout)")

    p = sub.add_parser("canon", help="emit one of the canonical benchmark graphs")
    p.add_argument("name", help="one of: " + ", ".join(canonical_names()))
    p.add_argument("-o", "--output")
    p.add_argument("--ground-truth-seed", type=int, default=None,
                   help="also write <output>.cov.csv with an exact ground-truth covariance")

    p = sub.add_parser("fit", help="fit a graph to a covariance CSV")
    p.add_argument("graph")
    p.add_argument("cov")
    _add_fit_flags(p)
    p.add_argument("-o", "--output", help="write the fit result JSON here (default stdout)")
    p.add_argument("--trace", help="write the loss trace CSV here")

    p = sub.add_parser("identify", help="probe effect identifiability by repeated fits")
    p.add_argument("graph")
    p.add_argument("cov")
    p.add_argument("--do", action="append", required=True, metavar="NODE=VALUE",
                   help="intervention assignment; repeatable")
    p.add_argument("--effect", action="append", required=True, help="effect node; repeatable")
    probe = inspect.signature(identify).parameters  # the one home of these defaults
    p.add_argument("--iters", type=int, default=probe["iters"].default)
    p.add_argument("--tol-id", type=float, default=probe["tol_id"].default)
    _add_fit_flags(p)
    p.add_argument("-o", "--output", help="write the verdict JSON here (default stdout)")

    p = sub.add_parser("bench", help="time forward/backward phases on random graphs")
    p.add_argument("--v", default="16,32", help="comma-separated visible counts")
    p.add_argument("--lstar", default="0,0.5")
    p.add_argument("--estar", default="0,0.5,1.0")
    timing = inspect.signature(bench_mod.bench).parameters
    p.add_argument("--methods", default=",".join(timing["methods"].default))
    p.add_argument("--reps", type=int, default=timing["repetitions"].default)
    p.add_argument("--seed", type=int, default=timing["seed"].default)
    p.add_argument("-o", "--output", required=True, help="CSV output path")

    p = sub.add_parser("experiment", help="run a serialized experiment JSON")
    p.add_argument("spec", help="experiment JSON file")
    p.add_argument("-o", "--outdir", required=True)

    return parser


def _cmd_validate(args) -> int:
    g = load_graph(args.graph)
    validate(g.nodes, g.edges, strict=args.strict)
    print(f"ok: {len(g.nodes)} nodes, {len(g.edges)} edges, "
          f"{len(g.visible_names)} visible, strict={g.is_strict}")
    return EXIT_OK


def _cmd_sync(args) -> int:
    g = load_graph(args.graph)
    sync = synchronize(g)
    print(sync.describe())
    if args.masks:
        masks = build_masks(sync)
        for l, (mask, const) in enumerate(zip(masks.trainable, masks.constants), start=1):
            print(f"layer {l} trainable ({mask.shape[0]}x{mask.shape[1]}):")
            for row in mask.astype(int):
                print("  " + " ".join(str(x) for x in row))
            print(f"layer {l} constants:")
            for row in const.astype(int):
                print("  " + " ".join(str(x) for x in row))
        print(f"trainable entries: {masks.n_trainable}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(sync.to_dot() + "\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = random_pmdag(GenSpec(v=args.v, l_star=args.lstar, e_star=args.estar, seed=args.seed))
    save_graph(g, args.output)
    if args.output:
        print(f"wrote {args.output}: {len(g.nodes)} nodes, {len(g.edges)} edges")
    return EXIT_OK


def _cmd_canon(args) -> int:
    if args.ground_truth_seed is not None and not args.output:
        raise ValueError("--ground-truth-seed needs -o/--output: the covariance is written to "
                         "<output>.cov.csv")
    g = canonical(args.name)
    # the ground truth is built first, so a rejected seed leaves no file behind
    cov = None if args.ground_truth_seed is None else ground_truth(g, args.ground_truth_seed)[1]
    save_graph(g, args.output)
    if args.output:
        print(f"wrote {args.output}")
    if cov is not None:
        save_cov_csv(cov, args.output + ".cov.csv")
        print(f"wrote {args.output}.cov.csv")
    return EXIT_OK


def _cmd_fit(args) -> int:
    g = load_graph(args.graph)
    target = load_cov_csv(args.cov)
    config = _fit_config(args)
    params, report = fit(g, target, config)
    if args.trace:
        save_trace_csv(report, args.trace)
    write_json(fit_result_dict(g, params, report), args.output)
    return EXIT_OK


def _parse_do(items) -> tuple[tuple[str, ...], tuple[float, ...]]:
    targets, values = [], []
    for item in items:
        if "=" not in item:
            raise GraphError(f"--do expects NODE=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            values.append(float(value))
        except ValueError:
            raise GraphError(f"--do expects a numeric VALUE, got {item!r}") from None
        targets.append(name.strip())
    return tuple(targets), tuple(values)


def _cmd_identify(args) -> int:
    g = load_graph(args.graph)
    target = load_cov_csv(args.cov)
    config = _fit_config(args)
    targets, values = _parse_do(args.do)
    query = InterventionQuery(targets, values, tuple(args.effect))
    verdict = identify(g, target, query, config, iters=args.iters, tol_id=args.tol_id)
    write_json(verdict.to_dict(), args.output)
    if verdict.outcome == NOT_INDUCIBLE:
        return EXIT_NOT_INDUCIBLE
    if verdict.outcome == NOT_IDENTIFIABLE:
        return EXIT_NOT_IDENTIFIABLE
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = bench_mod.bench(
        v_values=[int(x) for x in args.v.split(",")],
        l_stars=[float(x) for x in args.lstar.split(",")],
        e_stars=[float(x) for x in args.estar.split(",")],
        methods=[METHOD_ALIASES.get(m.strip(), m.strip()) for m in args.methods.split(",")],
        repetitions=args.reps,
        seed=args.seed,
    )
    bench_mod.write_bench_csv(rows, args.output)
    print(f"wrote {args.output}: {len(rows)} rows")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    exp = experiment_mod.Experiment.from_dict(read_json(args.spec, experiment_mod.SpecError, "experiment spec"))
    summary = experiment_mod.run_experiment(exp, args.outdir)
    print(f"wrote {args.outdir}: {summary['converged_count']}/{len(summary['repetitions'])} "
          f"repetitions converged")
    return EXIT_OK


COMMANDS = {
    "validate": _cmd_validate,
    "sync": _cmd_sync,
    "gen": _cmd_gen,
    "canon": _cmd_canon,
    "fit": _cmd_fit,
    "identify": _cmd_identify,
    "bench": _cmd_bench,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (GraphError, GaussError, SolverError, IdentifyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
