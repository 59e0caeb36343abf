"""Command-line interface.

Subcommands: cluster (fit one method to a CSV), simulate (emit mixture data),
ampute (hide entries of a complete CSV), benchmark (run a scenario grid from a
config file), evaluate (score two label files). All randomness hangs off
--seed, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .baselines import delete_cluster, mean_impute_cluster
from .benchmark import METHODS, ScenarioGrid, run_benchmark, summary_path_for, write_report
from .csv_io import (DEFAULT_MISSING_TOKEN, format_cell, read_labels_csv, read_masked_csv,
                     write_csv, write_labels_csv, write_masked_csv)
from .errors import KPodError
from .evaluation import adjusted_rand_index, rand_index
from .kmeans import EngineSettings
from .masked import MaskedMatrix, standardize
from .missingness import Mechanism, MechanismSpec, MixtureSpec, ampute, simulate_mixture
from .mm import KPodConfig, kpod_fit


def _cmd_cluster(args) -> int:
    x, labels = read_masked_csv(args.input, missing_token=args.missing_token,
                                label_column=args.label_column)
    if not args.no_standardize:
        x, _ = standardize(x)
    engine = EngineSettings(max_iter=args.max_iter, tol=args.tol, n_init=args.n_init)

    kept = list(range(x.n_cols))
    if args.method == "kpod":
        cfg = KPodConfig(k=args.k, seed=args.seed, max_mm_iter=args.max_mm_iter,
                         mm_tol=args.mm_tol, inner=engine)
        fit = kpod_fit(x, cfg)
        assignment, centers, trace = fit.assignment, fit.centroids.centers, fit.observed_objective_trace
        print(f"kpod: {fit.mm_iterations} fill/cluster iterations, "
              f"observed objective {format_cell(trace[-1])}")
    elif args.method == "mean_impute":
        fit = mean_impute_cluster(x, args.k, seed=args.seed, engine=engine)
        assignment, centers, trace = fit.assignment, fit.centroids.centers, [fit.objective]
        print(f"mean_impute: objective {format_cell(fit.objective)} in {fit.iterations} sweeps")
    else:
        fit, kept = delete_cluster(x, args.k, seed=args.seed, engine=engine)
        assignment, centers, trace = fit.assignment, fit.centroids.centers, [fit.objective]
        print(f"delete: kept columns {kept}, objective {format_cell(fit.objective)}")

    prefix = args.output
    write_labels_csv(assignment, f"{prefix}_assignment.csv")
    write_csv(f"{prefix}_centroids.csv", [f"x{j}" for j in kept], centers.tolist())
    write_csv(f"{prefix}_trace.csv", ["objective"], ([value] for value in trace))
    if labels is not None:
        print(f"rand={format_cell(rand_index(labels, assignment))} "
              f"adjusted_rand={format_cell(adjusted_rand_index(labels, assignment))}")
    return 0


def _cmd_simulate(args) -> int:
    spec = MixtureSpec(n=args.n, p=args.p, k=args.k, center_sd=args.center_sd,
                       noise_variance=args.noise_variance, seed=args.seed)
    values, labels = simulate_mixture(spec)
    write_masked_csv(MaskedMatrix(values=values, observed=np.ones(values.shape, dtype=bool)),
                     args.output)
    if args.labels:
        write_labels_csv(labels, args.labels)
    print(f"wrote {args.n}x{args.p} mixture with k={args.k} to {args.output}")
    return 0


def _cmd_ampute(args) -> int:
    x, _ = read_masked_csv(args.input, missing_token=args.missing_token)
    if not x.complete():
        raise KPodError(f"{args.input} already contains missing entries")
    mar_columns = None
    if args.mar_columns:
        mar_columns = tuple(int(c) for c in args.mar_columns.split(","))
    spec = MechanismSpec(kind=Mechanism.parse(args.mechanism), target_rate=args.rate,
                         mar_columns=mar_columns, seed=args.seed)
    masked = ampute(x.values, spec)
    write_masked_csv(masked, args.output, missing_token=args.missing_token)
    print(f"achieved missingness {format_cell(1.0 - masked.observed_fraction)} -> {args.output}")
    return 0


def _cmd_benchmark(args) -> int:
    grid = ScenarioGrid.from_json(args.config)
    if args.trials is not None:
        from dataclasses import replace
        grid = replace(grid, trials=args.trials)
    rows = run_benchmark(grid, workers=args.workers, measure_time=not args.no_timing)
    write_report(rows, args.output)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"{len(rows)} runs ({ok} ok) -> {args.output} and {summary_path_for(args.output)}")
    return 0


def _cmd_evaluate(args) -> int:
    truth = read_labels_csv(args.truth)
    predicted = read_labels_csv(args.predicted)
    print(f"rand={format_cell(rand_index(truth, predicted))}")
    print(f"adjusted_rand={format_cell(adjusted_rand_index(truth, predicted))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpod",
        description="k-means clustering of partially observed data, plus "
                    "amputation and benchmark tooling",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster a (possibly masked) CSV")
    cluster.add_argument("--input", required=True)
    cluster.add_argument("--output", required=True, help="prefix for the output files")
    cluster.add_argument("--method", choices=METHODS, default="kpod")
    cluster.add_argument("--k", type=int, required=True)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN)
    cluster.add_argument("--label-column", default=None)
    cluster.add_argument("--no-standardize", action="store_true",
                         help="cluster on the raw scale")
    cluster.add_argument("--max-mm-iter", type=int, default=KPodConfig.max_mm_iter)
    cluster.add_argument("--mm-tol", type=float, default=KPodConfig.mm_tol)
    cluster.add_argument("--max-iter", type=int, default=EngineSettings.max_iter,
                         help="inner k-means sweeps")
    cluster.add_argument("--tol", type=float, default=EngineSettings.tol,
                         help="inner k-means tolerance")
    cluster.add_argument("--n-init", type=int, default=EngineSettings.n_init,
                         help="seeding restarts")
    cluster.set_defaults(func=_cmd_cluster)

    simulate = sub.add_parser("simulate", help="emit a Gaussian-mixture dataset")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--p", type=int, required=True)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--center-sd", type=float, default=MixtureSpec.center_sd)
    simulate.add_argument("--noise-variance", type=float, default=MixtureSpec.noise_variance)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--output", required=True)
    simulate.add_argument("--labels", default=None, help="where to write the true labels")
    simulate.set_defaults(func=_cmd_simulate)

    amp = sub.add_parser("ampute", help="hide entries of a complete CSV")
    amp.add_argument("--input", required=True)
    amp.add_argument("--output", required=True)
    amp.add_argument("--mechanism", required=True, help="mcar, mar, or nmar")
    amp.add_argument("--rate", type=float, required=True)
    amp.add_argument("--mar-columns", default=None, help="comma-separated column indices")
    amp.add_argument("--seed", type=int, default=0)
    amp.add_argument("--missing-token", default=DEFAULT_MISSING_TOKEN)
    amp.set_defaults(func=_cmd_ampute)

    bench = sub.add_parser("benchmark", help="run a scenario grid from a config file")
    bench.add_argument("--config", required=True, help="JSON grid description")
    bench.add_argument("--output", required=True, help="report CSV path")
    bench.add_argument("--trials", type=int, default=None, help="override config trials")
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--no-timing", action="store_true",
                       help="write seconds as 0.0 for byte-reproducible reports")
    bench.set_defaults(func=_cmd_benchmark)

    ev = sub.add_parser("evaluate", help="agreement between two label CSVs")
    ev.add_argument("truth")
    ev.add_argument("predicted")
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KPodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
