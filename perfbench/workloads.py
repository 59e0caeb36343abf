"""The four kpod workloads.

Each workload is a closed loop: one process, one caller, and each call starts
after the previous one returns. ``setup`` builds the inputs from the workload
seed. ``measure`` runs the loop untraced until at least the given number of
seconds has passed, and always finishes the repeat it is in. ``traced`` then
runs one fixed repeat of the same work under a Tracer, so its counts are the
same on every run with the same seed.

Every fit a workload gets back is checked: the observed-objective trace never
rises by more than 1e-9 of its first value, and labels lie in ``[0, k)``.
Repeats of the same input must give the same result, traced or not.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

import numpy as np

from kpod import baselines, benchmark, cli, evaluation, masked, missingness, mm
from kpod.errors import KPodError
from kpod.kmeans import EngineSettings
from kpod.missingness import Mechanism, MechanismSpec, MixtureSpec
from kpod.mm import KPodConfig

from tracing import Tracer, layer_metrics

# Lloyd sweeps per k-means solve in every workload. With a cap of two, every
# solve runs exactly two: the first sweep cannot stop a solve.
FIXED_SWEEPS = 2


class Checks:
    """Operations attempted, and the problems found in those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {problem}" for problem in problems)

    def crashed(self, what: str, exc: Exception) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self.record(what, [f"raised {type(exc).__name__}: {exc}"])


class CheckFailed(KPodError):
    """A method returned a result that breaks an invariant the benchmark checks."""


def label_problems(labels, n: int, k: int) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels have shape {labels.shape}, expected ({n},)"]
    if n and (labels.min() < 0 or labels.max() >= k):
        return [f"labels outside [0, {k})"]
    return []


def fit_problems(fit, n: int, k: int) -> list[str]:
    problems = label_problems(fit.assignment.labels, n, k)
    trace = fit.observed_objective_trace
    slack = 1e-9 * trace[0]
    rise = max((b - a for a, b in zip(trace, trace[1:])), default=0.0)
    if rise > slack:
        problems.append(f"observed objective rose by {rise!r}, allowed {slack!r}")
    return problems


def _raise_if(problems: list[str]) -> None:
    if problems:
        raise CheckFailed("; ".join(problems))


class CheckedMethods:
    """Stand-ins for the clustering methods at a caller's call sites.

    Each calls the method through the module that defines it, so a Tracer
    installed afterwards still sees the call, and raises CheckFailed (a
    KPodError, which callers report as a failed run) when the result breaks
    an invariant. kpod_fit calls are timed.
    """

    NAMES = ("kpod_fit", "mean_impute_cluster", "delete_cluster")

    def __init__(self):
        self.fit_seconds: list[float] = []

    def kpod_fit(self, x, cfg):
        start = time.perf_counter()
        fit = mm.kpod_fit(x, cfg)
        self.fit_seconds.append(time.perf_counter() - start)
        _raise_if(fit_problems(fit, x.n_rows, cfg.k))
        return fit

    def mean_impute_cluster(self, x, k, *args, **kwargs):
        result = baselines.mean_impute_cluster(x, k, *args, **kwargs)
        _raise_if(label_problems(result.assignment.labels, x.n_rows, k))
        return result

    def delete_cluster(self, x, k, *args, **kwargs):
        result, kept = baselines.delete_cluster(x, k, *args, **kwargs)
        _raise_if(label_problems(result.assignment.labels, x.n_rows, k))
        return result, kept

    @contextmanager
    def installed(self, module):
        saved = {name: getattr(module, name) for name in self.NAMES}
        try:
            for name in self.NAMES:
                setattr(module, name, getattr(self, name))
            yield self
        finally:
            for name, value in saved.items():
                setattr(module, name, value)


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mib(with_children: bool = False) -> float:
    """Peak resident set of this process, plus the largest child's if asked (Linux KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def sub_seeds(seed: int, *path: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, *path]).generate_state(count)]


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


@dataclass
class Measured:
    """What the untraced loop of one run produced."""

    metrics: dict
    counts: dict  # deterministic for a given seed
    samples: dict  # how many timed calls the metrics rest on
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitWorkload:
    """One kpod_fit per call, round-robin over ``datasets`` standardized mixtures.

    Every fit does the same work: exactly ``rounds`` MM rounds (the tolerance
    is too small to end these fits earlier) and two Lloyd sweeps per k-means
    solve. With the default settings the number of rounds and sweeps a fit
    needs varies several-fold from one dataset to the next, which would swamp
    the cost of a round in any comparison across seeds.
    """

    name: str
    n: int
    p: int
    k: int
    mechanism: Mechanism
    rate: float
    datasets: int
    rounds: int

    def config(self, seed: int) -> KPodConfig:
        return KPodConfig(k=self.k, seed=seed, max_mm_iter=self.rounds, mm_tol=1e-15,
                          inner=EngineSettings(max_iter=FIXED_SWEEPS))

    def setup(self, seed: int):
        inputs = []
        for d in range(self.datasets):
            data_seed, mask_seed, fit_seed = sub_seeds(seed, d, count=3)
            values, truth = missingness.simulate_mixture(
                MixtureSpec(n=self.n, p=self.p, k=self.k, seed=data_seed))
            x = missingness.ampute(
                values, MechanismSpec(kind=self.mechanism, target_rate=self.rate, seed=mask_seed))
            x, _ = masked.standardize(x)
            inputs.append((x, truth, self.config(fit_seed)))
        return inputs

    def _fit(self, method: CheckedMethods, d: int, x, cfg, checks: Checks, first: dict):
        """Fit input ``d``; the first result per input is kept, later ones must match it."""
        what = f"fit of input {d}"
        try:
            fit = method.kpod_fit(x, cfg)
        except CheckFailed as exc:
            checks.record(what, [str(exc)])
            return None
        except Exception as exc:  # a failed fit is counted, and the loop goes on
            checks.crashed(what, exc)
            return None
        outcome = (fit.mm_iterations, digest(fit.assignment.labels.tobytes()),
                   fit.observed_objective_trace[-1])
        first.setdefault(d, (outcome, fit.assignment))
        same = first[d][0] == outcome
        checks.record(what, [] if same else [f"result {outcome} differs from {first[d][0]}"])
        return fit

    def measure(self, inputs, seconds: float, checks: Checks) -> Measured:
        """Fit the inputs round-robin until ``seconds`` have passed and each was fitted once."""
        method = CheckedMethods()
        first: dict = {}
        per_input: list[list[float]] = [[] for _ in inputs]
        start = time.perf_counter()
        for call in itertools.count():
            d = call % len(inputs)
            x, _, cfg = inputs[d]
            if self._fit(method, d, x, cfg, checks, first) is not None:
                per_input[d].append(method.fit_seconds[-1])
            if call + 1 >= len(inputs) and time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        fit_s = method.fit_seconds
        rands = [evaluation.rand_index(inputs[d][1], first[d][1]) for d in sorted(first)]
        return Measured(
            metrics={
                "fit_s_p50": p50(fit_s),
                "run_s_p50": p50(fit_s),
                "run_s_p90": p90(fit_s),
                "runs_per_s": len(fit_s) / wall,
                "pipeline_s": sum(p50(times) for times in per_input),
                "peak_rss_mb": peak_rss_mib(),
                "rand_mean": statistics.fmean(rands),
            },
            counts={
                "mm.rounds": sum(first[d][0][0] for d in first),
                "labels": digest(*(first[d][0][1].encode() for d in sorted(first))),
                "rand_mean": statistics.fmean(rands),
            },
            samples={"fits": len(fit_s)},
            detail={"first": first, "per_input": per_input},
        )

    def traced(self, seed: int, measured: Measured, checks: Checks) -> dict:
        method = CheckedMethods()
        tracer = Tracer()
        with tracer.installed():
            start = time.perf_counter()
            inputs = self.setup(seed)
            for d, (x, truth, cfg) in enumerate(inputs):
                fit = self._fit(method, d, x, cfg, checks, measured.detail["first"])
                if fit is not None:
                    evaluation.rand_index(truth, fit.assignment)
            wall = time.perf_counter() - start
        layers = layer_metrics(tracer.spans, wall)
        untraced = sum(p50(times) for times in measured.detail["per_input"] if times)
        layers["trace.overhead_s"] = sum(method.fit_seconds) - untraced
        return layers


@dataclass(frozen=True)
class CampaignWorkload:
    """``run_benchmark`` over a small grid, repeated; every repeat must give the same report.

    Fits do fixed work, as in FitWorkload: with default settings a few NMAR
    fits of hundreds of rounds set the cost of a campaign, and their number
    varies from seed to seed.
    """

    name: str
    workers: int

    def setup(self, seed: int):
        mechanisms = (
            MechanismSpec(kind=Mechanism.MCAR, target_rate=0.5),
            MechanismSpec(kind=Mechanism.MAR, target_rate=0.5, mar_columns=tuple(range(20))),
            MechanismSpec(kind=Mechanism.NMAR, target_rate=0.5),
        )
        return benchmark.ScenarioGrid(
            dataset=MixtureSpec(n=200, p=40, k=5), k=5, mechanisms=mechanisms,
            rates=(0.2, 0.4), methods=benchmark.METHODS, trials=10,
            base_seed=sub_seeds(seed, count=1)[0],
            engine=EngineSettings(max_iter=FIXED_SWEEPS), max_mm_iter=40, mm_tol=1e-15,
        )

    @staticmethod
    def _check(rows, reference, checks: Checks) -> list:
        for row in rows:
            what = f"{row.mechanism}@{row.target_rate} {row.method} trial {row.trial}"
            if row.status == "ok":
                problems = [] if 0.0 <= row.rand <= 1.0 else [f"rand {row.rand!r}"]
            elif row.status == "infeasible":  # deletion with no complete column: a valid outcome
                problems = []
            else:
                problems = [f"status {row.status}"]
            checks.record(what, problems)
        signature = [replace(row, seconds=None) for row in rows]
        if reference is not None and signature != reference:
            checks.record("campaign repeat", ["report differs from the first campaign's"])
        return signature

    def _campaign(self, grid, workers: int):
        start = time.perf_counter()
        rows = benchmark.run_benchmark(grid, workers=workers)
        return rows, time.perf_counter() - start

    def measure(self, grid, seconds: float, checks: Checks) -> Measured:
        if self.workers > 1 and multiprocessing.get_start_method() != "fork":
            # The checks reach the worker processes only through fork.
            raise RuntimeError("campaign_small needs the fork start method")
        method = CheckedMethods()
        walls, rows_all = [], []
        with method.installed(benchmark):
            start = time.perf_counter()
            while True:
                rows, wall = self._campaign(grid, self.workers)
                if walls:
                    self._check(rows, reference, checks)
                else:
                    first, reference = rows, self._check(rows, None, checks)
                walls.append(wall)
                rows_all.extend(rows)
                if time.perf_counter() - start >= seconds:
                    break
        ok = [row for row in rows_all if row.status == "ok"]
        first_kpod = [row for row in first if row.status == "ok" and row.method == "kpod"]
        rand_mean = statistics.fmean(row.rand for row in first_kpod)
        return Measured(
            metrics={
                "fit_s_p50": p50([row.seconds for row in ok if row.method == "kpod"]),
                "run_s_p50": p50([row.seconds for row in ok]),
                "run_s_p90": p90([row.seconds for row in ok]),
                "runs_per_s": len(rows_all) / sum(walls),
                "pipeline_s": p50(walls),
                "peak_rss_mb": peak_rss_mib(with_children=self.workers > 1),
                "rand_mean": rand_mean,
            },
            counts={
                "runs": len(rows),
                "mm.rounds": sum(row.mm_iterations for row in first_kpod),
                "report": digest(repr(reference).encode()),
                "rand_mean": rand_mean,
            },
            samples={"campaigns": len(walls), "ok_runs": len(ok),
                     "kpod_runs": sum(row.method == "kpod" for row in ok)},
            detail={"reference": reference, "walls": walls},
        )

    def traced(self, seed: int, measured: Measured, checks: Checks) -> dict:
        grid = self.setup(seed)
        method = CheckedMethods()
        tracer = Tracer()
        reference = measured.detail["reference"]
        with method.installed(benchmark):
            rows, serial_wall = self._campaign(grid, 1)
            self._check(rows, reference, checks)
            with tracer.installed():
                rows, wall = self._campaign(grid, 1)
        self._check(rows, reference, checks)
        layers = layer_metrics(tracer.spans, wall)
        layers["trace.overhead_s"] = wall - serial_wall
        layers["benchmark.serial_runs_per_s"] = len(rows) / serial_wall
        layers["benchmark.parallel_efficiency"] = (
            serial_wall / p50(measured.detail["walls"]) / self.workers)
        return layers


_RAND = re.compile(r"^rand=(\S+)$", re.MULTILINE)


@dataclass(frozen=True)
class CliWorkload:
    """The in-process CLI pipeline simulate, ampute, cluster, evaluate on CSV files.

    The fit does fixed work, as in FitWorkload. Five seedings keep it out of
    the poor local optimum that one seeding reached on 4 of 10 datasets of
    10000 rows tried, at up to five times the cost of a good one. At 2500
    rows a pipeline takes about a second, so a run's medians rest on some 30
    pipelines; at 10000 rows they rested on 7, and the median cluster time
    of ten runs spread by up to a quarter of its value.
    """

    name: str
    scratch: Path
    n: int = 2500
    p: int = 50
    k: int = 4
    rate: float = 0.1
    fit_flags: tuple = ("--n-init", "5", "--max-iter", str(FIXED_SWEEPS),
                        "--max-mm-iter", "8", "--mm-tol", "1e-15")

    def setup(self, seed: int):
        return sub_seeds(seed, count=3)

    def _pipeline(self, seeds, checks: Checks):
        """Run the four steps in a fresh directory; return (wall, cluster seconds, rand, digest)."""
        sim_seed, amp_seed, fit_seed = seeds
        self.scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            tmp = Path(tmp)
            data, truth, amputed, prefix = (tmp / "data.csv", tmp / "truth.csv",
                                            tmp / "amputed.csv", tmp / "fit")
            steps = [
                ["simulate", "--n", str(self.n), "--p", str(self.p), "--k", str(self.k),
                 "--seed", str(sim_seed), "--output", str(data), "--labels", str(truth)],
                ["ampute", "--input", str(data), "--output", str(amputed), "--mechanism", "mcar",
                 "--rate", str(self.rate), "--seed", str(amp_seed)],
                ["cluster", "--input", str(amputed), "--output", str(prefix), "--k", str(self.k),
                 "--seed", str(fit_seed), *self.fit_flags],
                ["evaluate", str(truth), f"{prefix}_assignment.csv"],
            ]
            seconds, rand = {}, None
            start = time.perf_counter()
            for argv in steps:
                out = StringIO()
                step_start = time.perf_counter()
                with redirect_stdout(out):
                    code = cli.cli(argv)
                seconds[argv[0]] = time.perf_counter() - step_start
                problems = [] if code == 0 else [f"exit code {code}"]
                if argv[0] == "evaluate" and code == 0:
                    match = _RAND.search(out.getvalue())
                    rand = float(match.group(1)) if match else None
                    if rand is None or not 0.0 <= rand <= 1.0:
                        problems.append(f"no rand in [0, 1] in {out.getvalue()!r}")
                checks.record(f"kpod {argv[0]}", problems)
            wall = time.perf_counter() - start
            files = sorted(tmp.iterdir())
            written = digest(*(f.name.encode() + f.read_bytes() for f in files))
            csv_bytes = sum(f.stat().st_size for f in files)
        return wall, seconds["cluster"], rand, (written, csv_bytes)

    def measure(self, seeds, seconds: float, checks: Checks) -> Measured:
        method = CheckedMethods()
        walls, cluster_s, outputs = [], [], []
        with method.installed(cli):
            start = time.perf_counter()
            while True:
                wall, cluster, rand, output = self._pipeline(seeds, checks)
                walls.append(wall)
                cluster_s.append(cluster)
                if outputs and output != outputs[0]:
                    checks.record("pipeline repeat", ["outputs differ from the first pipeline's"])
                outputs.append(output)
                if time.perf_counter() - start >= seconds:
                    break
        loop = time.perf_counter() - start
        return Measured(
            metrics={
                "fit_s_p50": p50(method.fit_seconds),
                "run_s_p50": p50(cluster_s),
                "run_s_p90": p90(cluster_s),
                "runs_per_s": len(cluster_s) / loop,
                "pipeline_s": p50(walls),
                "peak_rss_mb": peak_rss_mib(),
                "rand_mean": rand,
            },
            counts={"outputs": outputs[0][0], "csv_bytes": outputs[0][1], "rand_mean": rand},
            samples={"pipelines": len(walls)},
            detail={"walls": walls, "output": outputs[0]},
        )

    def traced(self, seed: int, measured: Measured, checks: Checks) -> dict:
        method = CheckedMethods()
        tracer = Tracer()
        with method.installed(cli), tracer.installed():
            start = time.perf_counter()
            wall, _, _, output = self._pipeline(self.setup(seed), checks)
            section = time.perf_counter() - start
        if output != measured.detail["output"]:
            checks.record("traced pipeline", ["outputs differ from the untraced pipeline's"])
        layers = layer_metrics(tracer.spans, section)
        layers["trace.overhead_s"] = wall - p50(measured.detail["walls"])
        return layers


def build(name: str, workers: int, scratch: Path):
    if name == "fit_mcar_wide":
        return FitWorkload(name, n=20000, p=50, k=20, mechanism=Mechanism.MCAR, rate=0.5,
                           datasets=4, rounds=11)
    if name == "campaign_small":
        return CampaignWorkload(name, workers=workers)
    if name == "cli_csv":
        return CliWorkload(name, scratch=scratch)
    raise ValueError(f"unknown workload {name!r}")
