"""Benchmark campaign runner: sweep mechanism x rate x method x trial grids.

Every run in the grid derives its own seed by hashing the base seed together
with its grid coordinates, so results are identical no matter how the work is
scheduled or how many workers execute it. The data and mask for a trial are
derived without the method index, so methods compared within a trial see the
same amputed dataset (paired comparisons).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import delete_cluster, mean_impute_cluster
from .errors import DeletionInfeasibleError, KPodError
from .evaluation import adjusted_rand_index, rand_index, timing_harness
from .csv_io import DEFAULT_MISSING_TOKEN, read_masked_csv, write_csv
from .kmeans import Assignment, EngineSettings, check_count
from .masked import MaskedMatrix, standardize
from .missingness import Mechanism, MechanismSpec, MixtureSpec, ampute, perturb_dataset, simulate_mixture
from .mm import KPodConfig, kpod_fit

__all__ = [
    "METHODS",
    "FileDataset",
    "ScenarioGrid",
    "ReportRow",
    "run_benchmark",
    "dataset_for_trial",
    "write_report",
    "aggregate_rows",
    "summary_path_for",
]

METHODS = ("kpod", "mean_impute", "delete")

REPORT_COLUMNS = [
    "mechanism", "target_rate", "achieved_rate", "method", "trial",
    "rand", "adjusted_rand", "seconds", "mm_iterations", "status",
]

SUMMARY_COLUMNS = [
    "mechanism", "target_rate", "method", "count",
    "rand_mean", "rand_se", "adjusted_rand_mean", "adjusted_rand_se",
    "seconds_mean", "seconds_se",
]


@dataclass(frozen=True)
class FileDataset:
    """A complete, labeled CSV on disk used as the benchmark population."""

    path: str
    missing_token: str = DEFAULT_MISSING_TOKEN
    label_column: str | None = None


def _count(value):
    """A count read from JSON, which may write 2 as 2.0. Any other value,
    2.5 included, passes through unchanged for the grid to reject."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class ScenarioGrid:
    """Declarative description of a benchmark campaign."""

    dataset: FileDataset | MixtureSpec
    k: int
    mechanisms: tuple[MechanismSpec, ...]
    rates: tuple[float, ...]
    methods: tuple[str, ...]
    trials: int
    base_seed: int
    standardize: bool = True
    perturb_rel_sd: float = 0.0
    engine: EngineSettings = field(default_factory=EngineSettings)
    max_mm_iter: int = KPodConfig.max_mm_iter
    mm_tol: float = KPodConfig.mm_tol

    def __post_init__(self):
        check_count("k", self.k)
        check_count("trials", self.trials)
        check_count("base_seed", self.base_seed, minimum=0)
        check_count("max_mm_iter", self.max_mm_iter)
        if not self.mm_tol > 0:
            raise ValueError("mm_tol must be > 0")
        if not self.perturb_rel_sd >= 0:
            raise ValueError("perturb_rel_sd must be >= 0")
        if not isinstance(self.standardize, bool):
            raise ValueError("standardize must be true or false")
        if not self.mechanisms:
            raise ValueError("need at least one mechanism")
        if not all(0 < r < 1 for r in self.rates):
            raise ValueError("rates must lie in (0, 1)")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioGrid":
        """Build a grid from the flat config-file schema (see README)."""
        raw = dict(raw)
        if "mixture" in raw:
            m = raw.pop("mixture")
            dataset = MixtureSpec(
                n=_count(m["n"]), p=_count(m["p"]), k=_count(m["k"]),
                center_sd=float(m.get("center_sd", MixtureSpec.center_sd)),
                noise_variance=float(m.get("noise_variance", MixtureSpec.noise_variance)),
            )
        elif "dataset" in raw:
            d = raw.pop("dataset")
            dataset = FileDataset(
                path=str(d["path"]),
                missing_token=str(d.get("missing_token", FileDataset.missing_token)),
                label_column=d.get("label_column"),
            )
        else:
            raise KPodError("config needs either a 'mixture' or a 'dataset' section")

        mar_columns = tuple(int(c) for c in raw.pop("mar_columns", ()))
        mechanisms = []
        for name in raw.pop("mechanisms"):
            kind = Mechanism.parse(str(name))
            mechanisms.append(MechanismSpec(
                kind=kind,
                target_rate=0.5,  # placeholder; the grid's rates apply per cell
                mar_columns=mar_columns if kind is Mechanism.MAR else None,
            ))

        engine = EngineSettings(
            max_iter=_count(raw.pop("inner_max_iter", EngineSettings.max_iter)),
            tol=float(raw.pop("inner_tol", EngineSettings.tol)),
            n_init=_count(raw.pop("n_init", EngineSettings.n_init)),
        )
        grid = cls(
            dataset=dataset,
            k=_count(raw.pop("k")),
            mechanisms=tuple(mechanisms),
            rates=tuple(float(r) for r in raw.pop("rates")),
            methods=tuple(str(m) for m in raw.pop("methods", METHODS)),
            trials=_count(raw.pop("trials")),
            base_seed=_count(raw.pop("base_seed")),
            standardize=raw.pop("standardize", cls.standardize),
            perturb_rel_sd=float(raw.pop("perturb_rel_sd", cls.perturb_rel_sd)),
            engine=engine,
            max_mm_iter=_count(raw.pop("max_mm_iter", cls.max_mm_iter)),
            mm_tol=float(raw.pop("mm_tol", cls.mm_tol)),
        )
        if raw:
            raise KPodError(f"unknown config keys: {sorted(raw)}")
        return grid

    @classmethod
    def from_json(cls, path) -> "ScenarioGrid":
        with Path(path).open() as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True)
class ReportRow:
    """One clustering run of the grid; failures become rows too."""

    mechanism: str
    target_rate: float
    achieved_rate: float | None
    method: str
    trial: int
    rand: float | None
    adjusted_rand: float | None
    seconds: float | None
    mm_iterations: int | None
    status: str


def derive_seed(*parts) -> int:
    """Order-independent, process-independent child seed from grid coordinates."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _population(grid: ScenarioGrid, seed: int) -> tuple[np.ndarray, Assignment]:
    """Complete values plus ground-truth labels for one trial."""
    if isinstance(grid.dataset, MixtureSpec):
        values, labels = simulate_mixture(replace(grid.dataset, seed=seed))
    else:
        x, labels = read_masked_csv(
            grid.dataset.path,
            missing_token=grid.dataset.missing_token,
            label_column=grid.dataset.label_column,
        )
        if labels is None:
            raise KPodError("benchmarking a file dataset requires a label_column")
        if not x.complete():
            raise KPodError("benchmark source data must be complete")
        values = x.values.copy()
    if grid.perturb_rel_sd > 0:
        values = perturb_dataset(values, grid.perturb_rel_sd, seed=derive_seed(seed, "perturb"))
    return values, labels


def dataset_for_trial(grid: ScenarioGrid, mech_index: int, rate_index: int, trial: int,
                      ) -> tuple[np.ndarray, Assignment, MaskedMatrix]:
    """Reconstruct exactly the (values, labels, amputed matrix) a trial used.

    Deterministic in the grid coordinates, and independent of which methods
    run, so paired method comparisons share data and tests can rebuild what
    the runner saw.
    """
    data_seed = derive_seed(grid.base_seed, "data", mech_index, rate_index, trial)
    values, labels = _population(grid, data_seed)
    mech = replace(
        grid.mechanisms[mech_index],
        target_rate=grid.rates[rate_index],
        seed=derive_seed(grid.base_seed, "mask", mech_index, rate_index, trial),
    )
    return values, labels, ampute(values, mech)


def _run_trial(grid: ScenarioGrid, mech_index: int, rate_index: int, trial: int,
               measure_time: bool) -> list[ReportRow]:
    mechanism = grid.mechanisms[mech_index].kind.value
    target_rate = grid.rates[rate_index]
    _, labels, masked = dataset_for_trial(grid, mech_index, rate_index, trial)
    achieved = 1.0 - masked.observed_fraction
    x = standardize(masked)[0] if grid.standardize else masked

    # One clustering seed per trial, shared by every method: the methods then
    # differ only in how they treat the missing entries, which keeps
    # per-trial comparisons paired.
    seed = derive_seed(grid.base_seed, "run", mech_index, rate_index, trial)
    rows = []
    for method in grid.methods:
        common = dict(
            mechanism=mechanism, target_rate=target_rate, achieved_rate=achieved,
            method=method, trial=trial,
        )
        try:
            if method == "kpod":
                cfg = KPodConfig(
                    k=grid.k, seed=seed, max_mm_iter=grid.max_mm_iter,
                    mm_tol=grid.mm_tol, inner=grid.engine,
                )
                fit, seconds = timing_harness(lambda: kpod_fit(x, cfg))
                predicted = fit.assignment
                mm_iterations = fit.mm_iterations
            elif method == "mean_impute":
                fit, seconds = timing_harness(
                    lambda: mean_impute_cluster(x, grid.k, seed=seed, engine=grid.engine)
                )
                predicted = fit.assignment
                mm_iterations = None
            else:
                fit, seconds = timing_harness(
                    lambda: delete_cluster(x, grid.k, seed=seed, engine=grid.engine)
                )
                predicted = fit[0].assignment
                mm_iterations = None
        except KPodError as exc:
            # Deletion with no complete column is a valid outcome, not a fault.
            status = ("infeasible" if isinstance(exc, DeletionInfeasibleError)
                      else f"error:{type(exc).__name__}")
            rows.append(ReportRow(**common, rand=None, adjusted_rand=None,
                                  seconds=None, mm_iterations=None, status=status))
            continue
        rows.append(ReportRow(
            **common,
            rand=rand_index(labels, predicted),
            adjusted_rand=adjusted_rand_index(labels, predicted),
            seconds=seconds if measure_time else 0.0,
            mm_iterations=mm_iterations,
            status="ok",
        ))
    return rows


def _run_trial_args(args) -> list[ReportRow]:
    return _run_trial(*args)


def run_benchmark(grid: ScenarioGrid, workers: int = 1, measure_time: bool = True,
                  ) -> list[ReportRow]:
    """Execute every grid cell and return one row per scenario x trial x method.

    Rows come back in grid order regardless of ``workers``; with
    ``measure_time=False`` the seconds column is fixed at 0.0 so two runs of
    the same grid produce byte-identical reports.
    """
    tasks = [
        (grid, mech_index, rate_index, trial, measure_time)
        for mech_index in range(len(grid.mechanisms))
        for rate_index in range(len(grid.rates))
        for trial in range(grid.trials)
    ]
    if workers <= 1:
        grouped = [_run_trial_args(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_trial_args, tasks))
    return [row for group in grouped for row in group]


def summary_path_for(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + "_summary" + (path.suffix or ".csv"))


@dataclass(frozen=True)
class _Aggregate:
    mechanism: str
    target_rate: float
    method: str
    count: int
    rand_mean: float | None
    rand_se: float | None
    adjusted_rand_mean: float | None
    adjusted_rand_se: float | None
    seconds_mean: float | None
    seconds_se: float | None


def _mean_se(values: Sequence[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))


def aggregate_rows(rows: Sequence[ReportRow]) -> list[_Aggregate]:
    """Mean and standard error per mechanism x rate x method, over ok rows.

    Groups appear in first-occurrence order. A group whose runs all failed
    keeps its row with count 0 and empty statistics, mirroring how failed
    scenarios are reported as gaps rather than dropped silently.
    """
    order: list[tuple] = []
    ok_rows: dict[tuple, list[ReportRow]] = {}
    for row in rows:
        key = (row.mechanism, row.target_rate, row.method)
        if key not in ok_rows:
            ok_rows[key] = []
            order.append(key)
        if row.status == "ok":
            ok_rows[key].append(row)
    out = []
    for key in order:
        group = ok_rows[key]
        rand_mean, rand_se = _mean_se([r.rand for r in group])
        ari_mean, ari_se = _mean_se([r.adjusted_rand for r in group])
        sec_mean, sec_se = _mean_se([r.seconds for r in group])
        out.append(_Aggregate(
            mechanism=key[0], target_rate=key[1], method=key[2], count=len(group),
            rand_mean=rand_mean, rand_se=rand_se,
            adjusted_rand_mean=ari_mean, adjusted_rand_se=ari_se,
            seconds_mean=sec_mean, seconds_se=sec_se,
        ))
    return out


def write_report(rows: Sequence[ReportRow], path) -> None:
    """Write the per-run report CSV plus its aggregated companion file."""
    write_csv(path, REPORT_COLUMNS,
              ([getattr(row, name) for name in REPORT_COLUMNS] for row in rows))
    write_csv(summary_path_for(path), SUMMARY_COLUMNS,
              ([getattr(agg, name) for name in SUMMARY_COLUMNS] for agg in aggregate_rows(rows)))
