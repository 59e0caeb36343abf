"""Benchmark campaign runner: sweep mechanism x rate x method x trial grids.

Every run in the grid derives its own seed by hashing the base seed together
with its grid coordinates, so results are identical no matter how the work is
scheduled or how many workers execute it. The data and mask for a trial are
derived without the method index, so methods compared within a trial see the
same amputed dataset (paired comparisons).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import delete_cluster, mean_impute_cluster
from .errors import DeletionInfeasibleError, KPodError
from .evaluation import adjusted_rand_index, rand_index
from .csv_io import DEFAULT_MISSING_TOKEN, read_masked_csv, write_csv
from .kmeans import Assignment, EngineSettings, check_count, check_nonnegative, is_real
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


@dataclass(frozen=True)
class FileDataset:
    """A complete CSV on disk used as the benchmark population; runs are
    scored against the true classes in its ``label_column``."""

    path: str
    label_column: str
    missing_token: str = DEFAULT_MISSING_TOKEN

    def __post_init__(self):
        if not isinstance(self.label_column, str):
            raise ValueError("a benchmark dataset needs a label_column")


def _count(value):
    """A count read from JSON, which may write 2 as 2.0. Any other value,
    2.5 included, passes through unchanged for the grid to reject."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _number(value, key: str) -> float:
    """A real number read from JSON. A bool, string, null or container is a
    KPodError naming ``key``, not a float() of it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KPodError(f"config key {key!r} must be a JSON number")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the largest float
        raise KPodError(f"config key {key!r} is too large") from None


def _no_more_keys(section: dict, where: str) -> None:
    """Reject what is left of ``section`` once its known keys were taken."""
    if section:
        raise KPodError(f"unknown {where} keys: {sorted(section)}")


def _object(value, where: str) -> dict:
    """A copy of a JSON object of the config; anything else is a KPodError."""
    if not isinstance(value, dict):
        raise KPodError(f"{where} must be a JSON object")
    return dict(value)


def _required(section: dict, key: str, where: str = "config"):
    """Remove and return ``section[key]``; a missing key is a KPodError that names it."""
    if key not in section:
        raise KPodError(f"{where} is missing the required key {key!r}")
    return section.pop(key)


def _array(section: dict, key: str, default=None) -> list:
    """Remove and return the JSON array ``section[key]``, required unless a default is given."""
    value = _required(section, key) if default is None else section.pop(key, default)
    if not isinstance(value, (list, tuple)):
        raise KPodError(f"config key {key!r} must be a JSON array")
    return value


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
        self.kpod_config()  # checks k, max_mm_iter, mm_tol
        check_count("trials", self.trials)
        check_count("base_seed", self.base_seed, minimum=0)
        check_nonnegative("perturb_rel_sd", self.perturb_rel_sd)
        if not isinstance(self.standardize, bool):
            raise ValueError("standardize must be true or false")
        for name in ("mechanisms", "rates", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if not all(is_real(r) and 0 < r < 1 for r in self.rates):
            raise ValueError("rates must lie in (0, 1)")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")

    def kpod_config(self, seed: int | None = None) -> KPodConfig:
        """The fit settings of this grid's runs, with clustering seed ``seed``."""
        return KPodConfig(k=self.k, seed=seed, max_mm_iter=self.max_mm_iter,
                          mm_tol=self.mm_tol, inner=self.engine)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioGrid":
        """Build a grid from the flat config-file schema (see README)."""
        raw = _object(raw, "config")
        if "mixture" in raw:
            m = _object(raw.pop("mixture"), "mixture")
            dataset = MixtureSpec(
                **{key: _count(_required(m, key, "mixture")) for key in ("n", "p", "k")},
                center_sd=_number(m.pop("center_sd", MixtureSpec.center_sd), "center_sd"),
                noise_variance=_number(m.pop("noise_variance", MixtureSpec.noise_variance),
                                       "noise_variance"),
            )
            _no_more_keys(m, "mixture")
        elif "dataset" in raw:
            d = _object(raw.pop("dataset"), "dataset")
            dataset = FileDataset(
                path=str(_required(d, "path", "dataset")),
                label_column=_required(d, "label_column", "dataset"),
                missing_token=str(d.pop("missing_token", FileDataset.missing_token)),
            )
            _no_more_keys(d, "dataset")
        else:
            raise KPodError("config needs either a 'mixture' or a 'dataset' section")

        mar_columns = _array(raw, "mar_columns", ())
        mechanisms = []
        for name in _array(raw, "mechanisms"):
            kind = Mechanism.parse(str(name))
            mechanisms.append(MechanismSpec(
                kind=kind,
                target_rate=0.5,  # placeholder; the grid's rates apply per cell
                mar_columns=mar_columns if kind is Mechanism.MAR else None,
            ))

        engine = EngineSettings(
            max_iter=_count(raw.pop("inner_max_iter", EngineSettings.max_iter)),
            tol=_number(raw.pop("inner_tol", EngineSettings.tol), "inner_tol"),
            n_init=_count(raw.pop("n_init", EngineSettings.n_init)),
        )
        grid = cls(
            dataset=dataset,
            k=_count(_required(raw, "k")),
            mechanisms=tuple(mechanisms),
            rates=tuple(_number(r, "rates") for r in _array(raw, "rates")),
            methods=tuple(str(m) for m in _array(raw, "methods", METHODS)),
            trials=_count(_required(raw, "trials")),
            base_seed=_count(_required(raw, "base_seed")),
            standardize=raw.pop("standardize", cls.standardize),
            perturb_rel_sd=_number(raw.pop("perturb_rel_sd", cls.perturb_rel_sd), "perturb_rel_sd"),
            engine=engine,
            max_mm_iter=_count(raw.pop("max_mm_iter", cls.max_mm_iter)),
            mm_tol=_number(raw.pop("mm_tol", cls.mm_tol), "mm_tol"),
        )
        _no_more_keys(raw, "config")
        return grid

    @classmethod
    def from_json(cls, path) -> "ScenarioGrid":
        import json
        with Path(path).open(encoding="utf-8") as handle:
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
    import hashlib
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
    _, labels, masked = dataset_for_trial(grid, mech_index, rate_index, trial)
    # One clustering seed per trial, shared by every method: the methods then
    # differ only in how they treat the missing entries, which keeps
    # per-trial comparisons paired.
    cfg = grid.kpod_config(seed=derive_seed(grid.base_seed, "run", mech_index, rate_index, trial))
    failure = None
    try:
        x = standardize(masked)[0] if grid.standardize else masked
    except KPodError as exc:
        failure = exc  # every method of the trial reports it
    rows = []
    for method in grid.methods:
        common = dict(mechanism=grid.mechanisms[mech_index].kind.value,
                      target_rate=grid.rates[rate_index],
                      achieved_rate=1.0 - masked.observed_fraction, method=method, trial=trial)
        try:
            if failure is not None:
                raise failure
            start = time.perf_counter()
            if method == "kpod":
                fit = kpod_fit(x, cfg)
            elif method == "mean_impute":
                fit = mean_impute_cluster(x, cfg.k, seed=cfg.seed, engine=cfg.inner)
            else:
                fit = delete_cluster(x, cfg.k, seed=cfg.seed, engine=cfg.inner)[0]
            seconds = time.perf_counter() - start
        except KPodError as exc:
            # Deletion with no complete column is a valid outcome, not a fault.
            status = ("infeasible" if isinstance(exc, DeletionInfeasibleError)
                      else f"error:{type(exc).__name__}")
            rows.append(ReportRow(**common, rand=None, adjusted_rand=None,
                                  seconds=None, mm_iterations=None, status=status))
            continue
        rows.append(ReportRow(
            **common,
            rand=rand_index(labels, fit.assignment),
            adjusted_rand=adjusted_rand_index(labels, fit.assignment),
            seconds=seconds if measure_time else 0.0,
            mm_iterations=fit.mm_iterations if method == "kpod" else None,
            status="ok",
        ))
    return rows


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
        grouped = [_run_trial(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_trial, *zip(*tasks)))
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
    ok_rows: dict[tuple, list[ReportRow]] = {}
    for row in rows:
        group = ok_rows.setdefault((row.mechanism, row.target_rate, row.method), [])
        if row.status == "ok":
            group.append(row)
    out = []
    for key, group in ok_rows.items():
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
    """Write the per-run report CSV plus its aggregated companion file, with
    one column per field of ``ReportRow`` and of ``_Aggregate``."""
    for out, kind, records in ((path, ReportRow, rows),
                               (summary_path_for(path), _Aggregate, aggregate_rows(rows))):
        names = [f.name for f in fields(kind)]
        write_csv(out, names, ([getattr(r, name) for name in names] for r in records))
