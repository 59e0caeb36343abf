"""k-POD: k-means clustering of partially observed data.

The fit alternates two cheap steps: fill every unobserved cell with the value
the current clustering predicts for it (the assigned center's entry), then
re-run complete-data k-means on the filled matrix, warm-started from the
current centers. Each round can only drive the observed-entry squared error
downhill, so the objective trace is non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRowError, InfeasibleError
from .kmeans import Assignment, Centroids, EngineSettings, check_count, lloyd
from .masked import MaskedMatrix, column_stats, fill_unobserved, project_observed

__all__ = ["KPodConfig", "KPodResult", "init_fill", "majorization_value", "kpod_fit"]


@dataclass(frozen=True)
class KPodConfig:
    """Settings for :func:`kpod_fit`. The fit runs on the scale it is given;
    callers that want standardized units call :func:`standardize` first."""

    k: int
    seed: int | None = None
    max_mm_iter: int = 300
    mm_tol: float = 1e-6
    inner: EngineSettings = field(default_factory=EngineSettings)

    def __post_init__(self):
        check_count("k", self.k)
        check_count("max_mm_iter", self.max_mm_iter)
        if not self.mm_tol > 0:
            raise ValueError("mm_tol must be > 0")


@dataclass(frozen=True, eq=False)
class KPodResult:
    """Fit output: final clustering plus the observed-objective trace.

    ``observed_objective_trace[m]`` is the observed-entry squared error of the
    m-th iterate; entry 0 belongs to the initial complete-data solve. The
    trace is non-increasing. ``fitted_fill`` is the input matrix with every
    unobserved cell replaced by its assigned center's value.
    """

    assignment: Assignment
    centroids: Centroids
    observed_objective_trace: list[float]
    mm_iterations: int
    converged: bool
    fitted_fill: np.ndarray


def init_fill(x: MaskedMatrix) -> np.ndarray:
    """Fill unobserved cells with their column's observed mean."""
    stats = column_stats(x)
    return np.where(x.observed, x.values, stats.means)


def _model(a: Assignment, b: Centroids) -> np.ndarray:
    if a.labels.size and a.labels.max() >= b.k:
        raise IndexError(f"label {int(a.labels.max())} out of range for k={b.k}")
    return b.centers[a.labels]


def majorization_value(x: MaskedMatrix, a: Assignment, b: Centroids,
                       a_prev: Assignment, b_prev: Centroids) -> float:
    """Surrogate loss: full squared error against the previous iterate's fill.

    Equals the observed-entry objective exactly at ``(a, b) == (a_prev,
    b_prev)`` and dominates it everywhere else. Used in tests; the fit itself
    never needs to evaluate it.
    """
    filled = fill_unobserved(x, _model(a_prev, b_prev))
    diff = filled - _model(a, b)
    if diff.shape != x.shape:
        raise ValueError("inconsistent shapes")
    return float(np.sum(diff * diff))


def validate_clusterable(x: MaskedMatrix, k: int) -> None:
    """Reject inputs no clustering run can use: k > n, or a row with no
    observed entries. Column degeneracy is caught by the column statistics."""
    if k < 1 or k > x.n_rows:
        raise InfeasibleError(f"need 1 <= k <= n rows, got k={k}, n={x.n_rows}")
    empty_rows = np.flatnonzero(x.row_observed_counts() == 0)
    if empty_rows.size:
        raise DegenerateRowError(int(empty_rows[0]))


def kpod_fit(x: MaskedMatrix, cfg: KPodConfig) -> KPodResult:
    """Cluster a partially observed matrix into ``cfg.k`` groups.

    Starts from a column-mean fill and a seeded complete-data k-means solve,
    then alternates model-based fill-in with warm-started k-means until the
    relative decrease of the observed-entry objective falls below
    ``cfg.mm_tol`` (or ``cfg.max_mm_iter`` is hit). On complete data this
    reduces to a single k-means run with the same seed.
    """
    validate_clusterable(x, cfg.k)

    rng = np.random.default_rng(cfg.seed)
    result = lloyd(
        init_fill(x), cfg.k, seed=rng,
        max_iter=cfg.inner.max_iter, tol=cfg.inner.tol, n_init=cfg.inner.n_init,
    )
    assignment, centroids = result.assignment, result.centroids
    model = _model(assignment, centroids)
    trace = [project_observed(x, model)]

    if x.complete():
        # No unobserved cells: the fill step is the identity and the initial
        # solve is already the answer.
        return KPodResult(
            assignment=assignment,
            centroids=centroids,
            observed_objective_trace=trace,
            mm_iterations=0,
            converged=True,
            fitted_fill=x.values.copy(),
        )

    converged = False
    for _ in range(cfg.max_mm_iter):
        filled = fill_unobserved(x, model)
        result = lloyd(
            filled, cfg.k, seed=rng, init=centroids,
            max_iter=cfg.inner.max_iter, tol=cfg.inner.tol,
        )
        assignment, centroids = result.assignment, result.centroids
        model = _model(assignment, centroids)
        trace.append(project_observed(x, model))
        prev, cur = trace[-2], trace[-1]
        # Labels alone going quiet is not enough to stop: centers keep
        # contracting toward the observed entries for a while after the
        # assignment stabilizes, and that tail is what drives the objective
        # to its floor.
        if prev == 0 or (prev - cur) / prev < cfg.mm_tol:
            converged = True
            break

    return KPodResult(
        assignment=assignment,
        centroids=centroids,
        observed_objective_trace=trace,
        mm_iterations=len(trace) - 1,
        converged=converged,
        fitted_fill=fill_unobserved(x, model),
    )
