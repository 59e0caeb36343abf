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

from .errors import DegenerateRowError
from .kmeans import (_BLOCK_ROWS, Assignment, Centroids, EngineSettings, KMeansResult, RowBounds,
                     _objective, check_count, check_k, check_positive, check_seed, check_type,
                     kmeans_objective, lloyd)
from .masked import MaskedMatrix, _fill, fill_unobserved, observed_means

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
        check_seed(self.seed)
        check_positive("mm_tol", self.mm_tol)
        check_type("inner", self.inner, EngineSettings)


@dataclass(frozen=True, eq=False)
class KPodResult:
    """Fit output: final clustering plus the observed-objective trace.

    ``observed_objective_trace[m]`` is the k-means objective of the matrix
    that round m filled from its iterate (entry 0 belongs to the initial
    complete-data solve). Off the mask that matrix equals the model, so the
    value is the iterate's observed-entry squared error, and the trace is
    non-increasing. ``fitted_fill`` is the last such matrix: the input with
    every unobserved cell replaced by its assigned center's value. The fit
    refills that one matrix in place each round, so it is the array every
    round's solve ran on, and the fit keeps no other.
    """

    assignment: Assignment
    centroids: Centroids
    observed_objective_trace: list[float]
    mm_iterations: int
    converged: bool
    fitted_fill: np.ndarray


def init_fill(x: MaskedMatrix) -> np.ndarray:
    """Fill unobserved cells with their column's observed mean."""
    means, _ = observed_means(x)
    return _fill(x, means, ~x.observed)


def majorization_value(x: MaskedMatrix, a: Assignment, b: Centroids,
                       a_prev: Assignment, b_prev: Centroids) -> float:
    """Surrogate loss: the k-means objective, under ``(a, b)``, of the matrix
    filled from the previous iterate ``(a_prev, b_prev)``.

    Equals the observed-entry objective exactly at ``(a, b) == (a_prev,
    b_prev)`` and dominates it everywhere else; labels or centers that do not
    fit ``x`` raise ShapeMismatchError; overflow gives inf, unwarned. Used in tests, not the fit.
    """
    return kmeans_objective(fill_unobserved(x, b_prev.centers[a_prev.labels]), a, b)


def validate_clusterable(x: MaskedMatrix, k: int) -> None:
    """Reject inputs no clustering run can use: a k outside [1, n], or a row
    with no observed entries. Column degeneracy is caught by the column statistics."""
    check_k(k, x.n_rows)
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

    # Rounds differ only in the unobserved cells: each refills those in place.
    unobserved = ~x.observed
    filled = init_fill(x)
    result = lloyd(
        filled, cfg.k, seed=cfg.seed,
        max_iter=cfg.inner.max_iter, tol=cfg.inner.tol, n_init=cfg.inner.n_init,
    )
    # Off the mask a fill equals the model, so the k-means objective of the
    # filled matrix is the observed-entry objective, bit for bit.
    trace = [_refill(filled, x, unobserved, result)]
    # Within one block a sweep is one GEMM over every row either way, and the
    # bookkeeping of bounds costs more than the rows they skip would.
    bounds = RowBounds(x.n_rows) if x.n_rows > _BLOCK_ROWS else None

    # Complete data has no unobserved cells: the fill is the identity and the
    # initial solve is already the answer, so no round runs.
    converged = x.complete()
    while not converged and len(trace) <= cfg.max_mm_iter:
        filled_from = result
        result = lloyd(
            filled, cfg.k, init=result.centroids,
            max_iter=cfg.inner.max_iter, tol=cfg.inner.tol, bounds=bounds,
        )
        trace.append(_refill(filled, x, unobserved, result))
        if bounds is not None:
            bounds.refilled(result, filled_from)
        prev, cur = trace[-2:]
        # Labels alone going quiet is not enough to stop: centers keep
        # contracting toward the observed entries for a while after the
        # assignment stabilizes, and that tail is what drives the objective
        # to its floor.
        converged = prev == 0 or (prev - cur) / prev < cfg.mm_tol

    return KPodResult(
        assignment=result.assignment,
        centroids=result.centroids,
        observed_objective_trace=trace,
        mm_iterations=len(trace) - 1,
        converged=converged,
        fitted_fill=filled,
    )


def _refill(filled: np.ndarray, x: MaskedMatrix, unobserved: np.ndarray,
            result: KMeansResult) -> float:
    """Write each row's assigned center into its unobserved cells of
    ``filled``, in place, with the bytes of :func:`fill_unobserved`, and
    return the k-means objective of the refilled matrix under ``result``:
    both from one n x p gather of the centers by label."""
    model = result.centroids.centers.take(result.assignment.labels, axis=0)
    _fill(x, model, unobserved, out=filled)
    return _objective(filled, model)
