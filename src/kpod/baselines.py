"""Non-probabilistic comparison strategies: impute-then-cluster and
delete-then-cluster."""

from __future__ import annotations

import numpy as np

from .errors import DeletionInfeasibleError
from .kmeans import EngineSettings, KMeansResult, check_type, lloyd
from .masked import MaskedMatrix
from .mm import init_fill, validate_clusterable

__all__ = ["mean_impute_cluster", "delete_cluster"]


def mean_impute_cluster(x: MaskedMatrix, k: int, seed=None,
                        engine: EngineSettings = EngineSettings()) -> KMeansResult:
    """Fill unobserved cells with column means, then run k-means.

    This is exactly the zero-iteration starting point of :func:`kpod_fit`:
    given the same seed and engine settings, its labels match that fit's
    initial clustering label for label. An ``engine`` of another type is a ValueError.
    """
    check_type("engine", engine, EngineSettings)
    validate_clusterable(x, k)
    return lloyd(init_fill(x), k, seed=seed,
                 max_iter=engine.max_iter, tol=engine.tol, n_init=engine.n_init)


def delete_cluster(x: MaskedMatrix, k: int, seed=None,
                   engine: EngineSettings = EngineSettings()) -> tuple[KMeansResult, list[int]]:
    """Drop every column containing a missing entry, then run k-means.

    Returns the clustering plus the indices of the fully observed columns
    that survived. Raises :class:`DeletionInfeasibleError` when no column is
    fully observed, and ValueError for an ``engine`` of another type.
    """
    check_type("engine", engine, EngineSettings)
    kept = np.flatnonzero(x.observed.all(axis=0))
    if kept.size == 0:
        raise DeletionInfeasibleError("every column contains missing entries")
    result = lloyd(x.values.take(kept, axis=1), k, seed=seed,
                   max_iter=engine.max_iter, tol=engine.tol, n_init=engine.n_init)
    return result, [int(j) for j in kept]
