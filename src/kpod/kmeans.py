"""Complete-data k-means: Lloyd's alternating minimization with distance-squared
proportional seeding, deterministic under a supplied seed."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateCentersWarning, InfeasibleError, ShapeMismatchError

__all__ = [
    "Assignment",
    "Centroids",
    "KMeansResult",
    "EngineSettings",
    "kmeans_objective",
    "kmeanspp_init",
    "assign_step",
    "update_step",
    "lloyd",
]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Cluster labels for the n rows of a dataset, integers in ``[0, k)``."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ShapeMismatchError(f"labels must be 1-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == labels.astype(np.int64)):
                raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class Centroids:
    """A (k, p) matrix whose rows are cluster centers."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2:
            raise ShapeMismatchError(f"centers must be 2-D, got shape {centers.shape}")
        if centers.shape[0] < 1:
            raise ValueError("need at least one center")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True, eq=False)
class KMeansResult:
    assignment: Assignment
    centroids: Centroids
    objective: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class EngineSettings:
    """Inner-loop settings shared by every routine that runs Lloyd's method."""

    max_iter: int = 100
    tol: float = 1e-6
    n_init: int = 1

    def __post_init__(self):
        check_count("max_iter", self.max_iter)
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        check_count("n_init", self.n_init)


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")


def _as_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ShapeMismatchError(f"data must be 2-D, got shape {data.shape}")
    return data


def _sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Direct differences rather than the expanded |x|^2 - 2x.c + |c|^2 form:
    # exact ties then stay exact, which the tie-break contract relies on.
    diff = data[:, None, :] - centers[None, :, :]
    return np.einsum("nkp,nkp->nk", diff, diff)


def kmeans_objective(data, a: Assignment, b: Centroids) -> float:
    """Within-cluster sum of squares of ``data`` under labels ``a`` and centers ``b``."""
    data = _as_data(data)
    if len(a) != data.shape[0]:
        raise ShapeMismatchError(f"{len(a)} labels for {data.shape[0]} rows")
    if b.n_features != data.shape[1]:
        raise ShapeMismatchError(
            f"centers have {b.n_features} features, data has {data.shape[1]}"
        )
    if a.labels.size and a.labels.max() >= b.k:
        raise IndexError(f"label {int(a.labels.max())} out of range for k={b.k}")
    diff = data - b.centers[a.labels]
    return float(np.sum(diff * diff))


def kmeanspp_init(data, k: int, seed=None) -> Centroids:
    """Choose k starting centers by distance-squared proportional sampling.

    The first center is a uniformly chosen data row; each subsequent center is
    a data row sampled with probability proportional to its squared distance
    to the nearest center chosen so far. Deterministic given ``seed``.

    If the data holds fewer than k distinct rows the leftover centers are
    duplicates, flagged with :class:`DuplicateCentersWarning`.
    """
    data = _as_data(data)
    n = data.shape[0]
    if k < 1:
        raise InfeasibleError("k must be >= 1")
    if k > n:
        raise InfeasibleError(f"cannot choose k={k} centers from {n} rows")
    rng = np.random.default_rng(seed)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = _sq_dists(data, data[chosen[:1]])[:, 0]
    duplicated = False
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            chosen[i] = rng.choice(n, p=d2 / total)
        else:
            # Every row coincides with an existing center.
            chosen[i] = rng.integers(n)
            duplicated = True
        new_d2 = _sq_dists(data, data[chosen[i : i + 1]])[:, 0]
        d2 = np.minimum(d2, new_d2)
    if duplicated:
        warnings.warn(
            "fewer than k distinct rows; duplicate centers selected",
            DuplicateCentersWarning,
            stacklevel=2,
        )
    return Centroids(centers=data[chosen].copy())


def assign_step(data, b: Centroids) -> Assignment:
    """Assign each row to its nearest center (squared Euclidean distance).

    Ties go to the lowest cluster index.
    """
    data = _as_data(data)
    if b.n_features != data.shape[1]:
        raise ShapeMismatchError(
            f"centers have {b.n_features} features, data has {data.shape[1]}"
        )
    return Assignment(labels=np.argmin(_sq_dists(data, b.centers), axis=1))


def update_step(data, a: Assignment, k: int) -> Centroids:
    """Move each center to the mean of its assigned rows.

    A cluster left empty is re-seeded with the data row farthest from its own
    (freshly updated) centroid; with several empty clusters each repair takes
    a distinct row. Deterministic.
    """
    data = _as_data(data)
    labels = a.labels
    if len(a) != data.shape[0]:
        raise ShapeMismatchError(f"{len(a)} labels for {data.shape[0]} rows")
    if labels.size and labels.max() >= k:
        raise IndexError(f"label {int(labels.max())} out of range for k={k}")
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, data.shape[1]))
    np.add.at(sums, labels, data)
    centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)

    empty = np.flatnonzero(counts == 0)
    if empty.size:
        own_d2 = np.sum((data - centers[labels]) ** 2, axis=1)
        for cluster in empty:
            far = int(np.argmax(own_d2))
            centers[cluster] = data[far]
            own_d2[far] = -np.inf  # each repair takes a distinct row
    return Centroids(centers=centers)


def _lloyd_single(data: np.ndarray, k: int, centers0: np.ndarray, max_iter: int, tol: float) -> KMeansResult:
    centers = Centroids(centers=centers0)
    assignment = None
    obj = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        previous, prev_obj = assignment, obj
        assignment = assign_step(data, centers)
        centers = update_step(data, assignment, k)
        obj = kmeans_objective(data, assignment, centers)
        # The first sweep never stops: it has nothing to compare against. A
        # non-finite previous objective makes the relative decrease NaN.
        if previous is not None and (
            np.array_equal(assignment.labels, previous.labels)
            or prev_obj == 0 or (prev_obj - obj) / prev_obj < tol
        ):
            converged = True
            break
    return KMeansResult(assignment=assignment, centroids=centers, objective=obj,
                        iterations=iterations, converged=converged)


def lloyd(data, k: int, seed=None, max_iter: int = 100, tol: float = 1e-6,
          n_init: int = 1, init: Centroids | None = None) -> KMeansResult:
    """Run Lloyd's method to a local optimum of the within-cluster sum of squares.

    Stops when the assignment repeats, when the relative objective decrease
    drops below ``tol``, or after ``max_iter`` sweeps. The objective is
    non-increasing across sweeps. With ``init=None``, centers come from
    ``n_init`` distance-squared seedings and the best final objective wins;
    with an explicit ``init`` a single warm-started run is performed.
    Deterministic given ``seed``.
    """
    data = _as_data(data)
    n = data.shape[0]
    if k < 1 or k > n:
        raise InfeasibleError(f"need 1 <= k <= n rows, got k={k}, n={n}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init is not None:
        if init.k != k or init.n_features != data.shape[1]:
            raise ShapeMismatchError(
                f"init centers shape {init.centers.shape} incompatible with k={k}, p={data.shape[1]}"
            )
        return _lloyd_single(data, k, init.centers.copy(), max_iter, tol)

    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        centers0 = kmeanspp_init(data, k, seed=rng).centers.copy()
        result = _lloyd_single(data, k, centers0, max_iter, tol)
        if best is None or result.objective < best.objective:
            best = result
    return best
