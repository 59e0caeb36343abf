"""Complete-data k-means: Lloyd's alternating minimization with distance-squared
proportional seeding, deterministic under a supplied seed."""

from __future__ import annotations

import math
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
    "RowBounds",
]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Cluster labels for the n rows of a dataset, integers in ``[0, k)``."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ShapeMismatchError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.dtype.kind not in "biuf":
            # Only these kinds hold integer labels; casting complex or object
            # arrays to int64 would warn or raise inside numpy.
            raise ValueError("labels must be integers")
        if labels.dtype.kind not in "iu":
            # A float that is not finite or lies past int64 would make the
            # cast below warn; such a label is no integer label either.
            if labels.dtype.kind == "f" and not np.all((labels >= -2.0**63) & (labels < 2.0**63)):
                raise ValueError("labels must be integers")
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
        # A copy, so freezing it below leaves the caller's array writable.
        centers = np.array(self.centers, dtype=float)
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
        _check_settings(self.max_iter, self.tol, self.n_init)


def _check_settings(max_iter, tol, n_init) -> None:
    check_count("max_iter", max_iter)
    if not is_real(tol) or not tol > 0:
        raise ValueError("tol must be > 0")
    check_count("n_init", n_init)


def is_real(value) -> bool:
    """Whether ``value`` is an int or a float, numpy's included: one a range check can compare."""
    return isinstance(value, (int, float, np.integer, np.floating))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``minimum``. A bool
    is not a count."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


def check_nonnegative(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite real >= 0. A bool is not one."""
    if isinstance(value, bool) or not is_real(value) or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0")


def check_k(k, n: int | None = None) -> None:
    """Raise ValueError unless ``k`` is an integer (a bool is not one), and
    InfeasibleError unless k >= 1 and, for centers chosen from ``n`` rows, k <= n."""
    if not _is_integer(k):
        raise ValueError("k must be an integer")
    if k < 1 or (n is not None and k > n):
        raise InfeasibleError(f"need 1 <= k <= n rows, got k={k}, n={n}")


def _as_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ShapeMismatchError(f"data must be 2-D, got shape {data.shape}")
    return data


# Rows per block of assign_step: bounds its temporaries, including a recheck of
# every row of a block, to _BLOCK_ROWS * k * p floats.
_BLOCK_ROWS = 1024


def _sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # The exact path. Direct differences keep exact ties exact, which the
    # lowest-index tie-break relies on; assign_step falls back to this for rows
    # its GEMM form cannot decide, and seeding samples from these values, so
    # they must not change.
    diff = data[:, None, :] - centers[None, :, :]
    return np.einsum("nkp,nkp->nk", diff, diff)


@np.errstate(over="ignore", invalid="ignore")
def _gemm_argmin(block: np.ndarray, centers: np.ndarray):
    """Nearest-center labels of ``block`` by GEMM, and the rows GEMM cannot decide.

    GEMM gives |c|^2 - 2x.c, the squared distance less |x|^2, which moves no
    argmin. With s = |x|^2 + max |c|^2, a value of it and the matching value
    of :func:`_sq_dists` together err by at most (2p + 3) eps s, so a row
    whose two smallest values lie more than 8 (p + 4) eps s apart, over twice
    that, has the exact path's label. The rest are unsure:
    near and exact ties, non-finite margins, and rows with 4 s past the
    largest float, whose exact distances (at most 2 s) may overflow to ties at
    inf that only the index breaks. Adding the smallest normal number to s
    covers the absolute error of gradual underflow. Overflow here is expected
    and handled, so it raises no warning.

    The values are laid out one row per center, so that every reduction over
    the centers runs along the outer axis, elementwise over the block.

    Also returns, for :class:`RowBounds`, the two smallest GEMM values, |x|^2
    and that margin bound: ``value + |x|^2`` errs from the true squared
    distance by far less than the bound.
    """
    c_sq = np.einsum("kp,kp->k", centers, centers)
    dists = (-2.0 * centers) @ block.T
    dists += c_sq[:, None]
    best = dists.argmin(axis=0)
    nearest = dists.min(axis=0)
    # Hide each row's ``best`` value: the smallest left is at another center.
    np.putmask(dists, best == np.arange(len(centers))[:, None], np.inf)
    second = dists.min(axis=0)
    margin = second - nearest
    x_sq = np.einsum("ij,ij->i", block, block)
    scale = x_sq + (c_sq.max() + _TINY)
    bound = (4 * scale) * (2 * (centers.shape[1] + 4) * _EPS)
    unsure = (~((margin > bound) & (margin < np.inf))).nonzero()[0]
    return best, unsure, (nearest, second, x_sq, bound)


def _block_labels(block: np.ndarray, centers: np.ndarray):
    """:func:`_gemm_argmin`, with its unsure rows decided by the exact path."""
    best, unsure, gemm = _gemm_argmin(block, centers)
    if unsure.size:
        best[unsure] = np.argmin(_sq_dists(block[unsure], centers), axis=1)
    return best, unsure, gemm


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# A distance whose square is the smallest normal number, and one whose square
# is a quarter of the largest float.
_SQRT_TINY = math.sqrt(_TINY)
_SQRT_HUGE = math.sqrt(np.finfo(float).max) / 2


@np.errstate(over="ignore", invalid="ignore")
def _distance_up(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between ``a`` and ``b`` along their last axis,
    rounded up so that none is below the exact distance. The differences
    and the sum of their squares err by at most (p + 2) eps / 2 relative,
    and by p times half the smallest subnormal where squares underflow, whose
    root is below sqrt(p) 2^-537."""
    diff = a - b
    p = diff.shape[-1]
    norms = np.sqrt(np.einsum("...p,...p->...", diff, diff))
    return norms * (1 + (p + 4) * _EPS) + math.sqrt(p) * 2.0**-536


class RowBounds:
    """Hamerly bounds that let a warm Lloyd sweep skip rows whose label cannot change.

    For each row, ``upper`` bounds its distance to center ``labels[row]``
    from above and ``lower`` its distance to every other center from below;
    rows start with no bounds. A row with ``upper (1 + g) + sqrt(tiny) <
    lower (1 - g)``, where g = (p + 4) eps covers the rounding of
    :func:`_sq_dists` over p columns, has a strictly smallest exact squared
    distance at its own center, so :func:`assign_step` would give it its
    current label; the margin sqrt(tiny) covers underflow, and an ``upper``
    whose square could overflow decides nothing.

    Rows that do go through the GEMM path get new bounds from its values,
    widened by its error bound; rows the exact path rechecks get none. When
    centers or rows move, the bounds loosen by how far, rounded outward, so
    they stay valid. One instance follows the rows of one matrix across the
    warm solves of a k-POD fit, through ``lloyd(..., bounds=...)``.
    """

    def __init__(self, n: int):
        self.labels = np.zeros(n, dtype=np.int64)
        self.upper = np.full(n, np.inf)
        self.lower = np.full(n, -np.inf)

    def undecided(self, p: int) -> np.ndarray:
        """The rows whose bounds do not prove their label."""
        g = (p + 4) * _EPS
        with np.errstate(over="ignore", invalid="ignore"):
            proven = self.upper * (1 + g) + _SQRT_TINY < self.lower * (1 - g)
        return np.flatnonzero(~(proven & (self.upper < _SQRT_HUGE)))

    @np.errstate(over="ignore", invalid="ignore")
    def record(self, rows: np.ndarray, labels: np.ndarray, unsure: np.ndarray, gemm) -> None:
        """Set the labels of ``rows`` and their bounds from the values of
        :func:`_gemm_argmin`; the ``unsure`` ones get no bounds."""
        nearest, second, x_sq, bound = gemm
        self.labels[rows] = labels
        upper = np.sqrt(nearest + x_sq + bound) * (1 + 2 * _EPS)
        lower = np.sqrt(np.maximum(second + x_sq - bound, 0.0)) * (1 - 2 * _EPS)
        upper[unsure] = np.inf
        lower[unsure] = -np.inf
        self.upper[rows] = upper
        self.lower[rows] = lower

    @np.errstate(over="ignore", invalid="ignore")
    def loosen(self, grow, shrink) -> None:
        """Raise each upper bound by ``grow`` and lower each lower bound by
        ``shrink``, rounding outward."""
        self.upper += grow
        self.upper *= 1 + 2 * _EPS
        self.lower -= shrink
        self.lower *= 1 - 2 * _EPS

    def centers_moved(self, old: Centroids, new: Centroids) -> None:
        """Keep the bounds valid after the centers moved from ``old`` to ``new``."""
        shift = _distance_up(new.centers, old.centers)
        self.loosen(shift[self.labels], shift.max())

    def refilled(self, new: KMeansResult, old: KMeansResult) -> None:
        """Keep the bounds valid after each row's unobserved cells, filled from
        its center in ``old``, were refilled from its center in ``new``.

        A row moves only on those cells, so by at most the distance between
        its two fill centers, read from a table over all center pairs."""
        a, b = new.centroids.centers, old.centroids.centers
        # By blocks of new centers, so temporaries stay within _BLOCK_ROWS * k * p.
        table = np.concatenate([_distance_up(a[start:start + _BLOCK_ROWS, None, :], b)
                                for start in range(0, len(a), _BLOCK_ROWS)])
        move = table[new.assignment.labels, old.assignment.labels]
        self.loosen(move, move)


def kmeans_objective(data, a: Assignment, b: Centroids) -> float:
    """Within-cluster sum of squares of ``data`` under labels ``a`` and centers ``b``."""
    data = _as_data(data)
    if len(a) != data.shape[0]:
        raise ShapeMismatchError(f"{len(a)} labels for {data.shape[0]} rows")
    if b.n_features != data.shape[1]:
        raise ShapeMismatchError(
            f"centers have {b.n_features} features, data has {data.shape[1]}"
        )
    try:
        diff = b.centers.take(a.labels, axis=0)
    except IndexError:  # labels are nonnegative, so the largest is out of range
        raise IndexError(f"label {int(a.labels.max())} out of range for k={b.k}") from None
    np.subtract(data, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(diff.sum())


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
    check_k(k, n)
    rng = np.random.default_rng(seed)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = np.full(n, np.inf)
    duplicated = False
    for i in range(1, k):
        # Each row's distance to the newest center, a block of rows at a time
        # so the differences stay small, kept where it is the nearest yet.
        center = data[chosen[i - 1:i]]
        for start in range(0, n, _BLOCK_ROWS):
            near = d2[start:start + _BLOCK_ROWS]
            np.minimum(near, _sq_dists(data[start:start + _BLOCK_ROWS], center)[:, 0], out=near)
        total = d2.sum()
        if not np.isfinite(total):
            raise InfeasibleError(
                "squared distances overflow; the data's scale is too large to seed k-means"
            )
        if total > 0:
            chosen[i] = rng.choice(n, p=d2 / total)
        else:
            # Every row coincides with an existing center.
            chosen[i] = rng.integers(n)
            duplicated = True
    if duplicated:
        warnings.warn(
            "fewer than k distinct rows; duplicate centers selected",
            DuplicateCentersWarning,
            stacklevel=2,
        )
    return Centroids(centers=data[chosen])


def assign_step(data, b: Centroids, bounds: RowBounds | None = None) -> Assignment:
    """Assign each row to its nearest center (squared Euclidean distance).

    Ties go to the lowest cluster index. With ``bounds``, the state of a warm
    solve, rows whose bounds prove their label keep it with no distance work,
    the rest are assigned and get new bounds, and ``bounds`` holds the
    result; the labels are the same as without.
    """
    data = _as_data(data)
    if b.n_features != data.shape[1]:
        raise ShapeMismatchError(
            f"centers have {b.n_features} features, data has {data.shape[1]}"
        )
    if bounds is None:
        labels = np.empty(data.shape[0], dtype=np.int64)
        for start in range(0, data.shape[0], _BLOCK_ROWS):
            block = data[start:start + _BLOCK_ROWS]
            labels[start:start + _BLOCK_ROWS] = _block_labels(block, b.centers)[0]
        return Assignment(labels=labels)
    if bounds.labels.shape != (data.shape[0],):
        raise ShapeMismatchError(f"bounds for {len(bounds.labels)} rows, data has {data.shape[0]}")
    # Blocks of undecided rows, never one gather of them all: that would copy
    # most of the data on the first sweeps.
    undecided = bounds.undecided(data.shape[1])
    for start in range(0, undecided.size, _BLOCK_ROWS):
        rows = undecided[start:start + _BLOCK_ROWS]
        bounds.record(rows, *_block_labels(data[rows], b.centers))
    return Assignment(labels=bounds.labels)


def update_step(data, a: Assignment, k: int) -> Centroids:
    """Move each center to the mean of its assigned rows.

    A cluster left empty is re-seeded with the data row farthest from its own
    (freshly updated) centroid; with several empty clusters each repair takes
    a distinct row. Deterministic.
    """
    data = _as_data(data)
    check_k(k)
    labels = a.labels
    if len(a) != data.shape[0]:
        raise ShapeMismatchError(f"{len(a)} labels for {data.shape[0]} rows")
    counts = np.bincount(labels, minlength=k)
    # Labels are nonnegative, so one out of range makes the counts longer than k.
    if counts.size > k:
        raise IndexError(f"label {counts.size - 1} out of range for k={k}")
    p = data.shape[1]
    # One bin per (cluster, column) cell, numbered c p + j and gathered row by
    # row from a table of them; each bin adds its rows in row order, exactly
    # as np.add.at would.
    cells = np.arange(k * p).reshape(k, p).take(labels, axis=0)
    sums = np.bincount(cells.ravel(), weights=data.ravel(), minlength=k * p).reshape(k, p)
    # An empty cluster's sums are 0, so its center is 0 until the repair below.
    centers = sums / np.maximum(counts, 1)[:, None]

    empty = (counts == 0).nonzero()[0]
    if empty.size:
        own_d2 = np.sum((data - centers[labels]) ** 2, axis=1)
        for cluster in empty:
            far = int(np.argmax(own_d2))
            centers[cluster] = data[far]
            own_d2[far] = -np.inf  # each repair takes a distinct row
    return Centroids(centers=centers)


def _lloyd_single(data: np.ndarray, k: int, centers: Centroids, max_iter: int, tol: float,
                  bounds: RowBounds | None = None) -> KMeansResult:
    assignment = None
    obj = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        labels = assign_step(data, centers, bounds=bounds)
        # The data is the same within a solve, so when the labels repeat, the
        # update and the objective would repeat the current ones bit for bit.
        if assignment is not None and not (labels.labels != assignment.labels).any():
            converged = True
            break
        assignment, previous = labels, centers
        centers = update_step(data, assignment, k)
        if bounds is not None:
            bounds.centers_moved(previous, centers)
        prev_obj, obj = obj, kmeans_objective(data, assignment, centers)
        # The first sweep never stops: it has nothing to compare against. A
        # non-finite previous objective makes the relative decrease NaN.
        if iterations > 1 and (prev_obj == 0 or (prev_obj - obj) / prev_obj < tol):
            converged = True
            break
    return KMeansResult(assignment=assignment, centroids=centers, objective=obj,
                        iterations=iterations, converged=converged)


def lloyd(data, k: int, seed=None, max_iter: int = 100, tol: float = 1e-6,
          n_init: int = 1, init: Centroids | None = None,
          bounds: RowBounds | None = None) -> KMeansResult:
    """Run Lloyd's method to a local optimum of the within-cluster sum of squares.

    Stops when the assignment repeats, when the relative objective decrease
    drops below ``tol``, or after ``max_iter`` sweeps. A repeated assignment
    stops the sweep before its update: the result is the previous sweep's
    centers and objective, which that update would reproduce bit for bit.
    The objective is non-increasing across sweeps. With ``init=None``,
    centers come from ``n_init`` distance-squared seedings and the best
    final objective wins; with an explicit ``init`` a single warm-started run
    is performed, and ``bounds`` (a :class:`RowBounds` for the rows of
    ``data``, updated in place) lets its sweeps skip rows whose label cannot
    change, with the same result. Deterministic given ``seed``.
    """
    data = _as_data(data)
    check_k(k, data.shape[0])
    _check_settings(max_iter, tol, n_init)
    if init is not None:
        if init.k != k or init.n_features != data.shape[1]:
            raise ShapeMismatchError(
                f"init centers shape {init.centers.shape} incompatible with k={k}, p={data.shape[1]}"
            )
        return _lloyd_single(data, k, init, max_iter, tol, bounds)
    if bounds is not None:
        raise ValueError("bounds apply only to a warm start from init")

    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _lloyd_single(data, k, kmeanspp_init(data, k, seed=rng), max_iter, tol)
        if best is None or result.objective < best.objective:
            best = result
    return best
