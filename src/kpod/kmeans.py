"""Complete-data k-means: Lloyd's alternating minimization with distance-squared
proportional seeding, deterministic under a supplied seed."""

from __future__ import annotations

import math
import sys
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
    """A (k, p) matrix whose rows are cluster centers, in C order whatever the caller's layout."""

    centers: np.ndarray

    def __post_init__(self):
        # A copy, so freezing it below leaves the caller's array writable.
        centers = np.array(self.centers, dtype=float, order="C")
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
    """The rule of :class:`EngineSettings`, which :func:`lloyd` judges its
    arguments by without building one."""
    check_count("max_iter", max_iter)
    check_positive("tol", tol)
    check_count("n_init", n_init)


def is_real(value) -> bool:
    """Whether ``value`` is an int or a float, numpy's included, but not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``minimum``. A bool
    is not a count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


def check_nonnegative(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a real from 0 to the largest float."""
    if not is_real(value) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number >= 0")


def check_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a real above 0, up to the largest float."""
    if not is_real(value) or not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number > 0")


def check_rate(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a real strictly between 0 and 1."""
    if not is_real(value) or not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is None or an integer >= 0; a bool is not a seed."""
    if seed is not None:
        check_count("seed", seed, minimum=0)


def _generator(seed) -> np.random.Generator:
    """``seed`` if it is a numpy Generator, else a new one from the checked seed."""
    if not isinstance(seed, np.random.Generator):
        check_seed(seed)
    return np.random.default_rng(seed)  # returns a Generator unaltered


def check_k(k, n: int | None = None) -> None:
    """Raise ValueError unless ``k`` is a count, an integer >= 1 (a bool is not
    one), and InfeasibleError if it asks for more centers than ``n`` rows hold."""
    check_count("k", k)
    if n is not None and k > n:
        raise InfeasibleError(f"need k <= n rows, got k={k}, n={n}")


def check_type(name: str, value, *kinds: type) -> None:
    """Raise ValueError unless the setting ``value`` is an instance of one of ``kinds``."""
    if not isinstance(value, kinds):
        raise ValueError(f"{name} must be {' or '.join(kind.__name__ for kind in kinds)}")


def check_finite(name: str, values: np.ndarray) -> None:
    """Raise InfeasibleError unless every cell of ``values``, the array ``name``, is finite."""
    if not np.isfinite(values).all():
        raise InfeasibleError(f"{name} must be finite")


def _as_data(data, a: Assignment | None = None, b: Centroids | None = None) -> np.ndarray:
    """``data`` as a 2-D float array in C order, copied if it is in another
    layout, so every sum runs in one order and any layout has the C copy's bits.
    ShapeMismatchError unless it is 2-D, has one row per label of ``a`` and,
    for centers ``b``, one column per feature."""
    data = np.asarray(data, dtype=float, order="C")
    if data.ndim != 2:
        raise ShapeMismatchError(f"data must be 2-D, got shape {data.shape}")
    if a is not None and len(a) != data.shape[0]:
        raise ShapeMismatchError(f"{len(a)} labels for {data.shape[0]} rows")
    if b is not None and b.n_features != data.shape[1]:
        raise ShapeMismatchError(f"centers have {b.n_features} features, data has {data.shape[1]}")
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


def _built(cls, **fields):
    """A ``cls`` wrapper around the arrays in ``fields``, made read-only,
    without the checks or copies of its constructor: for arrays the package
    has just built, which those checks cannot fail."""
    wrapper = object.__new__(cls)
    for name, array in fields.items():
        array.flags.writeable = False
        object.__setattr__(wrapper, name, array)
    return wrapper


def _row_sq(rows: np.ndarray) -> np.ndarray:
    """|x|^2 of each row. A row's value does not depend on the rows around
    it, so norms of a whole matrix, sliced, equal those of its blocks."""
    return np.einsum("ij,ij->i", rows, rows)


def _center_terms(centers: np.ndarray):
    """What :func:`_gemm_argmin` needs of the centers, for every block of a
    sweep: the centers, -2c, |c|^2 as a column, and max |c|^2 plus the
    smallest normal number."""
    c_sq = np.einsum("kp,kp->k", centers, centers)
    return centers, -2.0 * centers, c_sq[:, None], c_sq.max() + _TINY


@np.errstate(over="ignore", invalid="ignore")
def _gemm_argmin(block: np.ndarray, terms, x_sq: np.ndarray | None = None):
    """Nearest-center labels of ``block`` by GEMM, and the rows GEMM cannot decide.

    GEMM gives |c|^2 - 2x.c, the squared distance less |x|^2, which moves no
    argmin. With s = |x|^2 + max |c|^2, a value of it and the matching value
    of :func:`_sq_dists` together err by at most (2p + 3) eps s, so a row
    whose two smallest values lie more than 8 (p + 4) eps s apart, over twice
    that, has the exact path's label. The rest are unsure: near and exact
    ties, and rows whose bound is not finite: rows not finite, and rows with
    4 s past the largest float, whose exact distances (at most 2 s) may
    overflow to ties at inf that only the index breaks. A finite bound keeps
    every value finite, and so the margin, except at k = 1, where the margin
    is inf and the one center decides the row. Adding the smallest normal
    number to s covers the absolute error of gradual underflow. Overflow
    here is expected and handled, so it raises no warning.

    ``terms`` are the centers' :func:`_center_terms`, and ``x_sq``, if
    given, the rows' |x|^2. The values are laid out one row per center, so
    that every reduction over the centers runs along the outer axis,
    elementwise over the block.

    Also returns, for :class:`RowBounds`, the two smallest GEMM values, |x|^2
    and that margin bound: ``value + |x|^2`` errs from the true squared
    distance by far less than the bound.
    """
    centers, minus_2c, c_sq, c_top = terms
    dists = minus_2c @ block.T
    dists += c_sq
    best = dists.argmin(axis=0)
    at_best = best, np.arange(block.shape[0])
    nearest = dists[at_best]
    # Hide each row's ``best`` value: the smallest left is at another center.
    dists[at_best] = np.inf
    second = dists.min(axis=0)
    margin = second - nearest
    if x_sq is None:
        x_sq = _row_sq(block)
    bound = (4 * (x_sq + c_top)) * (2 * (centers.shape[1] + 4) * _EPS)
    unsure = (~(margin > bound)).nonzero()[0]
    return best, unsure, (nearest, second, x_sq, bound)


def _block_labels(block: np.ndarray, terms, x_sq: np.ndarray | None = None):
    """:func:`_gemm_argmin`, with its unsure rows decided by the exact path."""
    best, unsure, gemm = _gemm_argmin(block, terms, x_sq)
    if unsure.size:
        rows = block[unsure]
        check_finite("data", rows)  # a row not finite has no finite bound, so is unsure
        best[unsure] = np.argmin(_sq_dists(rows, terms[0]), axis=1)
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
    """Within-cluster sum of squares of ``data`` under labels ``a`` and centers ``b``:
    inf if it overflows, InfeasibleError for data that is not finite."""
    data = _as_data(data, a, b)
    try:
        model = b.centers.take(a.labels, axis=0)
    except IndexError:  # labels are nonnegative, so the largest is out of range
        raise IndexError(f"label {int(a.labels.max())} out of range for k={b.k}") from None
    return _objective(data, model)


@np.errstate(over="ignore")
def _objective(data: np.ndarray, model: np.ndarray) -> float:
    """:func:`kmeans_objective` against ``model``, the C-ordered gather of each
    row's center, which it overwrites with the squared differences; inf on overflow."""
    np.subtract(data, model, out=model)
    np.multiply(model, model, out=model)
    total = float(model.sum())
    if not math.isfinite(total):  # an overflow, or data that is not finite
        check_finite("data", data)
    return total


@np.errstate(over="ignore", invalid="ignore")
def kmeanspp_init(data, k: int, seed=None, *, _x_sq: np.ndarray | None = None) -> Centroids:
    """Choose k starting centers by distance-squared proportional sampling.

    The first center is a uniformly chosen data row; each subsequent center is
    a data row sampled with probability proportional to its squared distance
    to the nearest center chosen so far. Deterministic given ``seed``.

    On data past one block, a pass after the first skips each row
    whose lower bound on its distance to the newest center c, the GEMV value
    |x|^2 - 2x.c + |c|^2 less 8 (p + 4) eps (|x|^2 + |c|^2 + tiny), is at
    least its nearest distance so far. That margin, :func:`_gemm_argmin`'s,
    covers the rounding of the GEMV and of :func:`_sq_dists`, so the exact
    distance is no smaller and the minimum would keep the nearest distance
    bit for bit. A bound that is not a number skips nothing.

    If the data holds fewer than k distinct rows the leftover centers are
    duplicates, flagged with :class:`DuplicateCentersWarning`. Data that is
    not finite, and squared distances whose sum overflows, also to the one
    center of k = 1, raise :class:`InfeasibleError`, with no numpy warning.
    """
    # _x_sq: the rows' |x|^2, which lloyd computes once for all its seedings and solves.
    data = _as_data(data)
    n = data.shape[0]
    check_k(k, n)
    rng = _generator(seed)
    # Within one block a pass is one block of exact distances either way.
    bounded = n > _BLOCK_ROWS
    x_sq = (_row_sq(data) if _x_sq is None else _x_sq) if bounded else None
    slack = 8 * (data.shape[1] + 4) * _EPS

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = np.full(n, np.inf)
    duplicated = False
    # At k = 1 the loop runs once, to check the distances to the one center.
    for i in range(1, max(k, 2)):
        # Each row's distance to the newest center, a block of rows at a time
        # so the differences stay small, kept where it is the nearest yet.
        center = data[chosen[i - 1:i]]
        blocks = [slice(at, at + _BLOCK_ROWS) for at in range(0, n, _BLOCK_ROWS)]
        if x_sq is not None and i > 1:  # the first pass, from inf, skips nothing
            c = center[0]
            c_sq = c @ c
            lower = data @ (-2 * c) + c_sq + x_sq - slack * (x_sq + c_sq + _TINY)
            rows = (~(lower >= d2)).nonzero()[0]
            if 2 * rows.size <= n:  # past half the rows, a gather costs more than a plain pass
                blocks = [rows[at:at + _BLOCK_ROWS] for at in range(0, rows.size, _BLOCK_ROWS)]
        for block in blocks:
            d2[block] = np.minimum(d2[block], _sq_dists(data[block], center)[:, 0])
        total = d2.sum()
        if not np.isfinite(total):
            check_finite("data", data)
            raise InfeasibleError(
                "squared distances overflow; the data's scale is too large to seed k-means"
            )
        if k == 1:
            break
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


def assign_step(data, b: Centroids, bounds: RowBounds | None = None, *,
                _x_sq: np.ndarray | None = None) -> Assignment:
    """Assign each row to its nearest center (squared Euclidean distance).

    Ties go to the lowest cluster index. With ``bounds``, the state of a warm
    solve, rows whose bounds prove their label keep it with no distance work,
    the rest are assigned and get new bounds, and ``bounds`` holds the
    result; the labels are the same as without. Data that is not finite is infeasible.
    """
    # _x_sq: the rows' |x|^2, which a solve without bounds computes once for all its sweeps.
    data = _as_data(data, b=b)
    terms = _center_terms(b.centers)
    if bounds is None:
        x_sq = _row_sq(data) if _x_sq is None else _x_sq
        # An empty matrix is one empty block.
        labels = [_block_labels(data[start:start + _BLOCK_ROWS], terms,
                                x_sq[start:start + _BLOCK_ROWS])[0]
                  for start in range(0, max(len(data), 1), _BLOCK_ROWS)]
        return _built(Assignment, labels=labels[0] if len(labels) == 1 else np.concatenate(labels))
    if bounds.labels.shape != (data.shape[0],):
        raise ShapeMismatchError(f"bounds for {len(bounds.labels)} rows, data has {data.shape[0]}")
    # Blocks of undecided rows, never one gather of them all: that would copy
    # most of the data on the first sweeps.
    undecided = bounds.undecided(data.shape[1])
    for start in range(0, undecided.size, _BLOCK_ROWS):
        rows = undecided[start:start + _BLOCK_ROWS]
        bounds.record(rows, *_block_labels(data[rows], terms))
    # A copy: the next sweep changes bounds.labels in place.
    return _built(Assignment, labels=bounds.labels.copy())


def update_step(data, a: Assignment, k: int) -> Centroids:
    """Move each center to the mean of its assigned rows.

    A cluster left empty is re-seeded with the data row farthest from its own
    (freshly updated) centroid; with several empty clusters each repair takes
    a distinct row. Deterministic. Data that is not finite, and a cluster sum
    that overflows, raise :class:`InfeasibleError`.
    """
    data = _as_data(data, a)
    check_k(k)
    labels = a.labels
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
        # Overflow gives inf, still the farthest; data that is not finite is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            own_d2 = np.sum((data - centers[labels]) ** 2, axis=1)
        for cluster in empty:
            far = int(np.argmax(own_d2))
            centers[cluster] = data[far]
            own_d2[far] = -np.inf  # each repair takes a distinct row
    if not np.isfinite(centers).all():
        check_finite("data", data)
        raise InfeasibleError("cluster sums overflow; the data's scale is too large for k-means")
    return _built(Centroids, centers=centers)


def _lloyd_single(data: np.ndarray, k: int, centers: Centroids, max_iter: int, tol: float,
                  bounds: RowBounds | None = None, x_sq: np.ndarray | None = None) -> KMeansResult:
    # x_sq: the rows' |x|^2; a sweep with bounds takes those of the rows it does not skip.
    assignment = None
    obj = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        labels = assign_step(data, centers, bounds=bounds, _x_sq=x_sq)
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


def lloyd(data, k: int, seed=None, max_iter: int = EngineSettings.max_iter,
          tol: float = EngineSettings.tol, n_init: int = EngineSettings.n_init,
          init: Centroids | None = None, bounds: RowBounds | None = None) -> KMeansResult:
    """Run Lloyd's method to a local optimum of the within-cluster sum of squares.

    Stops when the assignment repeats, when the relative objective decrease
    drops below ``tol``, or after ``max_iter`` sweeps. A repeated assignment
    stops the sweep before its update: the result is the previous sweep's
    centers and objective, which that update would reproduce bit for bit.
    The objective is non-increasing across sweeps. With ``init=None``,
    centers come from ``n_init`` distance-squared seedings and the best
    final objective wins; with an explicit ``init`` of k centers, a single
    warm-started run is performed, and ``bounds`` (a :class:`RowBounds` for
    the rows of ``data``, updated in place) lets its sweeps skip rows whose
    label cannot change, with the same result. Deterministic given ``seed``.
    """
    data = _as_data(data)
    check_k(k, data.shape[0])
    _check_settings(max_iter, tol, n_init)
    if init is not None:
        if init.k != k:
            raise ShapeMismatchError(f"init has {init.k} centers, k={k}")
    elif bounds is not None:
        raise ValueError("bounds apply only to a warm start from init")
    # The rows do not change within a call: their norms serve every seeding and solve.
    x_sq = _row_sq(data) if bounds is None else None
    if init is not None:
        return _lloyd_single(data, k, init, max_iter, tol, bounds, x_sq)

    rng = _generator(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        centers = kmeanspp_init(data, k, seed=rng, _x_sq=x_sq)
        result = _lloyd_single(data, k, centers, max_iter, tol, x_sq=x_sq)
        if best is None or result.objective < best.objective:
            best = result
    return best
