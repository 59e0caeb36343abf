"""Dense matrices with a missingness mask, and observed-entry statistics.

A :class:`MaskedMatrix` pairs an ``(n, p)`` float array with a boolean mask of
the same shape (``True`` = observed). The mask is authoritative: every entry at
an unobserved position is stored as ``0.0``, so downstream arithmetic stays
finite no matter what a caller passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InfeasibleError, ShapeMismatchError

__all__ = [
    "MaskedMatrix",
    "ColumnStats",
    "project_observed",
    "fill_unobserved",
    "column_stats",
    "observed_means",
    "standardize",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MaskedMatrix:
    """An ``(n, p)`` real matrix plus an observed-entry mask.

    Instances are immutable (the backing arrays are marked read-only) and all
    operations on them are pure functions, so they are safe to share across
    workers.
    """

    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if values.ndim != 2:
            raise ShapeMismatchError(f"values must be 2-D, got shape {values.shape}")
        if observed.shape != values.shape:
            raise ShapeMismatchError(
                f"mask shape {observed.shape} does not match values shape {values.shape}"
            )
        # The mask is authoritative; unobserved cells hold a fixed 0.0 sentinel,
        # so a check of every cell afterwards checks the observed ones.
        values = np.where(observed, values, 0.0)
        if not np.isfinite(values).all():
            raise ValueError("observed entries must be finite")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "observed", _readonly(observed.copy()))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())

    @property
    def observed_fraction(self) -> float:
        return self.n_observed / self.observed.size

    def complete(self) -> bool:
        return bool(self.observed.all())

    def row_observed_counts(self) -> np.ndarray:
        return self.observed.sum(axis=1)

    def col_observed_counts(self) -> np.ndarray:
        return self.observed.sum(axis=0)


@dataclass(frozen=True, eq=False)
class ColumnStats:
    """Per-column mean, sample standard deviation, and observed count.

    Statistics are computed over observed entries only. Columns with fewer
    than two observed entries get a standard deviation of 0.
    """

    means: np.ndarray
    std_devs: np.ndarray
    counts: np.ndarray


def _check_same_shape(x: MaskedMatrix, other: np.ndarray) -> np.ndarray:
    other = np.asarray(other, dtype=float)
    if other.shape != x.shape:
        raise ShapeMismatchError(
            f"model shape {other.shape} does not match matrix shape {x.shape}"
        )
    return other


def project_observed(x: MaskedMatrix, model) -> float:
    """Sum of squared differences between ``x`` and ``model`` over observed cells.

    Unobserved positions are ignored entirely; the result is 0 exactly when
    the model agrees with ``x`` on every observed entry.
    """
    model = _check_same_shape(x, model)
    diff = np.subtract(x.values, model)
    np.multiply(diff, x.observed, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff))


def fill_unobserved(x: MaskedMatrix, source) -> np.ndarray:
    """Return a dense array equal to ``x`` where observed and ``source`` elsewhere.

    ``x`` itself is never mutated.
    """
    source = _check_same_shape(x, source)
    return np.where(x.observed, x.values, source)


def observed_means(x: MaskedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Observed-entry column means and observed counts.

    Raises :class:`DegenerateColumnError` for any column with no observed
    entries, naming the first offending column.
    """
    counts = x.col_observed_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DegenerateColumnError(int(empty[0]))
    # Unobserved cells are stored as 0.0, so plain column sums are masked sums.
    return x.values.sum(axis=0) / counts, counts


def column_stats(x: MaskedMatrix) -> ColumnStats:
    """Observed-entry column means and sample standard deviations.

    Raises :class:`DegenerateColumnError` for any column with no observed
    entries, naming the first offending column.
    """
    means, counts = observed_means(x)
    # The mask is stored in C order, so (values - means) * observed comes out
    # in C order; working in it keeps the column sums' order and bits even
    # when the values are in Fortran order.
    centered = np.subtract(x.values, means, order="C")
    np.multiply(centered, x.observed, out=centered)
    np.multiply(centered, centered, out=centered)
    ssq = np.sum(centered, axis=0)
    std_devs = np.sqrt(ssq / np.maximum(counts - 1, 1))
    std_devs[counts < 2] = 0.0
    return ColumnStats(means=means, std_devs=std_devs, counts=counts)


def standardize(x: MaskedMatrix) -> tuple[MaskedMatrix, ColumnStats]:
    """Center and scale each column using observed-entry statistics.

    Observed entries become ``(v - mean) / sd``; zero-variance columns are
    centered only (divided by 1) so constant columns come out as zeros rather
    than NaNs. The mask is unchanged. Returns the stats that were used so
    results can be mapped back to the original scale.

    Raises :class:`InfeasibleError` naming the first column whose mean or
    standard deviation overflows: dividing by it would turn the column into
    zeros without a sign that anything went wrong. It raises no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stats = column_stats(x)
    overflowed = np.flatnonzero(~(np.isfinite(stats.means) & np.isfinite(stats.std_devs)))
    if overflowed.size:
        raise InfeasibleError(
            f"column {int(overflowed[0])}: observed mean or standard deviation is not "
            "finite; its scale is too large to standardize"
        )
    scale = np.where(stats.std_devs > 0, stats.std_devs, 1.0)
    scaled = np.subtract(x.values, stats.means)
    np.divide(scaled, scale, out=scaled)
    return MaskedMatrix(values=scaled, observed=x.observed), stats
