"""Dense matrices with a missingness mask, and observed-entry statistics.

A :class:`MaskedMatrix` pairs an ``(n, p)`` float array with a boolean mask of
the same shape (``True`` = observed). The mask is authoritative: every entry at
an unobserved position is stored as ``+0.0``, whose bits are all zero, so
downstream arithmetic stays finite no matter what a caller passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InfeasibleError, ShapeMismatchError
from .kmeans import _as_data, _built, check_finite

__all__ = [
    "MaskedMatrix",
    "ColumnStats",
    "project_observed",
    "fill_unobserved",
    "column_stats",
    "standardize",
]


@dataclass(frozen=True, eq=False)
class MaskedMatrix:
    """An ``(n, p)`` real matrix plus an observed-entry mask.

    Instances are immutable (the backing arrays are marked read-only) and all
    operations on them are pure functions, so they are safe to share across
    workers. The constructor copies the arrays a caller passes in, in C order
    whatever their layout, so results have the bits of the C copy and writing
    to the arrays later changes nothing here; arrays the package has just
    built itself are adopted as they are, through :meth:`_adopt`. Every
    unobserved cell holds +0.0 (all-zero bits), a contract the fills rely on.
    """

    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        values = _as_data(self.values)
        observed = np.array(self.observed, dtype=bool, order="C")
        if observed.shape != values.shape:
            raise ShapeMismatchError(
                f"mask shape {observed.shape} does not match values shape {values.shape}"
            )
        # The mask is authoritative; unobserved cells hold a fixed +0.0 sentinel,
        # so a check of every cell afterwards checks the observed ones. The
        # copies are this matrix's own, so it adopts them.
        adopted = self._adopt(_keep(values, observed), observed)
        object.__setattr__(self, "values", adopted.values)
        object.__setattr__(self, "observed", adopted.observed)

    @classmethod
    def _adopt(cls, values: np.ndarray, observed: np.ndarray) -> MaskedMatrix:
        """A matrix that holds ``values`` and ``observed`` themselves, made
        read-only, with no copy: for a float array and a boolean mask of one
        2-D shape that the package has just built, with +0.0 (all-zero bits)
        in every unobserved cell, which the fills rely on. Of the
        constructor's checks only finiteness is left, as a check of every
        cell."""
        if not np.isfinite(values).all():
            raise ValueError("observed entries must be finite")
        return _built(cls, values=values, observed=observed)

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


def _check_same_shape(x: MaskedMatrix, other, name: str) -> np.ndarray:
    other = np.asarray(other, dtype=float, order="C")
    if other.shape != x.shape:
        raise ShapeMismatchError(
            f"{name} shape {other.shape} does not match matrix shape {x.shape}"
        )
    check_finite(name, other)
    return other


@np.errstate(over="ignore")
def project_observed(x: MaskedMatrix, model) -> float:
    """Sum of squared differences between ``x`` and ``model`` over observed cells.

    Unobserved positions are ignored; the result is 0 exactly when the model agrees
    with ``x`` on every observed entry, inf on overflow, and a model not finite is infeasible.
    """
    model = _check_same_shape(x, model, "model")
    diff = np.subtract(x.values, model)
    np.multiply(diff, x.observed, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff))


def fill_unobserved(x: MaskedMatrix, source) -> np.ndarray:
    """Return a dense array equal to ``x`` where observed and ``source`` elsewhere.

    ``x`` itself is never mutated. A source that is not finite raises InfeasibleError.
    """
    source = _check_same_shape(x, source, "source")
    return _fill(x, source, ~x.observed)


def _keep(values: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The bytes of ``np.where(mask, values, 0.0)``, into ``out`` if given:
    each cell's bits times its mask bit, with no branch on the mask."""
    out = None if out is None else out.view(np.uint64)
    return np.multiply(values.view(np.uint64), mask, out=out).view(float)


def _fill(x: MaskedMatrix, source: np.ndarray, unobserved: np.ndarray, out=None) -> np.ndarray:
    """The bytes of ``np.where(x.observed, x.values, source)``, into ``out``
    if given: the source's bits off the mask OR the values' bits, all zero there."""
    filled = _keep(source, unobserved, out)
    bits = filled.view(np.uint64)
    bits |= x.values.view(np.uint64)
    return filled


def observed_means(x: MaskedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Observed-entry column means and observed counts.

    Raises :class:`DegenerateColumnError` for any column with no observed
    entries, and :class:`InfeasibleError` for any column whose mean overflows,
    naming the first offending column. It raises no numpy warning.
    """
    counts = x.col_observed_counts()
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise DegenerateColumnError(int(empty[0]))
    # Unobserved cells are stored as 0.0, so plain column sums are masked sums.
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.values.sum(axis=0) / counts
    overflowed = np.flatnonzero(~np.isfinite(means))
    if overflowed.size:
        raise InfeasibleError(
            f"column {int(overflowed[0])}: observed mean is not finite; its scale is too large"
        )
    return means, counts


def column_stats(x: MaskedMatrix) -> ColumnStats:
    """Observed-entry column means and sample standard deviations.

    Raises :class:`DegenerateColumnError` for any column with no observed
    entries, and :class:`InfeasibleError` naming the first column whose mean,
    else whose standard deviation, overflows. It raises no numpy warning.
    """
    means, counts = observed_means(x)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x.values - means
        np.multiply(centered, x.observed, out=centered)
        np.multiply(centered, centered, out=centered)
        std_devs = np.sqrt(np.sum(centered, axis=0) / np.maximum(counts - 1, 1))
    std_devs[counts < 2] = 0.0
    overflowed = np.flatnonzero(~np.isfinite(std_devs))
    if overflowed.size:
        raise InfeasibleError(f"column {int(overflowed[0])}: observed standard deviation "
                              "is not finite; its scale is too large")
    return ColumnStats(means=means, std_devs=std_devs, counts=counts)


def standardize(x: MaskedMatrix) -> tuple[MaskedMatrix, ColumnStats]:
    """Center and scale each column using observed-entry statistics.

    Observed entries become ``(v - mean) / sd``; zero-variance columns are
    centered only (divided by 1) so constant columns come out as zeros rather
    than NaNs. The mask is unchanged. Returns the stats that were used so
    results can be mapped back to the original scale.

    Raises the errors of :func:`column_stats`: dividing by a standard deviation
    that overflows would zero its column without a sign that anything went wrong.
    """
    stats = column_stats(x)
    scale = np.where(stats.std_devs > 0, stats.std_devs, 1.0)
    scaled = x.values - stats.means
    np.divide(scaled, scale, out=scaled)
    _keep(scaled, x.observed, out=scaled)
    # The mask is read-only, so the result may share it.
    return MaskedMatrix._adopt(scaled, x.observed), stats
