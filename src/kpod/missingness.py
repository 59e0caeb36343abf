"""Synthetic data generation and amputation.

Amputation deliberately hides entries of a complete matrix to simulate one of
the three standard missingness mechanisms:

* MCAR: hidden cells chosen uniformly over the whole matrix.
* MAR: hidden cells chosen uniformly, but only within a fixed set of columns
  (missingness depends on which variable a cell belongs to, not its value).
* NMAR: within each column, cells holding the smallest values are hidden
  (missingness depends on the value that goes missing).

All generators take the exact number of cells needed to land on the target
rate, so the achieved missingness matches the target up to rounding, and every
row and column is guaranteed to keep at least one observed entry.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, QuantileFallbackWarning
from .kmeans import Assignment, check_count, check_nonnegative, is_real
from .masked import MaskedMatrix

__all__ = [
    "Mechanism",
    "MechanismSpec",
    "MixtureSpec",
    "simulate_mixture",
    "perturb_dataset",
    "ampute",
]


class Mechanism(enum.Enum):
    MCAR = "mcar"
    MAR = "mar"
    NMAR = "nmar"

    @classmethod
    def parse(cls, name: str) -> "Mechanism":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # not a string, or not a mechanism name
            raise InfeasibleError(
                f"unknown mechanism {name!r}; expected one of "
                + ", ".join(m.value for m in cls)
            ) from None


@dataclass(frozen=True)
class MechanismSpec:
    """Which mechanism to simulate, at what overall rate, with what seed."""

    kind: Mechanism
    target_rate: float
    mar_columns: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        if not is_real(self.target_rate) or not 0 < self.target_rate < 1:
            raise ValueError(f"target_rate must be in (0, 1), got {self.target_rate}")
        if self.kind is Mechanism.MAR:
            if not self.mar_columns:
                raise ValueError("MAR requires a non-empty mar_columns")
            # JSON may write column 2 as 2.0; 1.5 and true name no column.
            columns = [int(c) if isinstance(c, float) and c.is_integer() else c
                       for c in self.mar_columns]
            for c in columns:
                check_count("mar_columns", c, minimum=0)
            object.__setattr__(self, "mar_columns", tuple(int(c) for c in columns))


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture with isotropic components that differ only in their means.

    Component means are drawn i.i.d. N(0, center_sd^2) per coordinate; each row
    picks a component uniformly and adds N(0, noise_variance * I) noise.
    """

    n: int
    p: int
    k: int
    center_sd: float = 10.0
    noise_variance: float = 10.0
    seed: int | None = None

    def __post_init__(self):
        for name in ("n", "p", "k"):
            check_count(name, getattr(self, name))
        # noise_variance 0 is allowed: rows then equal their component mean
        # exactly, which is the useful degenerate case for recovery tests.
        check_nonnegative("center_sd", self.center_sd)
        check_nonnegative("noise_variance", self.noise_variance)


def simulate_mixture(spec: MixtureSpec) -> tuple[np.ndarray, Assignment]:
    """Draw a complete (n, p) dataset and its generating labels."""
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(0.0, spec.center_sd, size=(spec.k, spec.p))
    labels = rng.integers(spec.k, size=spec.n)
    noise = rng.normal(0.0, math.sqrt(spec.noise_variance), size=(spec.n, spec.p))
    np.add(noise, means[labels], out=noise)  # the bits of means[labels] + noise
    return noise, Assignment(labels=labels)


def perturb_dataset(values, rel_sd: float, seed=None) -> np.ndarray:
    """Add per-column Gaussian noise with sd = rel_sd * |column mean|.

    Scaling the noise to each column's mean keeps the perturbation
    proportionate across variables of very different magnitudes. Columns whose
    mean is zero receive no noise.
    """
    values = np.asarray(values, dtype=float)
    check_nonnegative("rel_sd", rel_sd)
    if rel_sd == 0:
        return values.copy()
    rng = np.random.default_rng(seed)
    scale = np.abs(rel_sd * values.mean(axis=0))
    return values + rng.standard_normal(values.shape) * scale


def _spread_counts(total: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Split ``total`` cells over ``n_cols`` columns as evenly as possible."""
    base, extra = divmod(total, n_cols)
    counts = np.full(n_cols, base, dtype=np.int64)
    if extra:
        counts[rng.choice(n_cols, size=extra, replace=False)] += 1
    return counts


def _mask_mar(shape: tuple[int, int], total: int, columns: tuple[int, ...],
              rng: np.random.Generator) -> np.ndarray:
    n, p = shape
    cols = np.asarray(sorted(set(columns)), dtype=np.int64)
    if cols.max() >= p:
        raise InfeasibleError(f"mar_columns out of range for p={p}")
    capacity = n * cols.size
    if total > capacity:
        raise InfeasibleError(
            f"target rate needs {total} missing cells but the {cols.size} "
            f"MAR columns only hold {capacity}"
        )
    chosen = np.zeros((n, cols.size), dtype=bool)
    chosen.reshape(-1)[rng.choice(capacity, size=total, replace=False)] = True
    if cols.size == p:  # every column, as under MCAR: the draw is the whole mask
        return chosen
    missing = np.zeros(shape, dtype=bool)
    missing[:, cols] = chosen
    return missing


def _mask_nmar(values: np.ndarray, total: int, rng: np.random.Generator) -> np.ndarray:
    """Hide the smallest values in each column.

    Per column, the candidates are every cell at or below the column's
    bottom-quantile cutoff for the required count; the exact number of cells
    is then drawn at random from those candidates, so ties are broken fairly
    and the achieved rate is exact while masked cells still sit at the bottom
    of each column's distribution.
    """
    per_column = _spread_counts(total, values.shape[1], rng)
    hit = per_column > 0
    ordered = np.sort(values, axis=0)
    cutoffs = ordered[np.maximum(per_column - 1, 0), np.arange(values.shape[1])]
    # In C order whatever the layout of values, as every mask ampute returns.
    missing = np.less_equal(values, cutoffs, order="C")
    missing &= hit
    # Only a column with ties at its cutoff has more candidates than cells to
    # hide; those columns draw, in column order.
    for j in np.flatnonzero(missing.sum(axis=0) > per_column):
        candidates = np.flatnonzero(missing[:, j])
        missing[:, j] = False
        missing[rng.choice(candidates, size=int(per_column[j]), replace=False), j] = True
    fell_back = np.flatnonzero(hit & (ordered[0] == ordered[-1])).tolist()
    if fell_back:
        warnings.warn(
            f"columns {fell_back} have a single distinct value; masked "
            "uniformly at random instead of by quantile",
            QuantileFallbackWarning,
            stacklevel=3,
        )
    return missing


def _keep_rows_and_columns_observed(missing: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Un-mask one uniformly chosen cell in any fully masked row or column."""
    n, p = missing.shape
    for i in np.flatnonzero(missing.all(axis=1)):
        missing[i, rng.integers(p)] = False
    for j in np.flatnonzero(missing.all(axis=0)):
        missing[rng.integers(n), j] = False
    return missing


def ampute(values, spec: MechanismSpec) -> MaskedMatrix:
    """Hide entries of a complete matrix according to ``spec``.

    The input array is never modified. The returned matrix stores 0.0 at the
    hidden cells (the mask is authoritative); oracles that need the hidden
    originals should keep the input array alongside the returned mask.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InfeasibleError(f"expected a 2-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InfeasibleError("amputation requires a complete (all finite) matrix")
    n, p = values.shape
    rng = np.random.default_rng(spec.seed)
    total = int(round(spec.target_rate * n * p))
    total = min(max(total, 0), n * p - 1)

    if spec.kind is Mechanism.NMAR:
        missing = _mask_nmar(values, total, rng)
    else:
        # MCAR is MAR over every column: the same draw of flat cell indices.
        columns = range(p) if spec.kind is Mechanism.MCAR else spec.mar_columns
        missing = _mask_mar((n, p), total, columns, rng)

    missing = _keep_rows_and_columns_observed(missing, rng)
    return MaskedMatrix(values=values, observed=~missing)
