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
from .kmeans import (Assignment, _as_data, _generator, check_count, check_finite,
                     check_nonnegative, check_rate, check_seed, check_type)
from .masked import MaskedMatrix, _keep

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
    """Which mechanism to simulate, at what overall rate, with what seed. ``mar_columns``,
    indices >= 0, are judged whenever given; only MAR reads them, and needs one."""

    kind: Mechanism
    target_rate: float
    mar_columns: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        check_type("kind", self.kind, Mechanism)
        check_rate("target_rate", self.target_rate)
        check_seed(self.seed)
        if self.mar_columns is not None:
            for c in self.mar_columns:
                check_count("mar_columns", c, minimum=0)
            object.__setattr__(self, "mar_columns", tuple(int(c) for c in self.mar_columns))
        if self.kind is Mechanism.MAR and not self.mar_columns:
            raise ValueError("MAR requires a non-empty mar_columns")


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
        check_seed(self.seed)


def simulate_mixture(spec: MixtureSpec) -> tuple[np.ndarray, Assignment]:
    """Draw a complete (n, p) dataset and its generating labels; InfeasibleError if it overflows."""
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(0.0, spec.center_sd, size=(spec.k, spec.p))
    labels = rng.integers(spec.k, size=spec.n)
    noise = rng.normal(0.0, math.sqrt(spec.noise_variance), size=(spec.n, spec.p))
    np.add(noise, means[labels], out=noise)  # the bits of means[labels] + noise
    check_finite(f"a draw at center_sd={spec.center_sd}, noise_variance={spec.noise_variance}", noise)
    return noise, Assignment(labels=labels)


def perturb_dataset(values, rel_sd: float, seed=None) -> np.ndarray:
    """Add per-column Gaussian noise with sd = rel_sd * |column mean|.

    Scaling the noise to each column's mean keeps the perturbation
    proportionate across variables of very different magnitudes. Columns whose
    mean is zero receive no noise. ``values`` must be 2-D (ShapeMismatchError);
    values or noise that are not finite raise InfeasibleError, not a numpy warning.
    """
    values = _as_data(values)
    check_finite("values", values)
    check_nonnegative("rel_sd", rel_sd)
    rng = _generator(seed)
    if rel_sd == 0 or values.size == 0:
        return values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        perturbed = values + rng.standard_normal(values.shape) * np.abs(rel_sd * values.mean(axis=0))
    if not np.isfinite(perturbed).all():
        raise InfeasibleError(f"perturbing with rel_sd={rel_sd} gives values that are not finite")
    return perturbed


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
    missing = values <= cutoffs
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

    The input array is never modified. The returned matrix stores +0.0 at the
    hidden cells (the mask is authoritative); oracles that need the hidden
    originals should keep the input array alongside the returned mask. A
    matrix not 2-D is a ShapeMismatchError, one empty or not finite infeasible.
    """
    values = _as_data(values)
    if values.size == 0:  # no row or column could keep an observed cell
        raise InfeasibleError(f"cannot ampute an empty matrix of shape {values.shape}")
    check_finite("values", values)
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
    observed = np.logical_not(missing, out=missing)
    # One copy of the input, zeroed off the mask; it and the mask are adopted as built.
    return MaskedMatrix._adopt(_keep(values, observed), observed)
