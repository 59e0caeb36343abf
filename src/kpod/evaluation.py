"""Cluster-agreement scoring: the Rand and adjusted Rand indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kmeans import Assignment

__all__ = [
    "PairCounts",
    "pair_counts",
    "rand_index",
    "adjusted_rand_index",
]


@dataclass(frozen=True)
class PairCounts:
    """How the C(n,2) object pairs fall across two partitions.

    ``same_same`` pairs share a cluster in both partitions, ``diff_diff`` in
    neither; the two mixed counts cover the disagreements. The four counts
    always sum to n(n-1)/2.
    """

    same_same: int
    same_diff: int
    diff_same: int
    diff_diff: int

    @property
    def total(self) -> int:
        return self.same_same + self.same_diff + self.diff_same + self.diff_diff


def _labels(a) -> np.ndarray:
    if isinstance(a, Assignment):
        return a.labels
    return Assignment(labels=np.asarray(a)).labels


def _comb2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def _dense(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """The labels, renumbered 0, 1, ... in order if any is n or more, and the
    number of table rows they index, at most n."""
    top = int(labels.max())
    if top < labels.shape[0]:
        return labels, top + 1
    values, codes = np.unique(labels, return_inverse=True)
    return codes, values.size


def pair_counts(a, b) -> PairCounts:
    """Count pair agreements via the label contingency table, in O(n) memory:
    its cells are counted by joint label, renumbered as each side's are."""
    a, b = _labels(a), _labels(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two objects to compare partitions")
    (a, _), (b, kb) = _dense(a), _dense(b)
    cells = np.bincount(_dense(a * kb + b)[0])
    rows, cols = np.bincount(a), np.bincount(b)
    same_same = int(_comb2(cells).sum())
    same_a = int(_comb2(rows).sum())
    same_b = int(_comb2(cols).sum())
    total = n * (n - 1) // 2
    return PairCounts(
        same_same=same_same,
        same_diff=same_a - same_same,
        diff_same=same_b - same_same,
        diff_diff=total - same_a - same_b + same_same,
    )


def rand_index(a, b) -> float:
    """Fraction of object pairs on which two partitions agree.

    1 means the partitions are identical up to relabeling, 0 means no pair is
    treated the same way. Symmetric, and invariant to permuting either
    side's labels.
    """
    counts = pair_counts(a, b)
    return (counts.same_same + counts.diff_diff) / counts.total


def adjusted_rand_index(a, b) -> float:
    """Rand index corrected for chance agreement (Hubert-Arabie form).

    0 is the expected score of independent random partitions; 1 is perfect
    agreement. Identical partitions score 1 even in the degenerate all-same /
    all-singleton cases where the correction's denominator vanishes.
    """
    c = pair_counts(a, b)
    if c.same_diff == 0 and c.diff_same == 0:
        return 1.0
    numer = 2 * (c.same_same * c.diff_diff - c.same_diff * c.diff_same)
    denom = (c.same_same + c.same_diff) * (c.same_diff + c.diff_diff) + (
        c.same_same + c.diff_same
    ) * (c.diff_same + c.diff_diff)
    return numer / denom
