"""Exception types raised by the kpod package."""

__all__ = [
    "KPodError",
    "ShapeMismatchError",
    "DegenerateColumnError",
    "DegenerateRowError",
    "InfeasibleError",
    "DeletionInfeasibleError",
    "CsvParseError",
    "DuplicateCentersWarning",
    "QuantileFallbackWarning",
]


class KPodError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(KPodError):
    """Two arrays that must share a shape do not."""


class DegenerateColumnError(KPodError):
    """A column has no observed entries."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has no observed entries")


class DegenerateRowError(KPodError):
    """A row has no observed entries, so there is nothing to cluster on."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has no observed entries")


class InfeasibleError(KPodError):
    """The requested operation cannot be satisfied by the input."""


class DeletionInfeasibleError(InfeasibleError):
    """Every column contains at least one missing entry, so column deletion
    leaves nothing to cluster."""


class CsvParseError(KPodError):
    """A CSV cell or row could not be parsed; carries a 1-based location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class DuplicateCentersWarning(RuntimeWarning):
    """Seeding had to reuse a data row because fewer than k distinct rows exist."""


class QuantileFallbackWarning(RuntimeWarning):
    """A column had too few distinct values for value-dependent masking and
    was masked uniformly at random instead."""
