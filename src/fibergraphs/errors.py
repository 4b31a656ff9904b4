"""Exception types raised across the package.

Every error carries enough context in its message to locate the offending
input (row/column indices are reported 1-based, matching the file formats).
"""

from __future__ import annotations


class FiberGraphsError(Exception):
    """Base class for all package errors."""


# --- table validation ---

class NegativeEntryError(FiberGraphsError):
    def __init__(self, row: int, col: int, value: int):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"negative entry {value} at row {row}, column {col}")


class RowSumMismatchError(FiberGraphsError):
    def __init__(self, row: int, total: int, expected: int):
        self.row, self.total, self.expected = row, total, expected
        super().__init__(f"row {row} sums to {total}, expected {expected}")


class ColumnSumMismatchError(FiberGraphsError):
    def __init__(self, col: int, total: int, expected: int):
        self.col, self.total, self.expected = col, total, expected
        super().__init__(f"column {col} sums to {total}, expected {expected}")


class MarginMismatchError(FiberGraphsError):
    pass


class InvalidDimensionError(FiberGraphsError):
    pass


class InvalidMoveError(FiberGraphsError):
    pass


# --- enumeration ---

class SizeLimitExceededError(FiberGraphsError):
    def __init__(self, cap: int, context: str = "enumeration"):
        self.cap = cap
        super().__init__(f"{context} exceeded the configured cap of {cap}")


# --- graph construction ---

class UnsupportedFormatError(FiberGraphsError):
    pass


class NotAnAutomorphismError(FiberGraphsError):
    pass


# --- graph analysis ---

class DisconnectedGraphError(FiberGraphsError):
    pass


class AdjacentPairError(FiberGraphsError):
    pass


class NotDistanceTwoError(FiberGraphsError):
    pass


# --- decomposition ---

class NoPerfectMatchingError(FiberGraphsError):
    pass


class ConstraintInfeasibleError(FiberGraphsError):
    pass

