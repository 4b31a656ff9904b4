"""Exception types raised across the package: one per non-zero exit code.

- ``FiberGraphsError``: bad input, a failed check or an unwritable output
  (exit 1).
- ``UsageError``: arguments that parse but ask for nothing the command can
  do (exit 2, as argparse's own errors).
- ``SizeLimitExceededError``: a resource guard tripped (exit 3).

``cli.main`` alone maps them to exit codes.  The type is the exit code and
the message is the diagnosis: it carries enough context to locate the
offending input (row/column indices are reported 1-based, matching the file
formats).
"""

from __future__ import annotations


class FiberGraphsError(Exception):
    """Base class for all package errors; exit 1."""


class UsageError(FiberGraphsError):
    """Arguments the command cannot act on; exit 2."""


class SizeLimitExceededError(FiberGraphsError):
    """A resource guard tripped; exit 3."""

    def __init__(self, cap: int, context: str = "enumeration"):
        self.cap = cap
        super().__init__(f"{context} exceeded the configured cap of {cap}")
