"""Desk-scale search budgets.

The budget counts the primitive candidate ideals of class enumeration
(one per square root of the discriminant mod 4a), and caps both the window
of A values and the number of reduced forms listed for a class number.
Neither search guesses: when its budget is exhausted it raises
InconclusiveError. The default budget can be overridden with the
CUSPIDAL_BOUND environment variable, the --bound option, or per call via
a `bound` argument.
"""

from __future__ import annotations

import os

from .errors import UsageError

DEFAULT_BOUND = 2_000_000


def resolve_bound(bound: int | None = None) -> int:
    if bound is not None:
        if bound < 1:
            raise UsageError(f"bound must be positive, got {bound}")
        return bound
    env = os.environ.get("CUSPIDAL_BOUND")
    if not env:
        return DEFAULT_BOUND
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"CUSPIDAL_BOUND must be a positive integer, got {env!r}")
    return value
