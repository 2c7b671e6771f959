"""Desk-scale search budgets.

Bounded searches (principality, class enumeration, norm equations) never
guess: when a budget is exhausted they raise InconclusiveError. The default
budget can be overridden with the CUSPIDAL_BOUND environment variable or per
call via a `bound` argument.
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
