"""The one search budget of a run, and the error of a search that exhausts it.

The budget counts the primitive candidate ideals of class enumeration and the
rho-steps of each rho-cycle walk, and caps the A-window and the reduced
forms listed for a class number and the trial divisors of the squarefree test
and of factorize past 10^4. resolve_bound() is the budget: the value cli.main
opens in `budget` while `cusps` or `pic` runs (its --bound, else CUSPIDAL_BOUND,
else DEFAULT_BOUND), and otherwise CUSPIDAL_BOUND, else DEFAULT_BOUND.
"""

from __future__ import annotations

import os
from contextvars import ContextVar

from .errors import InconclusiveError, UsageError

DEFAULT_BOUND = 2_000_000

budget: ContextVar[int | None] = ContextVar("budget", default=None)


def resolve_bound() -> int:
    opened = budget.get()
    if opened is not None:
        return opened
    env = os.environ.get("CUSPIDAL_BOUND")
    if not env:
        return DEFAULT_BOUND
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"CUSPIDAL_BOUND must be a positive integer, got {env[:24]!r}")
    return value


def exhausted(search: str) -> InconclusiveError:
    """InconclusiveError for `search`, which ran out of budget, and the knobs that
    raise it: --bound only while `cusps` or `pic` runs."""
    knobs = "CUSPIDAL_BOUND" if budget.get() is None else "--bound or CUSPIDAL_BOUND"
    return InconclusiveError(f"{search}; raise it with {knobs}")
