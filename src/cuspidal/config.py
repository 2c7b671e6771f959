"""The one search budget of a run, the error of a search that exhausts it, and
the size limits of curve input.

The budget counts the primitive candidate ideals of class enumeration (which
also gives a real field's class number) and the rho-steps of each rho-cycle
walk, and caps the A-window of class enumeration, the A-window and the
reduced forms counted for an imaginary class number and the trial divisors
of the squarefree test and of factorize past 10^4. resolve_bound() is
the budget: the value cli.main opens in `budget` while `cusps` or `pic` runs
(its --bound, else CUSPIDAL_BOUND, else DEFAULT_BOUND), and otherwise
CUSPIDAL_BOUND, else DEFAULT_BOUND.

MAX_N and MAX_EXPONENT live here, not in curvering and fieldpoly, which check
them, because the command's help text names them and needs neither module.
"""

from __future__ import annotations

import os
from contextvars import ContextVar

from .errors import InconclusiveError, UsageError

DEFAULT_BOUND = 2_000_000

# Planted ideals at n = 2001 peak at 0.3 MB of traced allocations over F_101 and
# 1.2 MB over Q (CPython 3.11, x86-64). The bound keeps the quadratic steps, Euclid
# mod primes near 2^30 and the canonical pair's series over Z, within seconds.
MAX_N = 2001

# the largest exponent a parsed polynomial may have; the dense coefficient
# list is as long as the exponent, so a larger one is refused before it is built
MAX_EXPONENT = 10_000

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
