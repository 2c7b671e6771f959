"""Desk-scale search budgets.

The budget counts the primitive candidate ideals of class enumeration
(one per square root of the discriminant mod 4a) and the rho-steps of the
fundamental unit's principal-cycle walk, and caps the window of A values,
the reduced forms listed for a class number and the trial divisors of the
squarefree test. No search guesses: an exhausted budget raises
InconclusiveError. The default budget can be overridden with CUSPIDAL_BOUND,
with --bound on `cusps` and `pic`, or per call via a `bound` argument, which
the unit walk and the squarefree test do not take.
"""

from __future__ import annotations

import os

from .errors import UsageError

DEFAULT_BOUND = 2_000_000


def resolve_bound(bound: int | None = None) -> int:
    if bound is not None:
        if bound < 1:
            raise UsageError(f"bound must be positive, got {str(bound)[:24]}")
        return bound
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
