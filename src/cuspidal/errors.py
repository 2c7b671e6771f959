"""Exception hierarchy shared by the library and the command line tool, and the
one helper through which every verified identity is checked.

Exit-code mapping used by the CLI: UsageError -> 1, InconclusiveError -> 2,
InternalCheckError (and bare AssertionError) -> 3.

check(ok, detail, *args, name=None) raises InternalCheckError with
detail.format(*args) when ok is false; the message is built only then, and an
argument given as a function is called then for the value it shows. A
passing check with a name is recorded in `ledger`, a dict of the names in the
order first recorded, when one is open: cli.main opens one per run and prints
it as the run's assertions. Outside the command line the ledger is None and
nothing is recorded.
"""

from __future__ import annotations

from contextvars import ContextVar


class UsageError(ValueError):
    """Invalid input: malformed element, field mismatch, non-generating pair."""


class ZeroIdealError(UsageError):
    """The zero ideal was requested where a nonzero ideal is required."""


class InconclusiveError(RuntimeError):
    """A bounded search ran out of budget before reaching a verdict.

    Raised instead of ever returning a possibly wrong answer.
    """


class InternalCheckError(AssertionError):
    """A theorem-backed identity failed; indicates a bug, not bad input."""


ledger: ContextVar[dict[str, None] | None] = ContextVar("ledger", default=None)


def check(ok: object, detail: str, *args: object, name: str | None = None) -> None:
    """Raise InternalCheckError(detail.format(*args)) unless ok, calling each
    function among args first; record a passing named check in the open ledger."""
    if not ok:
        raise InternalCheckError(detail.format(*(a() if callable(a) else a for a in args)))
    if name is not None and (names := ledger.get()) is not None:
        names[name] = None
