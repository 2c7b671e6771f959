"""Class numbers: reduced forms and the conductor formula.

Maximal orders of either sign are counted through the classes of their
reduced primitive forms; non-maximal Picard groups come from the closed
conductor formula. The brute-force enumeration that cross-checks it lives
in `oracles`.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import factorize
from .errors import check
from .quadfield import QuadField
from .quadideal import Order, canonical_form, reduced_forms
from .units import unit_index
from .value import Value


class PicSize(Value):
    """Picard group size plus the route that produced it."""

    __slots__ = ("order", "h", "method")

    def __init__(self, order: Order, h: int, method: str) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "method", method)


@lru_cache(maxsize=None)
def class_number_maximal(field: QuadField) -> PicSize:
    """Class number h_K: the number of distinct canonical forms among the
    reduced forms of discriminant d_K, computed once per field."""
    forms = reduced_forms(field.disc_max)
    h = len({canonical_form(q) for q in forms})
    return PicSize(Order(field, 1), h, "reduced-forms")


def _kronecker_at_prime(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) at a prime p, for a fundamental discriminant."""
    if p == 2:
        return 0 if disc % 2 == 0 else (1 if disc % 8 == 1 else -1)
    r = pow(disc, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@lru_cache(maxsize=None)
def picard_order(order: Order) -> PicSize:
    """|Pic(O_f)| by the conductor formula over the maximal class number.

    h(O_f) = h_K * prod_{p^k || f} p^(k-1) * (p - (d_K/p)) / [O_K^x : O_f^x]
    (Cox, Primes of the Form x^2+ny^2, Thm 7.24).
    """
    field, f = order.field, order.f
    num = class_number_maximal(field).h
    for p, k in factorize(f).items():
        num *= p ** (k - 1) * (p - _kronecker_at_prime(field.disc_max, p))
    den = unit_index(field, f)
    check(num % den == 0, "conductor formula is not integral for {}: {}/{}", order, num, den)
    return PicSize(order, num // den, "conductor-formula")
