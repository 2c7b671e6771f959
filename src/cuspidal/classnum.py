"""Class numbers: reduced forms and the conductor formula.

Maximal orders of either sign are counted through the classes of their
reduced primitive forms; non-maximal Picard groups come from the closed
conductor formula. The brute-force enumeration that cross-checks it lives
in `oracles`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import check
from .quadfield import QuadField
from .quadideal import Order, canonical_form, reduced_forms
from .units import _conductor_factor, unit_index
from .value import Value


class PicSize(Value):
    """Picard group size plus the route that produced it."""

    __slots__ = ("order", "h", "method")


@lru_cache(maxsize=None)
def class_number_maximal(field: QuadField) -> PicSize:
    """Class number h_K: the number of distinct canonical forms among the
    reduced forms of discriminant d_K, computed once per field."""
    forms = reduced_forms(field.disc_max)
    h = len({canonical_form(q) for q in forms})
    return PicSize(Order(field, 1), h, "reduced-forms")


@lru_cache(maxsize=None)
def picard_order(order: Order) -> PicSize:
    """|Pic(O_f)| by the conductor formula over the maximal class number.

    h(O_f) = h_K * prod_{p^k || f} p^(k-1) * (p - (d_K/p)) / [O_K^x : O_f^x]
    (Cox, Primes of the Form x^2+ny^2, Thm 7.24).
    """
    field, f = order.field, order.f
    num = class_number_maximal(field).h * _conductor_factor(field, f)
    den = unit_index(field, f)
    check(num % den == 0, "conductor formula is not integral for {}: {}/{}", order, num, den)
    return PicSize(order, num // den, "conductor-formula")
