"""Class numbers: one class enumeration and the conductor formula.

h_K of a real field is the number of classes that quadideal's class
enumeration finds in O_K: a fundamental discriminant has only primitive
forms, so the keys of O_K are its form classes, searched over Markov's
window and walked once per pair of rho-cycles. h_K of an imaginary field is
the number of reduced definite forms, each its own class, counted in Gauss's
window with no form built. Non-maximal Picard groups come from the closed
conductor formula. The brute-force enumeration that cross-checks it lives
in `oracles`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import sqrt_mods
from .config import exhausted, resolve_bound
from .errors import check
from .quadfield import QuadField
from .quadideal import Order, _keyed_classes
from .units import _conductor_factor, unit_index
from .value import Value


class PicSize(Value):
    """Picard group size plus the route that produced it."""

    __slots__ = ("order", "h", "method")


def _reduced_definite_count(disc: int) -> int:
    """The number of reduced primitive forms (A, B, C) of discriminant disc < 0,
    |B| <= A <= C with B >= 0 when |B| = A or A = C (Cohen, GTM 138, 5.3): A runs
    up to sqrt(|disc|/3) and B over the square roots of disc mod 4A in (-A, A].
    A window wider than resolve_bound(), or more forms than that, raise
    InconclusiveError."""
    s, bound = math.isqrt(-disc // 3), resolve_bound()
    if s > bound:
        raise exhausted(f"the A-window {s} of discriminant {disc} exceeds bound {bound}")
    count = 0
    for n, roots in sqrt_mods(disc, range(4, 4 * s + 1, 4)):
        a = n // 4
        # the roots below 2a are the residues of B mod 2a
        for r in roots[: len(roots) // 2]:
            b = r if r <= a else r - 2 * a
            c = (b * b - disc) // n
            if (a < c or (a == c and b >= 0)) and math.gcd(a, b, c) == 1:
                count += 1
        if count > bound:
            raise exhausted(f"reduced forms of discriminant {disc} exceed bound {bound}")
    return count


@lru_cache(maxsize=None)
def class_number_maximal(field: QuadField) -> PicSize:
    """Class number h_K, computed once per field: the classes of O_K that class
    enumeration finds for d_K > 0, the reduced definite forms for d_K < 0."""
    order = Order(field, 1)
    if field.is_imaginary:
        h = _reduced_definite_count(field.disc_max)
    else:
        h = len(_keyed_classes(order))
    return PicSize(order, h, "reduced-forms")


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
