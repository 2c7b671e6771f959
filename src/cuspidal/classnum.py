"""Class numbers: reduced-form counts and the conductor formula.

Imaginary maximal orders are counted through reduced primitive forms; real
ones through the ideal-class enumeration. Non-maximal Picard groups come
from the closed conductor formula; the brute-force enumeration that
cross-checks it lives in `oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize
from .errors import InternalCheckError
from .quadfield import QuadField
from .quadideal import Order, enumerate_ideal_classes
from .units import unit_index


@dataclass(frozen=True)
class PicSize:
    """Picard group size plus the route that produced it."""

    order: Order
    h: int
    method: str


def reduced_form_count(disc: int) -> int:
    """Number of reduced primitive forms (A, B, C) of discriminant disc < 0.

    Reduction: |B| <= A <= C with B >= 0 whenever |B| = A or A = C.
    """
    assert disc < 0 and disc % 4 in (0, 1)
    count = 0
    b = disc % 2
    while b * b <= -disc // 3:
        m4 = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m4:
            if a and m4 % a == 0:
                c = m4 // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return count


@lru_cache(maxsize=None)
def class_number_maximal(field: QuadField, bound: int | None = None) -> PicSize:
    """Class number of the maximal order, computed once per field and bound."""
    order = Order(field, 1)
    if field.is_imaginary:
        return PicSize(order, reduced_form_count(field.disc_max), "reduced-forms")
    reps = enumerate_ideal_classes(order, bound=bound)
    return PicSize(order, len(reps), "class-enumeration")


def _kronecker_at_prime(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) at a prime p, for a fundamental discriminant."""
    if p == 2:
        return 0 if disc % 2 == 0 else (1 if disc % 8 == 1 else -1)
    r = pow(disc, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@lru_cache(maxsize=None)
def picard_order(order: Order, bound: int | None = None) -> PicSize:
    """|Pic(O_f)| by the conductor formula over the maximal class number.

    h(O_f) = h_K * prod_{p^k || f} p^(k-1) * (p - (d_K/p)) / [O_K^x : O_f^x]
    (Cox, Primes of the Form x^2+ny^2, Thm 7.24).
    """
    field, f = order.field, order.f
    num = class_number_maximal(field, bound=bound).h
    for p, k in factorize(f).items():
        num *= p ** (k - 1) * (p - _kronecker_at_prime(field.disc_max, p))
    den = unit_index(field, f, 1)
    if num % den:
        raise InternalCheckError(
            f"conductor formula is not integral for {order}: {num}/{den}"
        )
    return PicSize(order, num // den, "conductor-formula")
