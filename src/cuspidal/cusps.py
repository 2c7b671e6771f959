"""Cusp counts for the modular curve attached to a quadratic order.

The divisor formula sums, over divisors f' of the conductor f, the term
phi(f/f') * |Pic(O_f')|, halved whenever O_f' has a unit of norm -1 and
f/f' exceeds 2. The direct enumeration it must agree with lives in
`oracles`.
"""

from __future__ import annotations

from .arith import divisors, euler_phi
from .classnum import picard_order
from .quadideal import Order
from .units import fundamental_unit
from .value import Value


class CuspTerm(Value):
    """One divisor's share of the cusp count."""

    __slots__ = ("f_prime", "n0", "phi", "halved", "pic")

    @property
    def contribution(self) -> int:
        return (self.phi // 2 if self.halved else self.phi) * self.pic.h


class CuspBreakdown(Value):
    """Cusp count of an order together with its per-divisor terms."""

    __slots__ = ("order", "terms")

    @property
    def total(self) -> int:
        return sum(t.contribution for t in self.terms)


def cusp_count(order: Order) -> CuspBreakdown:
    """Cusp count by the divisor formula, with the full breakdown."""
    field = order.field
    terms = []
    for f_prime in divisors(order.f):
        n0 = order.f // f_prime
        phi = euler_phi(n0)
        # the budgeted class number first, so that an oversized field stops there
        pic = picard_order(Order(field, f_prime))
        halved = fundamental_unit(field, f_prime).has_norm_minus_one and n0 > 2
        terms.append(CuspTerm(f_prime, n0, phi, halved, pic))
    return CuspBreakdown(order, tuple(terms))

