"""Unit groups of quadratic orders.

Real fields: the fundamental unit of the maximal order comes from the
continued fraction of omega (integer state, period detected by state
repetition); the unit of the order of conductor f is the least power whose
omega-coefficient is divisible by f. Imaginary fields only carry torsion.

The memoization below (functools.lru_cache) is the only shared state in the
package; everything returned is a frozen value type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalCheckError, UsageError
from .quadfield import OmegaKind, QuadElt, QuadField


@dataclass(frozen=True)
class UnitInfo:
    """Generators of the unit group of the order Z + Z*f*omega."""

    field: QuadField
    f: int
    fundamental: QuadElt | None  # None exactly when the field is imaginary
    power_in_maximal: int  # fundamental = (fundamental of O_1) ** this
    torsion_gen: QuadElt
    torsion_order: int
    has_norm_minus_one: bool


def _le_sqrt(x: int, d: int) -> bool:
    """x <= sqrt(d) for non-square d > 0."""
    return x <= 0 or x * x <= d


def _floor_surd(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d)) / q) for non-square d > 0 and q != 0."""
    s = math.isqrt(d)
    a = (p + s) // q

    def le(aa: int) -> bool:
        # aa <= (p + sqrt(d)) / q ?
        x = aa * q - p
        if q > 0:
            return _le_sqrt(x, d)
        return x >= 0 and x * x >= d

    while le(a + 1):
        a += 1
    while not le(a):
        a -= 1
    return a


def _cf_fundamental(field: QuadField) -> QuadElt:
    """Fundamental unit (> 1) of the maximal order via the expansion of omega."""
    d = field.m
    assert d > 1
    if field.omega_kind is OmegaKind.HALF:
        p, q = 1, 2
    else:
        p, q = 0, 1
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    quots: list[int] = []
    while (p, q) not in seen:
        seen[(p, q)] = len(states)
        states.append((p, q))
        a = _floor_surd(p, d, q)
        quots.append(a)
        # alpha' = 1 / (alpha - a) => p' = a*q - p, q' = (d - p'^2) / q
        p2 = a * q - p
        q2 = (d - p2 * p2) // q
        assert q2 * q == d - p2 * p2 and q2 != 0
        p, q = p2, q2
    start = seen[(p, q)]
    pj, qj = states[start]
    # product of the Moebius matrices [[a, 1], [1, 0]] over the cycle
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in quots[start:]:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    # eps = m10 * alpha_j + m11 with alpha_j = (pj + sqrt(d)) / qj
    a_num = m10 * pj + m11 * qj
    b_num = m10
    if field.omega_kind is OmegaKind.HALF:
        # sqrt(m) = 2*omega - 1
        coeff_a, coeff_b = a_num - b_num, 2 * b_num
    else:
        coeff_a, coeff_b = a_num, b_num
    if coeff_a % qj or coeff_b % qj:
        raise InternalCheckError("cycle unit is not integral over the omega basis")
    eps = QuadElt(field, coeff_a // qj, coeff_b // qj)
    if abs(eps.norm()) != 1:
        raise InternalCheckError(f"cycle element {eps} is not a unit")
    return eps


@lru_cache(maxsize=None)
def fundamental_unit(field: QuadField, f: int = 1) -> UnitInfo:
    """Unit group description of the order of conductor f."""
    if f < 1:
        raise UsageError(f"conductor must be >= 1, got {f}")
    minus_one = QuadElt(field, -1, 0)
    if field.is_imaginary:
        if f == 1 and field.m == -1:
            torsion_gen, torsion_order = field.omega, 4
        elif f == 1 and field.m == -3:
            torsion_gen, torsion_order = field.omega, 6
        else:
            torsion_gen, torsion_order = minus_one, 2
        assert torsion_gen.norm() == 1 or torsion_order == 2
        return UnitInfo(field, f, None, 1, torsion_gen, torsion_order, False)

    eps = _cf_fundamental(field)
    power = eps
    k = 1
    cap = f * f + 2
    while power.b % f != 0:
        power = power * eps
        k += 1
        if k > cap:
            raise InternalCheckError("unit power search exceeded its cap")
    if abs(power.norm()) != 1:
        raise InternalCheckError("powered unit lost its norm")
    return UnitInfo(field, f, power, k, minus_one, 2, power.norm() == -1)


def has_norm_minus_one(field: QuadField, f: int = 1) -> bool:
    return fundamental_unit(field, f).has_norm_minus_one


def unit_index(field: QuadField, f_sub: int, f_sup: int = 1) -> int:
    """Index [O_{f_sup}^x : O_{f_sub}^x]; requires f_sup | f_sub."""
    if f_sub % f_sup:
        raise UsageError(f"unit index needs f_sup | f_sub, got {f_sup}, {f_sub}")
    sub = fundamental_unit(field, f_sub)
    sup = fundamental_unit(field, f_sup)
    if field.is_imaginary:
        if sup.torsion_order % sub.torsion_order:
            raise InternalCheckError("torsion orders are not nested")
        return sup.torsion_order // sub.torsion_order
    if sub.power_in_maximal % sup.power_in_maximal:
        raise InternalCheckError("unit powers are not nested")
    return sub.power_in_maximal // sup.power_in_maximal
