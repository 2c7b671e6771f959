"""Unit groups of quadratic orders.

Real fields: the fundamental unit of the maximal order comes from the
rho-cycle of the principal form, walked by the one budgeted rho-walk of
quadideal, the reduction theory that also gives class keys; the unit of the
order of conductor f is the least power whose omega-coefficient is divisible
by f. Imaginary fields only carry torsion.

fundamental_unit is memoised per field and conductor, one of the memos
the README lists; everything returned is a frozen value type.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import UsageError, check
from .quadfield import QuadElt, QuadField
from .quadideal import QuadForm, _rho_walk
from .value import Value


class UnitInfo(Value):
    """Generators of the unit group of the order Z + Z*f*omega.

    fundamental is None exactly when the field is imaginary, and equals the
    fundamental unit of O_1 to the power power_in_maximal otherwise."""

    __slots__ = ("field", "f", "fundamental", "power_in_maximal", "torsion_gen",
                 "torsion_order", "has_norm_minus_one")

    def __init__(self, field: QuadField, f: int, fundamental: QuadElt | None,
                 power_in_maximal: int, torsion_gen: QuadElt, torsion_order: int,
                 has_norm_minus_one: bool) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "fundamental", fundamental)
        object.__setattr__(self, "power_in_maximal", power_in_maximal)
        object.__setattr__(self, "torsion_gen", torsion_gen)
        object.__setattr__(self, "torsion_order", torsion_order)
        object.__setattr__(self, "has_norm_minus_one", has_norm_minus_one)


def _step_product(ts: list[int]) -> tuple[int, int, int, int]:
    """Row-major product of the matrices [[0, -1], [1, t]] over ts, in order,
    multiplied as a balanced tree: neighbours pair up level by level, so the
    big products are few and of equal size, not one per step."""
    mats = [(0, -1, 1, t) for t in ts] or [(1, 0, 0, 1)]
    while len(mats) > 1:
        nxt = [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
               for (a, b, c, d), (e, f, g, h) in zip(mats[0::2], mats[1::2])]
        mats = nxt + mats[len(nxt) * 2:]
    return mats[0]


def _principal_cycle_unit(field: QuadField) -> QuadElt:
    """Fundamental unit (> 1) of the maximal order from the rho-cycle of the
    reduced principal form q0 = (1, b, (b^2 - D)/4), b the largest integer
    below sqrt(D) with b = D mod 2 (Cohen, GTM 138, 5.7). The rho step
    (A, B, C) -> (C, B', C') substitutes [[0, -1], [1, t]], t = (B' + B)/(2C);
    the product up to the stop of q0's _rho_walk, q0 or (-1, b, -(b^2 - D)/4),
    has a first column (x0, y0) giving (|2*x0 + b*y0| + |y0|*sqrt(D))/2, of
    norm -1 at the second stop, the last rho(q) walked. Only the t's are kept,
    whose product grows to the size of the unit, and they are multiplied out
    (_step_product) once the walk stops."""
    disc = field.disc_max
    s = math.isqrt(disc)
    b = s - (s - disc) % 2
    q0 = QuadForm(1, b, (b * b - disc) // 4)
    ts = []
    for q, nxt in _rho_walk(q0, disc, s):
        ts.append((nxt.B + q.B) // (2 * q.C))
    x0, _, y0, _ = _step_product(ts)
    # eps = (T + U*sqrt(D))/2 with sqrt(D) = 2*omega - trace(omega)
    big_t, big_u = abs(2 * x0 + b * y0), abs(y0)
    eps = QuadElt(field, (big_t - big_u * field.omega_trace) // 2, big_u)
    check(eps.norm() == (1 if nxt == q0 else -1),
          "cycle element {} is not a unit of the expected norm", eps)
    return eps


@lru_cache(maxsize=None)
def fundamental_unit(field: QuadField, f: int = 1) -> UnitInfo:
    """Unit group description of the order of conductor f."""
    if f < 1:
        raise UsageError(f"conductor must be >= 1, got {str(f)[:24]}")
    minus_one = QuadElt(field, -1, 0)
    if field.is_imaginary:
        if f == 1 and field.m == -1:
            torsion_gen, torsion_order = field.omega, 4
        elif f == 1 and field.m == -3:
            torsion_gen, torsion_order = field.omega, 6
        else:
            torsion_gen, torsion_order = minus_one, 2
        check(torsion_gen.norm() == 1 or torsion_order == 2,
              "torsion generator {} has norm other than 1", torsion_gen)
        return UnitInfo(field, f, None, 1, torsion_gen, torsion_order, False)

    # one walk of the principal cycle per field: the conductors share its unit
    eps = _principal_cycle_unit(field) if f == 1 else fundamental_unit(field, 1).fundamental
    power = eps
    k = 1
    cap = f * f + 2
    while power.b % f != 0:
        power = power * eps
        k += 1
        check(k <= cap, "unit power search exceeded its cap")
    check(abs(power.norm()) == 1, "powered unit lost its norm")
    return UnitInfo(field, f, power, k, minus_one, 2, power.norm() == -1)


def unit_index(field: QuadField, f: int) -> int:
    """Index [O_1^x : O_f^x]: the quotient of the torsion orders if imaginary, else
    the power of the maximal order's fundamental unit that generates O_f^x."""
    sub = fundamental_unit(field, f)
    if field.is_imaginary:
        sup = fundamental_unit(field, 1)
        check(sup.torsion_order % sub.torsion_order == 0, "torsion orders are not nested")
        return sup.torsion_order // sub.torsion_order
    return sub.power_in_maximal
