"""Unit groups of quadratic orders.

Real fields: the fundamental unit of the maximal order comes from the
rho-cycle of the principal form, walked by the one budgeted rho-walk of
quadideal, the reduction theory that also gives class keys. The order of
conductor f has the unit eps^k, k the order of eps in (O_K/f)^x / (Z/f)^x
(Cox, Primes of the Form x^2+ny^2, 7.24), found on residues mod f; eps^k is
expanded only when asked for. Imaginary fields only carry torsion.

fundamental_unit is memoised per field and conductor, one of the memos
the README lists; everything returned is a frozen value type.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import _element_order, factorize
from .errors import UsageError, check
from .quadfield import QuadElt, QuadField
from .quadideal import QuadForm, _rho_walk
from .value import Value


class UnitInfo(Value):
    """Generators of the unit group of the order Z + Z*f*omega.

    maximal is None exactly when the field is imaginary, and otherwise the unit eps > 1
    of O_1 whose power k = power_in_maximal generates the units of O_f up to sign."""

    __slots__ = ("field", "f", "maximal", "power_in_maximal", "torsion_gen",
                 "torsion_order", "has_norm_minus_one")

    @property
    def fundamental(self) -> QuadElt | None:
        """eps^k, expanded anew on each call: it has about k times the digits of eps."""
        return None if self.maximal is None else self.maximal ** self.power_in_maximal


def _kronecker_at_prime(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) at a prime p, for a fundamental discriminant."""
    if p == 2:
        return 0 if disc % 2 == 0 else (1 if disc % 8 == 1 else -1)
    r = pow(disc, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _conductor_factor(field: QuadField, f: int) -> int:
    """|(O_K/f)^x / (Z/f)^x| = prod_{p^e || f} p^(e-1) * (p - (d_K/p))."""
    return math.prod(p ** (e - 1) * (p - _kronecker_at_prime(field.disc_max, p))
                     for p, e in factorize(f).items())


def _power_mod(eps: QuadElt, k: int, n: int) -> tuple[int, int]:
    """The coordinates of eps^k over (1, omega) mod n, by square-and-multiply on ints."""
    r, s = eps.field.omega_sq
    a, b, x, y = 1 % n, 0, eps.a % n, eps.b % n
    while k:
        if k & 1:
            a, b = (a * x + b * y * r) % n, (a * y + b * x + b * y * s) % n
        x, y = (x * x + y * y * r) % n, (2 * x * y + y * y * s) % n
        k >>= 1
    return a, b


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
    eps = _principal_cycle_unit(field) if f == 1 else fundamental_unit(field, 1).maximal
    # eps^j lies in O_f = Z + f*O_K exactly when f divides its omega-coefficient
    k = _element_order(_conductor_factor(field, f), lambda j: _power_mod(eps, j, f)[1] == 0)
    return UnitInfo(field, f, eps, k, minus_one, 2, eps.norm() == -1 and k % 2 == 1)


def unit_index(field: QuadField, f: int) -> int:
    """Index [O_1^x : O_f^x]: the quotient of the torsion orders if imaginary, else
    the power k of the maximal order's fundamental unit that generates O_f^x, the
    order of that unit in (O_K/f)^x / (Z/f)^x."""
    sub = fundamental_unit(field, f)
    if field.is_imaginary:
        sup = fundamental_unit(field, 1)
        check(sup.torsion_order % sub.torsion_order == 0, "torsion orders are not nested")
        return sup.torsion_order // sub.torsion_order
    return sub.power_in_maximal
