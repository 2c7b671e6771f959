"""Exhaustive reference routes.

Each function here recomputes by plain enumeration a number that the
library obtains another way, with no shared formula, so the two can be
compared: Picard sizes against the conductor formula, cusp counts against
the divisor sum, and curve unit counts against q^(k-1) * (q - 1). _Span, dense
echelon rows over the coefficient field, backs that unit count and the colon
nullspace conductor_h_solver, which checks curvering.
They are slow by design and serve the cross-checks of the command line, the
self-test, the tests and the demos; at f = 1 in a real field they rerun the class
enumeration that gives h_K, and the tests' form oracle is the independent check.
Each function imports the modules of its own ring family when it runs, so a curve
check loads no class numbers and a cusp check no curve ring.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd, lcm
from typing import TYPE_CHECKING

from .arith import primitive_part
from .errors import UsageError, check
from .quadideal import Order, _checked_conductor, _keyed_classes

if TYPE_CHECKING:
    from .classnum import PicSize
    from .fieldpoly import CoeffField, CurvePoly


def _class_conductors(order: Order) -> list[int]:
    """The multiplier conductor f/g of each class, g its key's content, verified."""
    return [_checked_conductor(rep, g) for (g, _), rep in _keyed_classes(order).items()]


def brute_force_pic(order: Order) -> PicSize:
    """|Pic(O_f)| by enumerating ideal classes and keeping the invertible ones."""
    from .classnum import PicSize

    return PicSize(order, _class_conductors(order).count(order.f), "brute-force")


def cusp_count_direct(order: Order) -> int:
    """Cusp count with no class-number formula: enumerate the ideal classes and
    add each class's orbit count on generating pairs, a function of f' alone."""
    from .genpairs import orbit_count_sl2_mod_units

    counts = Counter(_class_conductors(order))
    return sum(k * orbit_count_sl2_mod_units(order, f_prime) for f_prime, k in counts.items())


def curve_unit_group_brute(field: CoeffField, n: int, nu: int) -> int:
    """Same count as curve_unit_group_order, by exhausting the finite
    quotient ring.

    R/Fitt_1 has the basis x^0, x^2, ..., x^(2k-2) with k = (n-1-nu)/2, and
    an element a is a unit exactly when multiplication by a is a bijection,
    that is when its k x k matrix on that basis has full rank mod q.
    """
    from .curvering import _check_n

    _check_n(n, nu)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    q, k = field.char, (n - 1 - nu) // 2
    count = 0
    for a in product(range(q), repeat=k):
        # row j is a * x^(2j), truncated at x^(2k)
        span = _Span(field)
        for j in range(k):
            span.add([0] * j + list(a[: k - j]))
        count += len(span.rows) == k
    return count


# ---------------------------------------------------------------------------
# dense linear algebra over the coefficient field, on rows of ints: residues
# mod p with pivot 1, or over Q primitive rows with a positive pivot, reduced
# fraction-free, v = d*v - c*b (Bareiss 1968; Cohen, GTM 138, section 2.2);
# the reduced echelon form is canonical in both cases.


def _eliminate(p: int, vec: list[int], b: list[int], j: int) -> list[int]:
    """vec with column j cleared by the stored row b (b[j] is 1 mod p, or > 0)."""
    c = vec[j]
    if p:
        return [(x - c * y) % p for x, y in zip(vec, b)]
    d = b[j]
    g = gcd(c, d)
    c, d = c // g, d // g
    return primitive_part([d * x - c * y for x, y in zip(vec, b)])


class _Span:
    """A subspace of K^width held as echelon rows of ints, keyed by leading column."""

    def __init__(self, field: CoeffField):
        self.field = field
        self.rows: dict[int, list[int]] = {}

    def reduce(self, vec: list[int]) -> tuple[int | None, list[int]]:
        """(column, vec) with vec cleared at each pivot up to its first column
        with no pivot; the column is None exactly when vec lies in the span."""
        p, rows = self.field.char, self.rows
        for j in range(len(vec)):
            if vec[j]:
                b = rows.get(j)
                if b is None:
                    return j, vec
                vec = _eliminate(p, vec, b, j)
        return None, vec

    def add(self, vec: list[int]) -> list[int] | None:
        """Insert vec unless it lies in the span; return the stored row."""
        lead, vec = self.reduce(vec)
        if lead is None:
            return None
        p = self.field.char
        if p:
            inv = pow(vec[lead], -1, p)
            vec = [x * inv % p for x in vec]
        else:
            vec = primitive_part(vec)
            if vec[lead] < 0:
                vec = [-x for x in vec]
        self.rows[lead] = vec
        return vec

    def rref(self) -> list[tuple[int, list[int]]]:
        """Reduced echelon rows by back-substitution, pivots increasing."""
        p, done = self.field.char, {}
        for i in sorted(self.rows, reverse=True):
            vec = self.rows[i]
            for j, b in done.items():
                if vec[j]:
                    vec = _eliminate(p, vec, b, j)
            done[i] = vec
        return sorted(done.items())

    def kernel(self, width: int) -> list[CurvePoly]:
        """The polynomials h with rows @ h = 0, one per free column j: h_j = 1
        and h_i = -b[j]/b[i] for the reduced row b of pivot i, over one denominator."""
        from .fieldpoly import CurvePoly

        rref = self.rref()
        pivots = {i for i, _ in rref}
        out = []
        for j in range(width):
            if j in pivots:
                continue
            den = lcm(*(b[i] for i, b in rref if b[j]))
            vec = [0] * width
            vec[j] = den
            for i, b in rref:
                vec[i] = -b[j] * (den // b[i])
            out.append(CurvePoly.from_ints(self.field, vec, den))
        return out


def conductor_h_solver(field: CoeffField, n: int, p: CurvePoly,
                       q: CurvePoly) -> tuple[list[CurvePoly], int]:
    """Basis of {h : h*p and h*q lie in the ring} in degrees at most n.

    Returns the nullspace basis and its least valuation, which equals
    n - 1 - nu. Degree n keeps the tail x^(n-1) of the colon module
    visible; coefficients above it are free and add nothing below it.
    """
    from .curvering import _check_n

    _check_n(n)
    width = n + 1
    span = _Span(field)
    for g in (p, q):
        for j in range(1, n, 2):
            # the coefficient of x^j in h*g is sum_i h_i * g_(j-i)
            row = [0] * (j + 1 - len(g.nums)) + list(g.nums[j::-1])
            span.add(row + [0] * (width - j - 1))
    basis = span.kernel(width)
    check(basis, "colon module lost its conductor tail")
    min_val = min(b.valuation() for b in basis)
    return basis, min_val
