"""Ideals of the monomial curve ring K[x^2, x^n] for odd n >= 3.

A polynomial lies in the ring exactly when its odd-degree coefficients
below n vanish. Every fractional ideal, once its polynomial content is
pulled out, contains the conductor x^(n-1)K[x], so it is captured by an
x^2-stable subspace of K[x]/x^(n-1) and all computations reduce to exact
linear algebra over the coefficient field. The canonical presentation of
an ideal is a pair (p, x^(nu+1)) with p of constant term 1; nu is the
even invariant whose complement n-1-nu is the least valuation in the
colon module (R : I), which is recomputed independently as a nullspace
and compared. nu is twice the codimension of that subspace, which contains
K[x^2]*p, of dimension (n-1)/2, and meets the odd monomials, uniserial over
K[x^2], in x^(nu+1)K[x^2].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import primitive_part
from .errors import InternalCheckError, UsageError, ZeroIdealError
from .fieldpoly import CoeffField, CurvePoly, poly_gcd_monic


# A module is held as up to (n-1)/2 dense rows of width n-1, so memory grows
# as n^2: reduction, Fitt_1 and the multiplier ring peak at about 125 MB at
# n = 2001 (CPython 3.11, x86-64).
MAX_N = 2001


def _check_n(n: int) -> None:
    if n < 3 or n % 2 == 0 or n > MAX_N:
        raise UsageError(f"the curve exponent must be odd and in [3, {MAX_N}], got {n}")


def curve_ring_contains(n: int, poly: CurvePoly) -> bool:
    """Membership in K[x^2, x^n]: odd-degree coefficients below n vanish."""
    _check_n(n)
    return not any(poly.nums[1:n:2])


# ---------------------------------------------------------------------------
# linear algebra over the coefficient field, on plain integers
#
# Rows are lists of ints read straight off CurvePoly numerators: residues
# mod p, or over Q the coefficients times their common denominator, which
# spans the same line. Over F_p every stored row has pivot 1. Over Q rows
# are kept primitive: elimination is fraction-free, v = d*v - c*b with d and
# c divided by their gcd, and the result is divided by its content (Bareiss
# 1968; Cohen, GTM 138, section 2.2). Stored rows over Z have a positive
# pivot, so the reduced echelon form is canonical in both cases. Field
# elements appear only in basis(), for the public module_basis.


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
        """Clear vec at each pivot column up to its first column with no pivot.

        Returns that column and the reduced vector; the column is None
        exactly when vec lies in the span.
        """
        p, rows = self.field.char, self.rows
        for j in range(len(vec)):
            if vec[j]:
                b = rows.get(j)
                if b is None:
                    return j, vec
                vec = _eliminate(p, vec, b, j)
        return None, vec

    def __contains__(self, vec: list[int]) -> bool:
        return self.reduce(vec)[0] is None

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

    def close(self, todo: list[list[int]]) -> "_Span":
        """Grow to the smallest x^2-stable span that also contains todo."""
        while todo:
            row = self.add(todo.pop())
            if row is not None:
                todo.append([0, 0] + row[:-2])
        return self

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

    def basis(self) -> list[tuple[int, list]]:
        """The reduced echelon basis in field elements, each pivot 1."""
        coerce = self.field.coerce
        return [(i, [coerce(Fraction(x, vec[i])) for x in vec]) for i, vec in self.rref()]

    def kernel(self, width: int) -> list[CurvePoly]:
        """The polynomials h with rows @ h = 0, one per free column.

        From the reduced rows b with pivot i: h_j = 1 at a free column j and
        h_i = -b[j]/b[i], over a common denominator.
        """
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


# ---------------------------------------------------------------------------
# the quotient model W = M / x^(n-1)K[x]


def _vec(poly: CurvePoly, n: int) -> list[int]:
    """The coefficients of x^0, ..., x^(n-2) as ints, over Q times their denominator."""
    row = list(poly.nums[: n - 1])
    return row + [0] * (n - 1 - len(row))


# ---------------------------------------------------------------------------
# ideals in canonical form


@dataclass(frozen=True)
class CurveIdeal:
    """content * (R*p + R*q) with canonical p and monomial q.

    p has constant term 1 and degree at most n-2; q is zero exactly for
    the unit ideal, x^(nu+1) when nu < n-1, and x^(n-1) when nu = n-1
    for a non-principal module. nu is always even.
    """

    field: CoeffField
    n: int
    content: CurvePoly
    p: CurvePoly
    q: CurvePoly
    nu: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if self.content.is_zero or self.content.coeff(self.content.degree) != self.field.one:
            raise UsageError("the content must be a monic polynomial")
        if self.nu % 2 or not 0 <= self.nu <= self.n - 1:
            raise UsageError(f"nu must be even in [0, {self.n - 1}], got {self.nu}")
        if self.p.is_zero or self.p.coeff(0) != self.field.one or self.p.degree > self.n - 2:
            raise UsageError("p must have constant term 1 and degree below n-1")
        if self.q.is_zero:
            if self.nu != self.n - 1 or self.p != CurvePoly.one(self.field):
                raise UsageError("a zero q is only allowed for the unit ideal")
        else:
            expected = self.nu + 1 if self.nu < self.n - 1 else self.n - 1
            if self.q != CurvePoly.monomial(self.field, expected):
                raise UsageError("q must be the monomial x^(nu+1), or x^(n-1) at the top")

    def _span(self) -> _Span:
        return _Span(self.field).close([_vec(self.p, self.n), _vec(self.q, self.n)])

    def module_basis(self) -> list[tuple[int, list]]:
        """Echelon basis of the content-free module modulo x^(n-1)K[x]."""
        return self._span().basis()

    def contains(self, poly: CurvePoly) -> bool:
        """Membership of a polynomial in content * (R*p + R*q)."""
        if poly.is_zero:
            return True
        quot, rem = poly.divmod_by(self.content)
        if not rem.is_zero:
            return False
        return _vec(quot, self.n) in self._span()

    def same_module(self, other: "CurveIdeal") -> bool:
        if self.field != other.field or self.n != other.n:
            return False
        return self.content == other.content and self._span().rref() == other._span().rref()


def curve_ideal_from_generators(
    field: CoeffField, n: int, gens: list[CurvePoly]
) -> CurveIdeal:
    """Canonical form of the ideal generated by the given polynomials."""
    _check_n(n)
    live = [g for g in gens if not g.is_zero]
    if not live:
        raise ZeroIdealError("all generators are zero")
    content = CurvePoly.zero(field)
    for g in live:
        content = poly_gcd_monic(content, g)
    reduced = []
    for g in live:
        quot, rem = g.divmod_by(content)
        assert rem.is_zero
        reduced.append(quot)

    w = _Span(field).close([_vec(g, n) for g in reduced])
    w_rref = w.rref()
    if not w_rref or w_rref[0][0] != 0:
        raise InternalCheckError("content-free module has no unit-valuation element")
    p_row = w_rref[0][1]
    p = CurvePoly.from_ints(field, p_row, p_row[0])

    # K[x]/x^(n-1) = P + O, P = K[x^2]*p of dimension (n-1)/2, O the odd part,
    # uniserial over K[x^2]: W = P + x^(nu+1)K[x^2], so nu = 2 * codim W.
    nu = 2 * (n - 1 - len(w.rows))
    if nu < n - 1:
        q = CurvePoly.monomial(field, nu + 1)
    elif p == CurvePoly.one(field):
        q = CurvePoly.zero(field)
    else:
        q = CurvePoly.monomial(field, n - 1)

    ideal = CurveIdeal(field, n, content, p, q, nu)
    if ideal._span().rref() != w_rref:
        raise InternalCheckError("canonical pair spans a different module")
    if not ideal.q.is_zero and not poly_gcd_monic(ideal.p, ideal.q) == CurvePoly.one(field):
        raise InternalCheckError("canonical pair is not coprime")
    solver_val = conductor_h_solver(field, n, ideal.p, ideal.q)[1]
    if solver_val != n - 1 - nu:
        raise InternalCheckError(
            f"colon-module valuation {solver_val} disagrees with nu={nu}"
        )
    return ideal


# ---------------------------------------------------------------------------
# colon module, Fitting ideal, multiplier ring


def conductor_h_solver(
    field: CoeffField,
    n: int,
    p: CurvePoly,
    q: CurvePoly,
) -> tuple[list[CurvePoly], int]:
    """Basis of {h : h*p and h*q lie in the ring} in degrees at most n.

    Returns the nullspace basis and its least valuation, which equals
    n - 1 - nu. Degree n keeps the tail x^(n-1) of the colon module
    visible; coefficients above it are free and add nothing below it.
    """
    _check_n(n)
    width = n + 1
    span = _Span(field)
    for g in (p, q):
        for j in range(1, n, 2):
            # the coefficient of x^j in h*g is sum_i h_i * g_(j-i)
            row = [0] * (j + 1 - len(g.nums)) + list(g.nums[j::-1])
            span.add(row + [0] * (width - j - 1))
    basis = span.kernel(width)
    if not basis:
        raise InternalCheckError("colon module lost its conductor tail")
    min_val = min(b.valuation() for b in basis)
    return basis, min_val


@dataclass(frozen=True)
class CurveFitt:
    """The module x^exponent * K[x^2] + x^(n-1) * K[x] inside K[x^2, x^n]."""

    field: CoeffField
    n: int
    exponent: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        assert 0 <= self.exponent <= self.n - 1 and self.exponent % 2 == 0

    def contains(self, poly: CurvePoly) -> bool:
        return not any(poly.nums[1 : self.n - 1 : 2]) and not any(poly.nums[: self.exponent : 2])

    def generators(self) -> tuple[CurvePoly, ...]:
        return (
            CurvePoly.monomial(self.field, self.exponent),
            CurvePoly.monomial(self.field, self.n - 1),
            CurvePoly.monomial(self.field, self.n),
        )

    def __str__(self) -> str:
        return f"x^{self.exponent}*K[x^2] + x^{self.n - 1}*K[x]"


def curve_fitt1(ideal: CurveIdeal) -> CurveFitt:
    """First Fitting ideal I*(R : I) of the content-free part, verified.

    The claimed closed form x^(n-1-nu)K[x^2] + x^(n-1)K[x] is checked in
    both directions against the product of the ideal with the solved
    colon module.
    """
    field, n, nu = ideal.field, ideal.n, ideal.nu
    exponent = n - 1 - nu
    claimed = CurveFitt(field, n, exponent)
    basis, min_val = conductor_h_solver(field, n, ideal.p, ideal.q)
    if min_val != exponent:
        raise InternalCheckError(
            f"colon valuation {min_val} disagrees with claimed exponent {exponent}"
        )
    products = [h * g for h in basis for g in (ideal.p, ideal.q)]
    for prod in products:
        if not claimed.contains(prod):
            raise InternalCheckError(f"product {prod} escapes {claimed}")
    # images modulo x^(n-1)K[x] must agree; both sides contain it. The image
    # of the product is the x^2-closure of the truncated products, and the
    # image of the claimed module has the unit rows x^j, j even >= exponent.
    product_span = _Span(field).close([_vec(prod, n) for prod in products]).rref()
    claimed_span = [(j, [0] * j + [1] + [0] * (n - 2 - j)) for j in range(exponent, n - 1, 2)]
    if product_span != claimed_span:
        raise InternalCheckError("Fitting ideal differs from its closed form")
    return claimed


@dataclass(frozen=True)
class CurveOrder:
    """The intermediate ring K[x^2] + x^nu * K[x] between R and K[x]."""

    field: CoeffField
    n: int
    nu: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        assert 0 <= self.nu <= self.n - 1 and self.nu % 2 == 0

    def contains(self, poly: CurvePoly) -> bool:
        return not any(poly.nums[1 : self.nu : 2])

    def __str__(self) -> str:
        if self.nu == 0:
            return "K[x]"
        return f"K[x^2] + x^{self.nu}*K[x]"


def curve_multiplier_ring(ideal: CurveIdeal) -> CurveOrder:
    """The ring of multipliers {h : h*I <= I}, equal to K[x^2] + x^nu*K[x].

    Verified on the spot: x^(nu+1) multiplies the module into itself and
    x^(nu-1) does not (when nu >= 2).
    """
    n, nu = ideal.n, ideal.nu
    span = ideal._span()

    def _stable_under(k: int) -> bool:
        return all(([0] * k + row)[: n - 1] in span for row in span.rows.values())

    if not _stable_under(nu + 1):
        raise InternalCheckError(f"x^{nu + 1} does not multiply the module into itself")
    if nu >= 2 and _stable_under(nu - 1):
        raise InternalCheckError(f"x^{nu - 1} multiplies the module; nu is too large")
    return CurveOrder(ideal.field, n, nu)


# ---------------------------------------------------------------------------
# unit counts over a finite field


def curve_unit_group_order(field: CoeffField, n: int, nu: int) -> int:
    """Order of (R / Fitt)^x over F_q for Fitt of exponent n-1-nu."""
    _check_n(n)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    if nu % 2 or not 0 <= nu <= n - 1:
        raise UsageError(f"nu must be even in [0, {n - 1}], got {nu}")
    k = (n - 1 - nu) // 2
    if k == 0:
        return 1
    return field.char ** (k - 1) * (field.char - 1)
