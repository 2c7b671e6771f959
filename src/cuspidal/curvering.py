"""Ideals of the monomial curve ring K[x^2, x^n] for odd n >= 3.

A polynomial lies in the ring exactly when its odd-degree coefficients
below n vanish. Every fractional ideal, once its polynomial content is
pulled out, contains the conductor x^(n-1)K[x], so it is captured by an
x^2-stable subspace of K[x]/x^(n-1) and all computations reduce to exact
linear algebra over the coefficient field. The canonical presentation of
an ideal is a pair (p, x^(nu+1)) with p of constant term 1; nu is the
even invariant whose complement n-1-nu is the least valuation in the
colon module (R : I), which is recomputed independently as a nullspace
and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalCheckError, UsageError, ZeroIdealError
from .fieldpoly import CoeffField, CurvePoly, FpElt, poly_gcd_monic


def _check_n(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise UsageError(f"the curve exponent must be odd and at least 3, got {n}")


def curve_ring_contains(n: int, poly: CurvePoly) -> bool:
    """Membership in K[x^2, x^n]: odd-degree coefficients below n vanish."""
    _check_n(n)
    return not any(poly.coeff(j) for j in range(1, min(n, poly.degree + 1), 2))


# ---------------------------------------------------------------------------
# linear algebra over the coefficient field, on plain integers
#
# Rows of field elements become lists of ints on the way in and go back
# only on the way out. Over F_p a row holds residues mod p and every stored
# row has pivot 1. Over Q a row is scaled by the lcm of its denominators and
# kept primitive: elimination is fraction-free, v = d*v - c*b with d and c
# divided by their gcd, and the result is divided by its content (Bareiss
# 1968; Cohen, GTM 138, section 2.2). Stored rows over Z have a positive
# pivot, so the reduced echelon form is canonical in both cases.


def _primitive(vec: list[int]) -> list[int]:
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def _ints(field: CoeffField, row: list) -> list[int]:
    """A row of field elements as ints: residues mod p, or primitive over Z."""
    if field.char:
        return [x.value for x in row]
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _eliminate(p: int, vec: list[int], b: list[int], j: int) -> list[int]:
    """vec with column j cleared by the stored row b (b[j] is 1 mod p, or > 0)."""
    c = vec[j]
    if p:
        return [(x - c * y) % p for x, y in zip(vec, b)]
    d = b[j]
    g = gcd(c, d)
    c, d = c // g, d // g
    return _primitive([d * x - c * y for x, y in zip(vec, b)])


class _Span:
    """A subspace of K^width held as echelon rows of ints, keyed by leading column."""

    def __init__(self, field: CoeffField, rows: dict[int, list[int]] | None = None):
        self.field = field
        self.rows = dict(rows or {})

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
            vec = _primitive(vec)
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
        return [(i, _elements(self.field, i, vec)) for i, vec in self.rref()]


def _elements(field: CoeffField, piv: int, vec: list[int]) -> list:
    """An integer row back in field elements, scaled so its pivot is 1."""
    if field.char:
        return [FpElt(field.char, x) for x in vec]
    return [Fraction(x, vec[piv]) for x in vec]


def _echelon(field: CoeffField, rows: list[list]) -> list[tuple[int, list]]:
    """Reduced row echelon basis as (pivot, row) pairs, pivots increasing."""
    span = _Span(field)
    for row in rows:
        span.add(_ints(field, row))
    return span.basis()


def _field_kernel(field: CoeffField, rows: list[list], width: int) -> list[list]:
    """Basis of {x : rows @ x = 0} over the coefficient field."""
    basis = _echelon(field, rows)
    pivots = [piv for piv, _ in basis]
    free = [j for j in range(width) if j not in pivots]
    kernel = []
    for j in free:
        vec = [field.zero] * width
        vec[j] = field.one
        for piv, b in basis:
            vec[piv] = -b[j]
        kernel.append(vec)
    return kernel


# ---------------------------------------------------------------------------
# the quotient model W = M / x^(n-1)K[x]


def _vec(poly: CurvePoly, n: int) -> list:
    return [poly.coeff(i) for i in range(n - 1)]


def _closure(field: CoeffField, rows: list[list]) -> _Span:
    """The smallest x^2-stable subspace containing the rows."""
    return _Span(field).close([_ints(field, row) for row in rows])


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
        if self.content.is_zero or not self.content.coeffs[-1] == self.field.one:
            raise UsageError("the content must be a monic polynomial")
        if self.nu % 2 or not 0 <= self.nu <= self.n - 1:
            raise UsageError(f"nu must be even in [0, {self.n - 1}], got {self.nu}")
        if self.p.is_zero or self.p.coeff(0) != self.field.one or self.p.degree > self.n - 2:
            raise UsageError("p must have constant term 1 and degree below n-1")
        if self.q.is_zero:
            if self.nu != self.n - 1 or self.p != CurvePoly.one(self.field):
                raise UsageError("a zero q is only allowed for the unit ideal")
        else:
            val = self.q.valuation()
            expected = self.nu + 1 if self.nu < self.n - 1 else self.n - 1
            if self.q != CurvePoly.monomial(self.field, expected) or val != expected:
                raise UsageError("q must be the monomial x^(nu+1), or x^(n-1) at the top")

    def _span(self) -> _Span:
        rows = [_vec(self.p, self.n)]
        if not self.q.is_zero:
            rows.append(_vec(self.q, self.n))
        return _closure(self.field, rows)

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
        return _ints(self.field, _vec(quot, self.n)) in self._span()

    def same_module(self, other: "CurveIdeal") -> bool:
        if self.field != other.field or self.n != other.n:
            return False
        return self.content == other.content and self.module_basis() == other.module_basis()


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

    w = _closure(field, [_vec(g, n) for g in reduced])
    w_rref = w.rref()
    if not w_rref or w_rref[0][0] != 0:
        raise InternalCheckError("content-free module has no unit-valuation element")
    p_row = w_rref[0][1]
    p = CurvePoly.from_coeffs(field, _elements(field, 0, p_row))

    hat = _Span(field).close([p_row])
    if len(w.rows) == len(hat.rows):
        if p == CurvePoly.one(field):
            q = CurvePoly.zero(field)
        else:
            q = CurvePoly.monomial(field, n - 1)
        nu = n - 1
    else:
        vec = _cyclic_candidate(w_rref, hat)
        for j in range(0, n - 1, 2):
            if vec[j]:
                vec = _eliminate(field.char, vec, [0] * j + p_row[: n - 1 - j], j)
        m = next((i for i, v in enumerate(vec) if v), None)
        if m is None or m % 2 == 0:
            raise InternalCheckError("pair reduction did not end at an odd valuation")
        if [0] * m + [1] + [0] * (n - 2 - m) not in w:
            raise InternalCheckError("reduced monomial escaped the module")
        q = CurvePoly.monomial(field, m)
        nu = m - 1

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


def _cyclic_candidate(w_rref: list[tuple[int, list[int]]], hat: _Span) -> list[int]:
    """A vector generating W/(closure of p) over K[x^2], verified.

    Each row of W outside hat is tried in turn: hat's basis, which is
    already x^2-stable, is extended by the row and closed, and the first row
    whose closure reaches all of W is returned.
    """
    for _, row in w_rref:
        lead, cand = hat.reduce(row)
        if lead is None:
            continue
        if len(_Span(hat.field, hat.rows).close([cand]).rows) == len(w_rref):
            return cand
    raise InternalCheckError("no cyclic generator found; module is not two-generated")


# ---------------------------------------------------------------------------
# colon module, Fitting ideal, multiplier ring


def conductor_h_solver(
    field: CoeffField,
    n: int,
    p: CurvePoly,
    q: CurvePoly,
    degree: int | None = None,
) -> tuple[list[CurvePoly], int]:
    """Basis of {h : h*p and h*q lie in the ring} up to the degree bound.

    Returns the nullspace basis and its least valuation, which equals
    n - 1 - nu. The bound must be at least n - 1 so the tail x^(n-1) of
    the colon module is visible; coefficients above the bound are free
    and add nothing below it.
    """
    _check_n(n)
    cap = n if degree is None else degree
    if cap < n - 1:
        raise UsageError(f"degree bound {cap} is below n-1 = {n - 1}")
    width = cap + 1
    rows = []
    for g in (p, q):
        if g.is_zero:
            continue
        for j in range(1, n, 2):
            row = [g.coeff(j - i) if j - i >= 0 else field.zero for i in range(width)]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[field.zero] * width]
    kernel = _field_kernel(field, rows, width)
    basis = [CurvePoly.from_coeffs(field, vec) for vec in kernel]
    basis = [b for b in basis if not b.is_zero]
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
        for j in range(min(self.n, poly.degree + 1)):
            if j % 2 and j < self.n and poly.coeff(j):
                if j < self.n - 1:
                    return False
            if j % 2 == 0 and j < self.exponent and poly.coeff(j):
                return False
        return True

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
    pair = [g for g in (ideal.p, ideal.q) if not g.is_zero]
    products = [h * g for h in basis for g in pair]
    for prod in products:
        if not claimed.contains(prod):
            raise InternalCheckError(f"product {prod} escapes {claimed}")
    # images modulo x^(n-1)K[x] must agree; both sides contain it. The image
    # of the product is the x^2-closure of the truncated products, and the
    # image of the claimed module has the unit rows x^j, j even >= exponent.
    product_span = _closure(field, [_vec(prod, n) for prod in products]).rref()
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
        return not any(
            poly.coeff(j) for j in range(1, min(self.nu, poly.degree + 1), 2)
        )

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
