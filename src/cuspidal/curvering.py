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

from .errors import InternalCheckError, UsageError, ZeroIdealError
from .fieldpoly import CoeffField, CurvePoly, poly_gcd_monic


def _check_n(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise UsageError(f"the curve exponent must be odd and at least 3, got {n}")


def curve_ring_contains(n: int, poly: CurvePoly) -> bool:
    """Membership in K[x^2, x^n]: odd-degree coefficients below n vanish."""
    _check_n(n)
    return not any(poly.coeff(j) for j in range(1, min(n, poly.degree + 1), 2))


# ---------------------------------------------------------------------------
# linear algebra over the coefficient field


def _echelon(rows: list[list]) -> list[tuple[int, list]]:
    """Reduced row echelon basis as (pivot, row) pairs, pivots increasing."""
    basis: list[tuple[int, list]] = []
    for row in rows:
        vec = list(row)
        for piv, b in basis:
            if vec[piv]:
                c = vec[piv]
                vec = [vi - c * bi for vi, bi in zip(vec, b)]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            continue
        inv = vec[piv]
        vec = [v / inv for v in vec]
        basis = [
            (
                p2,
                [bi - b[piv] * vi for bi, vi in zip(b, vec)] if b[piv] else b,
            )
            for p2, b in basis
        ]
        basis.append((piv, vec))
        basis.sort(key=lambda item: item[0])
    return basis


def _in_span(basis: list[tuple[int, list]], row: list) -> bool:
    vec = list(row)
    for piv, b in basis:
        if vec[piv]:
            c = vec[piv]
            vec = [vi - c * bi for vi, bi in zip(vec, b)]
    return not any(vec)


def _field_kernel(field: CoeffField, rows: list[list], width: int) -> list[list]:
    """Basis of {x : rows @ x = 0} over the coefficient field."""
    basis = _echelon(rows)
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


def _shift2(row: list, field: CoeffField) -> list:
    return [field.zero, field.zero] + row[:-2]


def _closure(field: CoeffField, rows: list[list], n: int) -> list[tuple[int, list]]:
    """Echelon basis of the smallest x^2-stable subspace containing rows."""
    basis = _echelon(rows)
    while True:
        extra = [
            _shift2([b[i] for i in range(n - 1)], field)
            for _, b in basis
        ]
        grown = _echelon([b for _, b in basis] + extra)
        if len(grown) == len(basis):
            return grown
        basis = grown


def _lift(field: CoeffField, row: list) -> CurvePoly:
    return CurvePoly.from_coeffs(field, row)


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

    def module_basis(self) -> list[tuple[int, list]]:
        """Echelon basis of the content-free module modulo x^(n-1)K[x]."""
        rows = [_vec(self.p, self.n)]
        if not self.q.is_zero:
            rows.append(_vec(self.q, self.n))
        return _closure(self.field, rows, self.n)

    def contains(self, poly: CurvePoly) -> bool:
        """Membership of a polynomial in content * (R*p + R*q)."""
        if poly.is_zero:
            return True
        quot, rem = poly.divmod_by(self.content)
        if not rem.is_zero:
            return False
        return _in_span(self.module_basis(), _vec(quot, self.n))

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

    w_basis = _closure(field, [_vec(g, n) for g in reduced], n)
    if not w_basis or w_basis[0][0] != 0:
        raise InternalCheckError("content-free module has no unit-valuation element")
    p_row = w_basis[0][1]
    p = _lift(field, p_row)

    hat = _closure(field, [p_row], n)
    dim_w, dim_hat = len(w_basis), len(hat)
    if dim_w == dim_hat:
        if p == CurvePoly.one(field):
            q = CurvePoly.zero(field)
        else:
            q = CurvePoly.monomial(field, n - 1)
        nu = n - 1
    else:
        candidate = _cyclic_candidate(field, n, w_basis, hat)
        vec = candidate
        for j in range(0, n - 1, 2):
            if vec[j]:
                shifted = _vec(p.shift(j), n)
                c = vec[j]
                vec = [vi - c * si for vi, si in zip(vec, shifted)]
        m = next((i for i, v in enumerate(vec) if v), None)
        if m is None or m % 2 == 0:
            raise InternalCheckError("pair reduction did not end at an odd valuation")
        if not _in_span(w_basis, [field.zero] * m + [field.one] + [field.zero] * (n - 2 - m)):
            raise InternalCheckError("reduced monomial escaped the module")
        q = CurvePoly.monomial(field, m)
        nu = m - 1

    ideal = CurveIdeal(field, n, content, p, q, nu)
    check_rows = [_vec(ideal.p, n)]
    if not ideal.q.is_zero:
        check_rows.append(_vec(ideal.q, n))
    if _closure(field, check_rows, n) != w_basis:
        raise InternalCheckError("canonical pair spans a different module")
    if not ideal.q.is_zero and not poly_gcd_monic(ideal.p, ideal.q) == CurvePoly.one(field):
        raise InternalCheckError("canonical pair is not coprime")
    solver_val = conductor_h_solver(field, n, ideal.p, ideal.q)[1]
    if solver_val != n - 1 - nu:
        raise InternalCheckError(
            f"colon-module valuation {solver_val} disagrees with nu={nu}"
        )
    return ideal


def _cyclic_candidate(
    field: CoeffField, n: int, w_basis: list[tuple[int, list]], hat: list[tuple[int, list]]
) -> list:
    """A vector generating W/(closure of p) over K[x^2], verified."""
    residues = []
    for _, row in w_basis:
        vec = list(row)
        for piv, b in hat:
            if vec[piv]:
                c = vec[piv]
                vec = [vi - c * bi for vi, bi in zip(vec, b)]
        if any(vec):
            residues.append(vec)
    target = len(w_basis)
    for cand in residues:
        rows = [b for _, b in hat] + [cand]
        if len(_closure(field, rows, n)) == target:
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
    # images modulo x^(n-1)K[x] must agree; both sides contain it
    truncated = []
    for prod in products:
        for shift in range(0, n - 1, 2):
            truncated.append(_vec(prod.shift(shift), n))
    product_span = _echelon(truncated)
    claimed_span = _echelon(
        [_vec(CurvePoly.monomial(field, j), n) for j in range(exponent, n - 1, 2)]
    )
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
    field, n, nu = ideal.field, ideal.n, ideal.nu
    basis = ideal.module_basis()

    def _stable_under(k: int) -> bool:
        for _, row in basis:
            shifted = [field.zero] * k + row[: n - 1 - k] if k < n - 1 else [field.zero] * (n - 1)
            if not _in_span(basis, shifted):
                return False
        return True

    if not _stable_under(nu + 1):
        raise InternalCheckError(f"x^{nu + 1} does not multiply the module into itself")
    if nu >= 2 and _stable_under(nu - 1):
        raise InternalCheckError(f"x^{nu - 1} multiplies the module; nu is too large")
    return CurveOrder(field, n, nu)


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
