"""Ideals of the monomial curve ring R = K[x^2, x^n] for odd n >= 3.

R holds the polynomials whose odd-degree coefficients below n vanish. An
ideal without its polynomial content contains C = x^(n-1)K[x]. With t = x^2
and m = (n-1)/2, R/C = K[t]/t^m and K[x]/C = (K[t]/t^m)^2 via a(t) + x*b(t),
so the ideal is the K[t]-span W of its generators' halves (a_j, b_j). Some
a_i(0) != 0; with beta = b_i/a_i mod t^m and s = min_j val(b_j - a_j*beta),
W = K[t](1, beta) + K[t](0, t^s): nu = 2s, p = 1 + x*(beta mod t^s) and
q = x^(nu+1) (x^(n-1) or 0 at s = m). These are truncated power series on
plain ints: residues mod p, or over Q numerators after t -> a_i(0)*t, which
makes every divisor start with 1 and every quotient integral. Each step is
certified on the spot by errors.check:
  - a_i*beta = b_i, so (1, beta) lies in W;
  - the least residual is t^s*u with u*u^-1 = 1, so (0, t^s) lies in W;
  - b_j = a_j*beta mod t^s for every j, so each generator is a_j*p + d_j*q
    with d_j = (b_j - a_j*beta)/t^s, and W = K[t]p + K[t]q;
  - p(0) != 0, so p and the monomial q are coprime;
  - h* = t^k*p(-x), k = m - s, has h*p = t^k*p(x)p(-x), t^k times a unit,
    and h*q in C. Any h with hq in R has even part of valuation >= k, and
    hp in R bounds its odd part: (R : I) = R*h* + C, and since I*C = C,
    Fitt_1 = I*(R : I) = t^k*K[t] + C.
The dense elimination these replace is kept as a test oracle, tests/span_oracle.py.
"""

from __future__ import annotations

from operator import mul

from .config import MAX_N
from .errors import UsageError, ZeroIdealError, check
from .fieldpoly import CoeffField, CurvePoly, _exact_quotient, _mul, gcd_cofactors
from .value import Value


def _check_n(n: int, nu: int = 0, name: str = "nu") -> None:
    if n < 3 or n % 2 == 0 or n > MAX_N:
        raise UsageError(f"the curve exponent must be odd and in [3, {MAX_N}], got {str(n)[:24]}")
    if nu % 2 or not 0 <= nu <= n - 1:
        raise UsageError(f"{name} must be even in [0, {n - 1}], got {nu}")


def curve_ring_contains(n: int, poly: CurvePoly) -> bool:
    """Membership in K[x^2, x^n]: odd-degree coefficients below n vanish."""
    _check_n(n)
    return not any(poly.nums[1:n:2])


def _halves(poly: CurvePoly, n: int) -> tuple[list[int], list[int]]:
    """(a, b) with poly = a(t) + x*b(t) mod x^(n-1), over Q times the denominator."""
    a, b, m = list(poly.nums[0:n - 1:2]), list(poly.nums[1:n - 1:2]), (n - 1) // 2
    return a + [0] * (m - len(a)), b + [0] * (m - len(b))


def _reduce(f: list[int], p: int) -> list[int]:
    return [x % p for x in f] if p else f


def _div(b: list[int], f: list[int], m: int, p: int) -> list[int]:
    """b/f mod t^m for f(0) = 1, so integral over Z."""
    out: list[int] = []
    for k in range(m):
        c = (b[k] if k < len(b) else 0) - sum(map(mul, f[1:k + 1], reversed(out)))
        out.append(c % p if p else c)
    return out


def _subst(f: list[int], c: int) -> list[int]:
    """f(c*t): the coefficient of t^k times c^k."""
    return [x * c**k for k, x in enumerate(f)]


def _monic(f: list[int], p: int) -> tuple[list[int], int]:
    """(g, sigma) with f(sigma*t) = f(0)*g(t) and g(0) = 1: sigma is 1 mod p, f(0) over Q."""
    if p:
        inv = pow(f[0], -1, p)
        return [x * inv % p for x in f], 1
    return [x // f[0] for x in _subst(f, f[0])], f[0]


def _valuation(f: list[int]) -> int:
    return next((k for k, x in enumerate(f) if x), len(f))


def _canonical_pair(field: CoeffField, n: int, reduced: list[CurvePoly]) -> tuple[CurvePoly, int]:
    """p and s = nu/2 of the content-free module spanned by reduced, certified."""
    p, m = field.char, (n - 1) // 2
    rows = [_halves(g, n) for g in reduced]
    i = next((j for j, (a, _) in enumerate(rows) if a[0]), None)
    check(i is not None, "content-free module has no unit-valuation element")
    a0 = rows[i][0][0]
    unit, sigma = _monic(rows[i][0], p)
    rows = [(_subst(a, sigma), _subst(b, sigma)) for a, b in rows] if sigma != 1 else rows
    beta = _div(rows[i][1], unit, m, p)  # a0 times beta(sigma*t)
    check(_mul(unit, beta, m, p) == rows[i][1], "a_i * beta differs from b_i")
    residuals = [_reduce([a0 * y - z for y, z in zip(b, _mul(a, beta, m, p))], p)
                 for j, (a, b) in enumerate(rows) if j != i]
    vals = [_valuation(r) for r in residuals]
    s = min(vals, default=m)
    if s < m:
        u = residuals[vals.index(s)][s:]
        check(u[0], "residual of least valuation has a higher valuation")
        u = _monic(u, p)[0]
        check(_mul(u, _div([1], u, m - s, p), m - s, p) == [1] + [0] * (m - s - 1),
              "residual of least valuation is not t^s times a unit")
    head = beta[:s]
    check(all(_mul(a, head, s, p) == _reduce([a0 * y for y in b[:s]], p) for a, b in rows),
          "a generator lies outside K[t]*p + K[t]*q", name="canonical-pair-spans-the-module")
    # the coefficient of x^(2k+1) in p is beta_k / (a0 * sigma^k), over a0 * sigma^(s-1)
    den = a0 * sigma ** (s - 1) if s else 1
    nums = [den] + [0] * (2 * s - 1)
    nums[1::2] = [x * sigma ** (s - 1 - k) for k, x in enumerate(head)]
    return CurvePoly.from_ints(field, nums, den), s


class CurveIdeal(Value):
    """content * (R*p + R*q), with p 1 plus odd terms of degree below nu and q
    the monomial that p and nu determine: the same module exactly when equal."""

    __slots__ = ("field", "n", "content", "p", "nu")

    def __init__(self, field: CoeffField, n: int, content: CurvePoly, p: CurvePoly,
                 nu: int) -> None:
        Value.__init__(self, field, n, content, p, nu)
        _check_n(n, nu)
        if content.is_zero or content.nums[-1] != content.den:
            raise UsageError("the content must be a monic polynomial")
        if p.is_zero or p.nums[0] != p.den or any(p.nums[2::2]) or p.degree >= max(nu, 1):
            raise UsageError("p must be 1 plus odd-degree terms of degree below nu")

    @property
    def q(self) -> CurvePoly:
        """x^(nu+1); at nu = n-1 zero for the unit ideal and x^(n-1) otherwise."""
        field, n, nu = self.field, self.n, self.nu
        if nu < n - 1:
            return CurvePoly.monomial(field, nu + 1)
        unit = self.p == CurvePoly.one(field)
        return CurvePoly.zero(field) if unit else CurvePoly.monomial(field, n - 1)

    def _in_module(self, poly: CurvePoly) -> bool:
        """Whether poly lies in R*p + R*q + C: its halves (e, o) have o = e*beta mod t^s."""
        s, char = self.nu // 2, self.field.char
        e, o = (half[:s] for half in _halves(poly, self.n))
        return _mul(e, list(self.p.nums[1::2]), s, char) == _reduce(
            [x * self.p.den for x in o], char)

    def contains(self, poly: CurvePoly) -> bool:
        """Membership of a polynomial in content * (R*p + R*q): poly / content must exist
        and lie in the module. The content is monic, so over Q its numerators are primitive,
        and by Gauss's lemma they divide poly's over Z when the content divides poly over Q;
        mod p it is monic division."""
        assert poly.field == self.field
        content = self.content
        quot = _exact_quotient(poly.nums, content.nums, self.field.char) if poly.nums else []
        return quot is not None and self._in_module(
            CurvePoly.from_ints(self.field, [x * content.den for x in quot], poly.den))


def curve_ideal_from_generators(field: CoeffField, n: int, gens: list[CurvePoly]) -> CurveIdeal:
    """Canonical form of the ideal generated by the given polynomials."""
    _check_n(n)
    live = [g for g in gens if not g.is_zero]
    if not live:
        raise ZeroIdealError("all generators are zero")
    content, cofactors = gcd_cofactors(live)
    p, s = _canonical_pair(field, n, cofactors)
    check(p.nums[0], "canonical pair is not coprime")
    ideal = CurveIdeal(field, n, content, p, 2 * s)
    _colon_generator(ideal)
    return ideal


def _colon_generator(ideal: CurveIdeal, name: str = "colon-valuation-matches-nu") -> CurvePoly:
    """h* = x^(n-1-nu)*p(-x), certified: (R : I) = R*h* + x^(n-1)K[x]. Modulo
    the conductor h*p must be t^k times a unit inside R, and h*q must vanish;
    the second check is recorded under `name`.

    h*p = x^(n-1-nu)*p(x)p(-x), so the first holds when p(x)p(-x) is even with a
    nonzero constant. On the numerators, p = den + o(x) with o odd exactly when
    p's constant is den and it has no even terms past it; then p(x)p(-x) =
    (den + o)(den - o) = den^2 - o^2, even with constant den^2 != 0. So that
    shape is checked in O(nu), not the product. q is a monomial."""
    field, n, nu, p, q = ideal.field, ideal.n, ideal.nu, ideal.p, ideal.q
    check(p.nums[:1] == (p.den,) and not any(p.nums[2::2]),
          "h*p is not x^{} times a unit of the ring", n - 1 - nu)
    conj = [-x if j % 2 else x for j, x in enumerate(p.nums)]
    h = CurvePoly.from_ints(field, conj, p.den).shift(n - 1 - nu)
    check(not any(map(any, _halves(q if q.is_zero else h.shift(q.degree), n))),
          "h*q escapes the conductor", name=name)
    return h


class CurveFitt(Value):
    """The module x^exponent * K[x^2] + x^(n-1) * K[x] inside K[x^2, x^n]."""

    __slots__ = ("field", "n", "exponent")

    def __init__(self, field: CoeffField, n: int, exponent: int) -> None:
        Value.__init__(self, field, n, exponent)
        _check_n(n, exponent, "the exponent")

    def contains(self, poly: CurvePoly) -> bool:
        return not any(poly.nums[1 : self.n - 1 : 2]) and not any(poly.nums[: self.exponent : 2])

    def generators(self) -> tuple[CurvePoly, ...]:
        exponents = self.exponent, self.n - 1, self.n
        return tuple(CurvePoly.monomial(self.field, e) for e in exponents)

    def __str__(self) -> str:
        return f"x^{self.exponent}*K[x^2] + x^{self.n - 1}*K[x]"


def curve_fitt1(ideal: CurveIdeal) -> CurveFitt:
    """First Fitting ideal I*(R : I) = R*h*p + R*h*q + C of the content-free
    part, which the certificate of h* makes x^(n-1-nu)K[x^2] + C."""
    _colon_generator(ideal, "fitting-closed-form-verified")
    return CurveFitt(ideal.field, ideal.n, ideal.n - 1 - ideal.nu)


class CurveOrder(Value):
    """The intermediate ring K[x^2] + x^nu * K[x] between R and K[x]."""

    __slots__ = ("field", "n", "nu")

    def __init__(self, field: CoeffField, n: int, nu: int) -> None:
        Value.__init__(self, field, n, nu)
        _check_n(n, nu)

    def contains(self, poly: CurvePoly) -> bool:
        return not any(poly.nums[1 : self.nu : 2])

    def __str__(self) -> str:
        return "K[x]" if self.nu == 0 else f"K[x^2] + x^{self.nu}*K[x]"


def curve_multiplier_ring(ideal: CurveIdeal) -> CurveOrder:
    """The ring of multipliers {h : h*I <= I}, equal to K[x^2] + x^nu*K[x]: x^(nu+1)
    multiplies p and q into the module and x^(nu-1) does not (when nu >= 2), checked.
    x^(2j+1)*(1, beta) = t^j*(t*beta, 1) is in W iff t^j*(1 - t*beta^2) = 0 mod t^s."""
    nu, gens = ideal.nu, (ideal.p, ideal.q)
    check(all(ideal._in_module(g.shift(nu + 1)) for g in gens),
          "x^{} does not multiply the module into itself", nu + 1)
    check(nu < 2 or not all(ideal._in_module(g.shift(nu - 1)) for g in gens),
          "x^{} multiplies the module; nu is too large", nu - 1,
          name="stability-window-verified")
    return CurveOrder(ideal.field, ideal.n, nu)


def curve_unit_group_order(field: CoeffField, n: int, nu: int) -> int:
    """Order of (R / Fitt)^x over F_q for Fitt of exponent n-1-nu."""
    _check_n(n, nu)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    k = (n - 1 - nu) // 2
    return field.char ** (k - 1) * (field.char - 1) if k else 1
