"""Dense echelon rows over a coefficient field, kept as a test oracle.

_Span holds a subspace of K^width as echelon rows of ints: residues mod p with
pivot 1, or over Q primitive rows with a positive pivot, reduced fraction-free,
v = d*v - c*b (Bareiss 1968; Cohen, GTM 138, section 2.2); the reduced echelon
form is canonical in both cases. conductor_h_solver finds the colon module of a
curve ideal as a nullspace on it. The library's curve route (cuspidal.curvering)
reads truncated power series in t = x^2 instead, and the tests check it against these.

_pseudo_divmod is the reference division of polynomials on ints, and poly_divmod
its form on CurvePoly: the oracle of fieldpoly's two division kernels, and the step
of the remainder-sequence gcd that the tests keep as the modular gcd's oracle.
"""

from math import gcd, lcm

from cuspidal.arith import primitive_part
from cuspidal.curvering import _check_n
from cuspidal.errors import check
from cuspidal.fieldpoly import CoeffField, CurvePoly


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


def _pseudo_divmod(a, b, p: int) -> tuple[list[int], list[int], int]:
    """(quot, rem, s) with s*a = quot*b + rem and deg rem < deg b, on ints.

    Mod p (p > 0) the lead of b is inverted once and s is 1. Over Z the
    division is fraction-free: a step whose lead c is not a multiple of
    lead(b) first multiplies everything by lead(b)/gcd(c, lead(b)), so s
    divides a power of lead(b) (Cohen, GTM 138, Alg. 3.1.2, with the
    smallest such factor at each step).
    """
    db, lead = len(b) - 1, b[-1]
    inv = pow(lead, -1, p) if p else 1
    quot, rem, s = [0] * max(0, len(a) - db), list(a), 1
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db] % p if p else rem[k + db]
        if not c:
            continue
        if p:
            f = c * inv % p
        else:
            g = gcd(c, lead)
            m, f = lead // g, c // g
            if m != 1:
                quot = [x * m for x in quot]
                rem = [x * m for x in rem]
                s *= m
        rem[k:k + db + 1] = [x - f * y for x, y in zip(rem[k:k + db + 1], b)]
        quot[k] = f
    rem = [x % p for x in rem[:db]] if p else rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, s


def poly_divmod(a: CurvePoly, b: CurvePoly) -> tuple[CurvePoly, CurvePoly]:
    """(quot, rem) with a = quot*b + rem and deg rem < deg b, by _pseudo_divmod."""
    assert a.field == b.field
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem, s = _pseudo_divmod(a.nums, b.nums, a.field.char)
    # s*a = quot*b + rem on the numerators, so over Q
    # a = quot*b.den/(s*a.den) * b + rem/(s*a.den)
    den = s * a.den
    return (CurvePoly.from_ints(a.field, [x * b.den for x in quot], den),
            CurvePoly.from_ints(a.field, rem, den))
