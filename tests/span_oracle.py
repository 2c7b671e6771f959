"""Dense echelon rows over a coefficient field, kept as a test oracle.

_Span holds a subspace of K^width as echelon rows of ints: residues mod p with
pivot 1, or over Q primitive rows with a positive pivot, reduced fraction-free,
v = d*v - c*b (Bareiss 1968; Cohen, GTM 138, section 2.2); the reduced echelon
form is canonical in both cases. conductor_h_solver finds the colon module of a
curve ideal as a nullspace on it. The library's curve route (cuspidal.curvering)
reads truncated power series in t = x^2 instead, and the tests check it against these.
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
