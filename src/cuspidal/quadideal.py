"""Ideals of the order Z + Z*f*omega inside a quadratic field.

Every nonzero ideal is kept in the standard basis I = Z*a + Z*(d + e*f*omega)
with a, e > 0, e | a, e | d, -a/2 <= d < a/2 and ae | norm(d + e*f*omega).
The norm of I is a*e and I is primitive exactly when e = 1. An element
u + v*f*omega of the order is kept as its order coordinates (u, v) over
(1, f*omega) (Cohen, GTM 138, 2.4.2), and every product of two of them
reads one rule, Order.gen_sq = (R, S) with (f*omega)^2 = R + S*f*omega;
_dot writes it out. Standard bases, products, conjugates,
norms and the multiplier conductor are computed on these coordinates. The
2-row integer systems of generating pairs go through one column reduction
with its transform, _echelon2, which gives both particular solutions and
kernels. The colon ideals the library needs have closed forms:
(O_f : O_f') = Z*(f/f') + Z*f*omega, certified by membership in _fitt1.

Classes are decided by the reduction theory of binary quadratic forms
(Cohen, GTM 138, 5.3-5.6). An ideal I is a proper ideal of its multiplier
ring, and lambda*I = J holds exactly when the primitive parts of q_I and q_J
are SL2(Z)-equivalent, or, for a lambda of negative norm in a real field,
when (A, B, C) is equivalent to (-A, B, -C). class_key maps I to the content
of q_I and the canonical reduced form of q_I over it; class comparison is
key equality and class enumeration keeps one ideal per key. The class
number h_K of a real field is the number of keys that enumeration finds in
O_K, and one budgeted walk, _rho_walk, serves each pair of rho-cycles for
canonical forms and the principal cycle for the fundamental unit in units.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .arith import factorize, sqrt_mods, xgcd
from .config import exhausted, resolve_bound
from .errors import UsageError, ZeroIdealError, check
from .quadfield import QuadElt, QuadField
from .value import Interned, Value


class Order(Value, metaclass=Interned, fields=("field", "f")):
    """The order Z + Z*f*omega of conductor f >= 1 in the maximal order.

    gen_sq is (R, S) = (f^2*r, f*s) with (f*omega)^2 = R + S*f*omega, from
    omega^2 = r + s*omega: the product rule of order coordinates, computed once."""

    __slots__ = ("field", "f", "gen_sq")

    def __init__(self, field: QuadField, f: int) -> None:
        Value.__init__(self, field, f)
        if f < 1:
            raise UsageError(f"conductor must be >= 1, got {str(f)[:24]}")
        r, s = field.omega_sq
        object.__setattr__(self, "gen_sq", (f * f * r, f * s))

    @property
    def disc(self) -> int:
        return self.f * self.f * self.field.disc_max

    @property
    def gen(self) -> QuadElt:
        """f*omega, the non-rational basis element."""
        return QuadElt(self.field, 0, self.f)

    def contains(self, x: QuadElt) -> bool:
        return x.field == self.field and x.b % self.f == 0

    def coords(self, x: QuadElt) -> tuple[int, int]:
        """Coordinates over the basis (1, f*omega)."""
        if not self.contains(x):
            raise UsageError(f"the element is not in the order of conductor {self.f}")
        return x.a, x.b // self.f

    def from_coords(self, u: int, v: int) -> QuadElt:
        return QuadElt(self.field, u, v * self.f)

    def unit_ideal(self) -> QIdeal:
        return QIdeal(self, 1, 0, 1)

    def __repr__(self) -> str:
        return f"Order(m={self.field.m}, f={self.f})"


class QIdeal(Value):
    """Nonzero ideal Z*a + Z*(d + e*f*omega) of `order` in standard basis."""

    __slots__ = ("order", "a", "d", "e")

    def __init__(self, order: Order, a: int, d: int, e: int) -> None:
        Value.__init__(self, order, a, d, e)
        if a <= 0 or e <= 0:
            raise UsageError(f"standard basis needs a, e > 0, got a={a}, e={e}")
        if a % e or d % e:
            raise UsageError(f"standard basis needs e | a and e | d: {(a, d, e)}")
        if not -a <= 2 * d < a:
            raise UsageError(f"standard basis needs -a/2 <= d < a/2: {(a, d, e)}")
        # closure under multiplication by f*omega makes the lattice an ideal
        if not _multiplies(self, order.f):
            raise UsageError(f"{(a, d, e)} is not an ideal of {order}")
        check(self._gen2_norm() % (a * e) == 0,
              "the norm of d + e*f*omega is not divisible by a*e in {}", (a, d, e))

    @property
    def gen1(self) -> QuadElt:
        return self.order.from_coords(self.a, 0)

    @property
    def gen2(self) -> QuadElt:
        return self.order.from_coords(self.d, self.e)

    def _gen2_norm(self) -> int:
        """N(d + e*f*omega) = d^2 + d*e*S - e^2*R, as (f*omega)^2 = R + S*f*omega."""
        (R, S), d, e = self.order.gen_sq, self.d, self.e
        return d * (d + e * S) - e * e * R

    def norm(self) -> int:
        """Index of the ideal in its order, equal to a*e."""
        return self.a * self.e

    def contains(self, x: QuadElt) -> bool:
        if not self.order.contains(x):
            return False
        return self._has(*self.order.coords(x))

    def _has(self, u: int, v: int) -> bool:
        """Membership of u + v*f*omega, given by its order coordinates."""
        return v % self.e == 0 and (u - v // self.e * self.d) % self.a == 0

    def conjugate(self) -> QIdeal:
        """sigma(I) = Z*a + Z*(d + e*S - e*f*omega), as sigma(f*omega) = S - f*omega."""
        a, d, e, order = self.a, self.d, self.e, self.order
        return _lattice_std_basis(order, [(a, 0), (d + e * order.gen_sq[1], -e)])

    def scaled(self, c: int) -> QIdeal:
        assert c > 0
        return QIdeal(self.order, c * self.a, c * self.d, c * self.e)

    def __str__(self) -> str:
        return f"<{self.gen1}, {self.gen2}> in {self.order}"


class FracIdeal(Value):
    """Fractional ideal num/den with den a positive integer, in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num: QIdeal, den: int) -> None:
        assert den > 0
        g = math.gcd(math.gcd(num.a, num.d), math.gcd(num.e, den))
        if g > 1:
            num, den = QIdeal(num.order, num.a // g, num.d // g, num.e // g), den // g
        Value.__init__(self, num, den)

    def __str__(self) -> str:
        return f"({self.num})/{self.den}" if self.den != 1 else str(self.num)


class QuadForm(namedtuple("QuadForm", "A B C")):
    """Binary quadratic form A x^2 + B xy + C y^2; ordered as the tuple (A, B, C)."""

    __slots__ = ()

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    @property
    def content(self) -> int:
        return math.gcd(self.A, self.B, self.C)


def _lattice_std_basis(order: Order, vectors: list[tuple[int, int]]) -> QIdeal:
    """Standard basis of the lattice spanned by (1, f*omega)-coordinate pairs,
    its Hermite form (Cohen, GTM 138, 2.4.2): e = gcd(v_i) with a lattice
    vector (d0, e) from an xgcd chain, then a = gcd(u_i - (v_i/e)*d0), the
    generator of the lattice's vectors with v = 0, and d = d0 mod a."""
    e = d0 = 0
    for u, v in vectors:
        if v:
            e, s, t = xgcd(e, v)
            d0 = s * d0 + t * u
    a = 0
    if e:
        for u, v in vectors:
            a = math.gcd(a, u - v // e * d0)
    if a == 0:
        raise ZeroIdealError("generators span a lattice of rank < 2")
    r = d0 % a
    if 2 * r >= a:
        r -= a
    return QIdeal(order, a, r, e)


class _Echelon2(namedtuple("_Echelon2", "pivots u")):
    """H = A*U for a 2-row integer matrix A and a unimodular U: `pivots` lists
    the nonzero columns of H as (pivot row, top entry, bottom entry), and `u`
    holds the columns of U, of which those past the pivots span the kernel."""

    __slots__ = ()

    @property
    def kernel(self) -> list[list[int]]:
        return self.u[len(self.pivots) :]

    def solve(self, top: int, bottom: int) -> list[int] | None:
        """One integer x with A*x = (top, bottom), or None if there is none."""
        rem, x = [top, bottom], [0] * len(self.u)
        for (row, *h), col in zip(self.pivots, self.u):
            y, left = divmod(rem[row], h[row])
            if left:
                return None
            rem = [rem[0] - y * h[0], rem[1] - y * h[1]]
            x = [xi + y * ci for xi, ci in zip(x, col)]
        return None if any(rem) else x


def _echelon2(top: list[int], bottom: list[int]) -> _Echelon2:
    """Column Hermite reduction of the 2-row matrix (top; bottom) with its
    transform, by xgcd column steps as in _lattice_std_basis: row 0 first, the
    first column with a nonzero entry swapped in as pivot, the entries right of
    it cleared, the pivot made positive; then row 1 over the columns left."""
    n = len(top)
    # the two rows of A over the n rows of U = 1, each column operation done in place
    rows = [list(top), list(bottom)] + [[int(i == j) for j in range(n)] for i in range(n)]
    pivots = []
    for row in (0, 1):
        col, line = len(pivots), rows[row]
        piv = next((j for j in range(col, n) if line[j]), None)
        if piv is None:
            continue
        for r in rows:
            r[col], r[piv] = r[piv], r[col]
        for j in range(col + 1, n):
            if line[j]:
                g, s, t = xgcd(line[col], line[j])
                p, q = line[col] // g, line[j] // g
                for r in rows:
                    x, y = r[col], r[j]
                    r[col], r[j] = s * x + t * y, p * y - q * x
        if line[col] < 0:
            for r in rows:
                r[col] = -r[col]
        pivots.append((row, rows[0][col], rows[1][col]))
    return _Echelon2(pivots, [list(c) for c in zip(*rows[2:])])


def _dot(RS: tuple[int, int], x: tuple[int, int], u: tuple[int, int],
         y: tuple[int, int] = (0, 0), v: tuple[int, int] = (0, 0)) -> tuple[int, int]:
    """x*u + y*v, or the product x*u alone, for elements given by their order
    coordinates (a, b) over (1, f*omega), with RS = Order.gen_sq = (R, S):
    (f*omega)^2 = R + S*f*omega."""
    (a, b), (c, d), (e, g), (h, k) = x, u, y, v
    w = b * d + g * k
    return a * c + e * h + w * RS[0], a * d + b * c + e * k + g * h + w * RS[1]


def ideal_from_generators(order: Order, gens: list[QuadElt]) -> QIdeal:
    """Ideal of `order` generated by `gens`, in standard basis.

    The Z-span of the generators and their f*omega multiples is already
    closed under the order action, so it is the ideal: g = u + v*f*omega
    gives (u, v) and g*f*omega = (v*R, u + v*S) with (f*omega)^2 = R + S*f*omega.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        raise ZeroIdealError("the zero ideal has no standard basis")
    R, S = order.gen_sq
    vectors = []
    for g in live:
        u, v = order.coords(g)
        vectors += [(u, v), (v * R, u + v * S)]
    return _lattice_std_basis(order, vectors)


def ideal_mul(lhs: QIdeal, rhs: QIdeal) -> QIdeal:
    """The product: the Z-span of the four products of the standard bases,
    which is already an ideal since both factors are."""
    if lhs.order != rhs.order:
        raise UsageError("ideal product requires a common order")
    (a1, d1, e1), (a2, d2, e2) = (lhs.a, lhs.d, lhs.e), (rhs.a, rhs.d, rhs.e)
    vectors = [(a1 * a2, 0), (a1 * d2, a1 * e2), (a2 * d1, a2 * e1),
               _dot(lhs.order.gen_sq, (d1, e1), (d2, e2))]
    return _lattice_std_basis(lhs.order, vectors)


def ideal_inverse(ideal: QIdeal) -> FracIdeal:
    """Fractional inverse sigma(I)/norm(I)."""
    return FracIdeal(ideal.conjugate(), ideal.norm())


def associated_form(ideal: QIdeal) -> QuadForm:
    """The form q_I with e*q_I = (a, trace(gen2), norm(gen2)/a), trace(gen2) = 2d + e*S."""
    a, d, e = ideal.a, ideal.d, ideal.e
    b = 2 * d + e * ideal.order.gen_sq[1]
    c, rem = divmod(ideal._gen2_norm(), a)
    check(rem == 0, "a = {} does not divide the norm of gen2", a)
    check(b % e == 0 and c % e == 0 and a % e == 0, "e = {} does not divide the form", e)
    form = QuadForm(a // e, b // e, c // e)
    check(form.disc == ideal.order.disc, "the form {} has the wrong discriminant", form)
    return form


def _multiplies(ideal: QIdeal, k: int) -> bool:
    """Whether k*omega = (k/f)*f*omega maps I into I: the basis products are
    a*k*omega = (0, a*k/f) and (d + e*f*omega)*k*omega = (e*R*k/f, (d + e*S)*k/f)
    over (1, f*omega), when they lie in the order; e*R*k/f is an integer, as f | R."""
    (R, S), f = ideal.order.gen_sq, ideal.order.f
    a, d, e = ideal.a, ideal.d, ideal.e
    v = (d + e * S) * k
    if a * k % f or v % f:
        return False
    return ideal._has(0, a * k // f) and ideal._has(e * R // f * k, v // f)


def multiplier_conductor(ideal: QIdeal) -> int:
    """Conductor f' = f/content(q_I) of the multiplier ring {x : x*I <= I}."""
    return _checked_conductor(ideal, associated_form(ideal).content)


def _checked_conductor(ideal: QIdeal, g: int) -> int:
    """f' = f/g for the content g of q_I, verified by direct membership:
    f'*omega must multiply I into I while f'/p * omega must not, for every
    prime p dividing f'."""
    f = ideal.order.f
    check(f % g == 0, "form content does not divide the conductor")
    f_prime = f // g
    # the order of conductor f' multiplies I into itself ...
    check(_multiplies(ideal, f_prime), "multiplier ring membership failed")
    # ... and no strictly larger order does
    check(not any(_multiplies(ideal, f_prime // p) for p in factorize(f_prime)),
          "multiplier ring is larger than computed")
    return f_prime


def fitt1(ideal: QIdeal) -> QIdeal:
    """First Fitting ideal of I, equal to I*I^{-1} and to (O_f : O_f').

    The closed form Z*(f/f') + Z*f*omega is checked two ways: it must equal
    the lattice product with the conjugate divided by the norm, and a
    membership certificate must show that it is the conductor (O_f : O_f').
    """
    return _fitt1(ideal, multiplier_conductor(ideal))


def _fitt1(ideal: QIdeal, f_prime: int) -> QIdeal:
    """fitt1 for a caller that already has the multiplier conductor f'."""
    f = ideal.order.f
    n0 = f // f_prime
    closed = QIdeal(ideal.order, n0, 0, 1)

    product = ideal_mul(ideal, ideal.conjugate())
    check(product == closed.scaled(ideal.norm()),
          "I*sigma(I)/N(I) disagrees with the closed form",
          name="fitting-norm-is-conductor-quotient")

    # (O_f : O_f') = {u + v*f*omega : f | u*f'} = Z*k + Z*f*omega, k = f/gcd(f, f'),
    # is closed = Z*n0 + Z*f*omega iff k = n0. f | n0*f' says n0*f'*omega = (0, n0*f'/f)
    # over (1, f*omega) lies in O_f, and with 0 < n0*f' <= f (n0 = f // f') it gives
    # f' | f and k = f/f' = n0. The norm a*e of closed is n0 by construction.
    check(n0 * f_prime % f == 0, "(O_f : O_f') does not contain the closed form")
    return closed


def _reduce_definite(A: int, B: int, C: int) -> QuadForm:
    """Gauss reduction of a positive definite form: |B| <= A <= C, B >= 0 when
    |B| = A or A = C. It is the unique reduced form of its SL2(Z) class. The
    first rho step, from (C, -B, A), only brings B into (-A, A]."""
    disc = B * B - 4 * A * C
    q = _rho((C, -B, A), disc, -1)
    while q.A > q.C:
        q = _rho(q, disc, -1)
    return QuadForm(q.A, -q.B, q.C) if q.A == q.C and q.B < 0 else q


def _rho(form: tuple[int, int, int], disc: int, s: int) -> QuadForm:
    """Cohen's rho for disc > 0 non-square with s = isqrt(disc): the equivalent
    form (C, r, (r^2 - disc)/(4C)) with r = -B mod 2|C| in the window
    (-|C|, |C|] when |C| > sqrt(disc), (sqrt(disc) - 2|C|, sqrt(disc)) otherwise.
    For disc < 0 and s = -1 every |C| is past s, r lands in (-|C|, |C|], and
    rho is the step of Gauss reduction of a definite form."""
    _, B, C = form
    c = abs(C)
    if c > s:
        r = -B % (2 * c)
        if r > c:
            r -= 2 * c
    else:
        r = s - (s + B) % (2 * c)
    return QuadForm(C, r, (r * r - disc) // (4 * C))


def _rho_walk(form: QuadForm, disc: int, s: int) -> Iterator[tuple[QuadForm, QuadForm]]:
    """The pairs (q, rho(q)) along the rho-cycle of a reduced indefinite `form`
    (Cohen, GTM 138, 5.6) up to the first rho(q) that is `form` or (-A, B, -C).
    rho reads only B and |C|, so it commutes with that negation, and the walked
    forms with their negatives make up both cycles. resolve_bound() rho-steps
    without a stop raise InconclusiveError."""
    bound = resolve_bound()
    stops = (form, QuadForm(-form.A, form.B, -form.C))
    q = form
    for _ in range(bound):
        nxt = _rho(q, disc, s)
        yield q, nxt
        if nxt in stops:
            return
        q = nxt
    raise exhausted(f"the rho-cycle of discriminant {disc} exceeds bound {bound} rho-steps")


@lru_cache(maxsize=None)
def _cycle_table(disc: int) -> dict[QuadForm, QuadForm]:
    """Reduced forms of disc > 0 on the rho-cycles walked so far, mapped to their
    canonical form; cache_clear empties every table."""
    return {}


def canonical_form(form: tuple[int, int, int]) -> QuadForm:
    """One reduced form per class of a primitive definite or indefinite form
    (A, B, C): Gauss's reduced form (Cohen, GTM 138, 5.3), or the least form
    on the rho-cycles (5.6) of (A, B, C) and of (-A, B, -C), the form that a
    lambda of negative norm sends q_I to. The cycles come from _cycle_table,
    filled by one _rho_walk per pair of cycles."""
    A, B, C = form
    disc = B * B - 4 * A * C
    if disc < 0:
        return _reduce_definite(A, B, C)
    s = math.isqrt(disc)
    q = form
    if 2 * abs(A) <= s:  # B -> B + 2k|A| lands in (s - 2|A|, s], where the form is reduced
        B = s - (s - B) % (2 * abs(A))
        q = (A, B, (B * B - disc) // (4 * A))
    # reduced: |sqrt(disc) - 2|A|| < B < sqrt(disc)
    while not (2 * abs(q[0]) - q[1] <= s < 2 * abs(q[0]) + q[1] and q[1] <= s):
        q = _rho(q, disc, s)
    table = _cycle_table(disc)
    canon = table.get(q)
    if canon is None:
        walked = [p for p, _ in _rho_walk(QuadForm(*q), disc, s)]
        walked += [QuadForm(-a, b, -c) for a, b, c in walked]
        canon = min(walked)
        table.update(dict.fromkeys(walked, canon))
    return canon


def class_key(ideal: QIdeal) -> tuple[int, QuadForm]:
    """Canonical invariant of the class of I: lambda*I = J in the field exactly
    when two ideals of one order have equal keys. The key is (g, q) with g the
    content of q_I, which fixes the multiplier ring, and q the canonical form
    of q_I/g."""
    A, B, C = associated_form(ideal)
    g = math.gcd(A, B, C)
    return g, canonical_form((A // g, B // g, C // g))


def is_same_class(lhs: QIdeal, rhs: QIdeal) -> bool:
    """Whether r*I = s*J for some regular r, s, i.e. J = lambda*I in the field."""
    if lhs.order != rhs.order:
        raise UsageError("class comparison requires a common order")
    return class_key(lhs) == class_key(rhs)


def _class_search_limit(order: Order) -> int:
    """Every ideal class holds a primitive ideal of norm a at most this. A class of key
    content g = f/f' holds g*q for the primitive forms q of one class of disc D' = f'^2*d_K,
    g^2*D' = D = f^2*d_K, under SL2(Z) and (A, B, C) -> (-A, B, -C), and one q has a = g*|A|
    for |A| its least value: at most sqrt(|D'|/3) if D' < 0 (Gauss; Cohen, GTM 138, 5.3),
    else 5*sqrt(D'/221) but for D' = 5 or 8, x^2 + xy - y^2 or x^2 - 2y^2 with |A| = 1, a = f
    (Markov, Math. Ann. 15, 1879; Cassels, Diophantine Approximation, ch. II)."""
    d = order.disc
    if d < 0:
        return math.isqrt(-d // 3)
    return max(math.isqrt(25 * d // 221), order.f if order.field.disc_max in (5, 8) else 1)


def enumerate_ideal_classes(order: Order) -> list[QIdeal]:
    """Representatives of all ideal classes (invertible or not) of the order.

    The candidates are the primitive ideals Z*a + Z*(d + f*omega), a up to
    _class_search_limit, about sqrt(|D|/3) by Gauss or sqrt(25*D/221) by Markov (an ideal
    (a, d, e) is e times the primitive ideal (a/e, d/e, 1) of its class), -a/2 <= d < a/2,
    with B = 2d + t*f (t the trace of omega) a square root of D mod 4a (Cohen, GTM 138,
    5.2). The first ideal of each class_key by ascending (a, d) is kept. A window past
    resolve_bound() is refused before any work, more candidates raise InconclusiveError."""
    return list(_keyed_classes(order).values())


def _keyed_classes(order: Order) -> dict[tuple[int, QuadForm], QIdeal]:
    """enumerate_ideal_classes with the class_key of each representative."""
    bound = resolve_bound()
    limit = _class_search_limit(order)
    disc, tf = order.disc, order.gen_sq[1]  # S = f*s is the trace of f*omega
    if limit > bound:
        raise exhausted(f"class enumeration: the A-window {limit} of discriminant {disc}"
                        f" exceeds bound {bound}")
    reps: dict[tuple[int, QuadForm], QIdeal] = {}
    candidates = 0
    for n, roots in sqrt_mods(disc, range(4, 4 * limit + 1, 4)):
        a = n // 4
        # B mod 2a runs over the roots below 2a; d = (B - t*f)/2 mod a
        ds = sorted(((r - tf) // 2 + a // 2) % a - a // 2 for r in roots[: len(roots) // 2])
        candidates += len(ds)
        if candidates > bound:
            raise exhausted(f"class enumeration exceeded bound {bound}")
        for d in ds:
            b = 2 * d + tf
            c = (b * b - disc) // n
            g = math.gcd(a, b, c)
            key = (g, canonical_form((a // g, b // g, c // g)))
            if key not in reps:
                reps[key] = QIdeal(order, a, d, 1)
    return reps
