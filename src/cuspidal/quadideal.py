"""Ideals of the order Z + Z*f*omega inside a quadratic field.

Every nonzero ideal is kept in the standard basis I = Z*a + Z*(d + e*f*omega)
with a, e > 0, e | a, e | d, -a/2 <= d < a/2 and ae | norm(d + e*f*omega).
The norm of I is a*e and I is primitive exactly when e = 1.

The class decision (is_same_class) searches for an exact scalar lambda with
lambda*J = I inside the colon lattice (I : J); for real fields the candidates
are reduced modulo the fundamental unit of the order first, so the search box
is finite and the verdict is exact in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import units
from .arith import divisors, factorize, isqrt_ceil
from .config import resolve_bound
from .errors import InconclusiveError, InternalCheckError, UsageError, ZeroIdealError
from .quadfield import QuadElt, QuadField
from .zlinalg import hnf_columns, kernel_int


@dataclass(frozen=True)
class Order:
    """The order Z + Z*f*omega of conductor f >= 1 in the maximal order."""

    field: QuadField
    f: int

    def __post_init__(self) -> None:
        if self.f < 1:
            raise UsageError(f"conductor must be >= 1, got {self.f}")

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
            raise UsageError(f"{x} is not in the order of conductor {self.f}")
        return x.a, x.b // self.f

    def from_coords(self, u: int, v: int) -> QuadElt:
        return QuadElt(self.field, u, v * self.f)

    def unit_ideal(self) -> QIdeal:
        return QIdeal(self, 1, 0, 1)

    def __repr__(self) -> str:
        return f"Order(m={self.field.m}, f={self.f})"


@dataclass(frozen=True)
class QIdeal:
    """Nonzero ideal Z*a + Z*(d + e*f*omega) of `order` in standard basis."""

    order: Order
    a: int
    d: int
    e: int

    def __post_init__(self) -> None:
        a, d, e = self.a, self.d, self.e
        if a <= 0 or e <= 0:
            raise UsageError(f"standard basis needs a, e > 0, got a={a}, e={e}")
        if a % e or d % e:
            raise UsageError(f"standard basis needs e | a and e | d: {(a, d, e)}")
        if not -a <= 2 * d < a:
            raise UsageError(f"standard basis needs -a/2 <= d < a/2: {(a, d, e)}")
        # closure under multiplication by f*omega makes the lattice an ideal
        for g in (self.gen1, self.gen2):
            if not self.contains(g * self.order.gen):
                raise UsageError(f"{(a, d, e)} is not an ideal of {self.order}")
        assert self.gen2.norm() % (a * e) == 0

    @property
    def gen1(self) -> QuadElt:
        return self.order.from_coords(self.a, 0)

    @property
    def gen2(self) -> QuadElt:
        return self.order.from_coords(self.d, self.e)

    def norm(self) -> int:
        """Index of the ideal in its order, equal to a*e."""
        return self.a * self.e

    @property
    def is_primitive(self) -> bool:
        return self.e == 1

    def contains(self, x: QuadElt) -> bool:
        if not self.order.contains(x):
            return False
        u, v = self.order.coords(x)
        if v % self.e:
            return False
        return (u - (v // self.e) * self.d) % self.a == 0

    def conjugate(self) -> QIdeal:
        return ideal_from_generators(self.order, [self.gen1, self.gen2.conjugate()])

    def scaled(self, c: int) -> QIdeal:
        assert c > 0
        return QIdeal(self.order, c * self.a, c * self.d, c * self.e)

    def __str__(self) -> str:
        return f"<{self.gen1}, {self.gen2}> in {self.order}"


@dataclass(frozen=True)
class FracIdeal:
    """Fractional ideal num/den with den a positive integer, in lowest terms."""

    num: QIdeal
    den: int

    def __post_init__(self) -> None:
        assert self.den > 0
        g = math.gcd(math.gcd(self.num.a, self.num.d), math.gcd(self.num.e, self.den))
        if g > 1:
            n = self.num
            object.__setattr__(self, "num", QIdeal(n.order, n.a // g, n.d // g, n.e // g))
            object.__setattr__(self, "den", self.den // g)

    def is_integral(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return f"({self.num})/{self.den}" if self.den != 1 else str(self.num)


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form A x^2 + B xy + C y^2 attached to an ideal."""

    A: int
    B: int
    C: int

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(self.A, self.B), self.C)


def _lattice_std_basis(order: Order, vectors: list[tuple[int, int]]) -> QIdeal:
    """Standard basis of the lattice spanned by (1, f*omega)-coordinate pairs."""
    ys = [v for (_, v) in vectors]
    xs = [u for (u, _) in vectors]
    H, _ = hnf_columns([ys, xs])
    n = len(vectors)
    e = H[0][0] if n >= 1 else 0
    d0 = H[1][0] if n >= 1 else 0
    a = H[1][1] if n >= 2 else 0
    if e == 0 or a == 0:
        raise ZeroIdealError("generators span a lattice of rank < 2")
    r = d0 % a
    if 2 * r >= a:
        r -= a
    return QIdeal(order, a, r, e)


def ideal_from_generators(order: Order, gens: list[QuadElt]) -> QIdeal:
    """Ideal of `order` generated by `gens`, in standard basis.

    The Z-span of the generators and their f*omega multiples is already
    closed under the order action, so one Hermite pass suffices.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        raise ZeroIdealError("the zero ideal has no standard basis")
    vectors = []
    for g in live:
        vectors.append(order.coords(g))
        vectors.append(order.coords(g * order.gen))
    return _lattice_std_basis(order, vectors)


def ideal_mul(lhs: QIdeal, rhs: QIdeal) -> QIdeal:
    if lhs.order != rhs.order:
        raise UsageError("ideal product requires a common order")
    gens = [
        lhs.gen1 * rhs.gen1,
        lhs.gen1 * rhs.gen2,
        lhs.gen2 * rhs.gen1,
        lhs.gen2 * rhs.gen2,
    ]
    return ideal_from_generators(lhs.order, gens)


def ideal_inverse(ideal: QIdeal) -> FracIdeal:
    """Fractional inverse sigma(I)/norm(I)."""
    return FracIdeal(ideal.conjugate(), ideal.norm())


def associated_form(ideal: QIdeal) -> QuadForm:
    """The form q_I with e*q_I = (a, trace(gen2), norm(gen2)/a)."""
    a, e = ideal.a, ideal.e
    b = ideal.gen2.trace()
    c = ideal.gen2.norm() // a
    assert ideal.gen2.norm() % a == 0
    assert b % e == 0 and c % e == 0 and a % e == 0
    form = QuadForm(a // e, b // e, c // e)
    assert form.disc == ideal.order.disc
    return form


def multiplier_conductor(ideal: QIdeal) -> int:
    """Conductor f' of the multiplier ring {x : x*I <= I}, an order Z + Z*f'*omega.

    Computed as f' = f / content(q_I) from the associated form, then verified
    by direct membership: f'*omega must multiply I into I while f'/p * omega
    must not, for every prime p dividing f'.
    """
    order = ideal.order
    f = order.f
    form = associated_form(ideal)
    if f % form.content:
        raise InternalCheckError("form content does not divide the conductor")
    f_prime = f // form.content
    # the order of conductor f' multiplies I into itself ...
    mult = QuadElt(order.field, 0, f_prime)
    for gen in (ideal.gen1, ideal.gen2):
        if not ideal.contains(gen * mult):
            raise InternalCheckError("multiplier ring membership failed")
    # ... and no strictly larger order does
    for p in factorize(f_prime):
        wider = QuadElt(order.field, 0, f_prime // p)
        if all(ideal.contains(gen * wider) for gen in (ideal.gen1, ideal.gen2)):
            raise InternalCheckError("multiplier ring is larger than computed")
    return f_prime


def _colon_lattice(
    order: Order, target: QIdeal, elements: list[QuadElt], scale: int = 1
) -> QIdeal:
    """{z in O_f : z*g in scale*target for every g in elements} as an ideal.

    Membership is encoded with auxiliary integer unknowns and solved as one
    integer kernel; elements may live in the maximal order.
    """
    assert elements and scale > 0
    field = order.field
    t1 = target.gen1 * scale
    t2 = target.gen2 * scale
    n_unknowns = 2 + 2 * len(elements)
    rows: list[list[int]] = []
    for idx, g in enumerate(elements):
        zg_u = g  # z = u + v*f*omega; coefficient of u
        zg_v = order.gen * g  # coefficient of v
        for part in (0, 1):  # omega-coordinate index
            row = [0] * n_unknowns
            row[0] = (zg_u.a, zg_u.b)[part]
            row[1] = (zg_v.a, zg_v.b)[part]
            row[2 + 2 * idx] = -((t1.a, t1.b)[part])
            row[3 + 2 * idx] = -((t2.a, t2.b)[part])
            rows.append(row)
    basis = kernel_int(rows, n_unknowns)
    vectors = [(vec[0], vec[1]) for vec in basis]
    return _lattice_std_basis(order, vectors)


def fitt1(ideal: QIdeal) -> QIdeal:
    """First Fitting ideal of I, equal to I*I^{-1} and to (O_f : O_f').

    All three routes are computed and must agree: the closed form
    Z*(f/f') + Z*f*omega, the lattice product with the conjugate divided by
    the norm, and the generic conductor of the multiplier ring.
    """
    order = ideal.order
    f = order.f
    f_prime = multiplier_conductor(ideal)
    closed = QIdeal(order, f // f_prime, 0, 1)

    product = ideal_mul(ideal, ideal.conjugate())
    if FracIdeal(product, ideal.norm()) != FracIdeal(closed, 1):
        raise InternalCheckError("I*sigma(I)/N(I) disagrees with the closed form")

    one = QuadElt(order.field, 1, 0)
    mult_gen = QuadElt(order.field, 0, f_prime)
    conductor = _colon_lattice(order, order.unit_ideal(), [one, mult_gen])
    if conductor != closed:
        raise InternalCheckError("(O_f : O_f') disagrees with the closed form")

    if closed.norm() != f // f_prime:
        raise InternalCheckError("|R/Fitt1| must equal f/f'")
    return closed


def _norm_form(order: Order, ideal: QIdeal) -> tuple[int, int, int]:
    """Coefficients of N(p*gen1 + q*gen2) as a form in (p, q)."""
    e1, e2 = ideal.gen1, ideal.gen2
    A = e1.norm()
    C = e2.norm()
    B = (e1 * e2.conjugate()).trace()
    return A, B, C


def _unit_box_half_width(order: Order, target: int) -> int:
    """Integer W >= sqrt(target * eps) for the fundamental unit eps of the order.

    Any solution of |N(z)| = target has a unit multiple whose two real
    embeddings both lie within [-W, W].
    """
    info = units.fundamental_unit(order.field, order.f)
    eps = info.fundamental
    assert eps is not None
    if order.field.omega_kind.value == "half":
        omega_ub_num, omega_ub_den = 3 + math.isqrt(order.field.m), 2
    else:
        omega_ub_num, omega_ub_den = 1 + math.isqrt(order.field.m), 1
    # ceil of target * (|a| + |b| * omega_upper_bound)
    num = target * (abs(eps.a) * omega_ub_den + abs(eps.b) * omega_ub_num)
    bound_sq = -(-num // omega_ub_den)
    return isqrt_ceil(bound_sq)


def _norm_eq_candidates(
    order: Order, ideal: QIdeal, target: int, budget: int
) -> list[QuadElt]:
    """All z in the lattice of `ideal` with |N(z)| = target, up to unit multiples.

    For imaginary fields the list is complete; for real fields it is complete
    up to multiplication by units of the order, which is all the class
    decision needs.
    """
    A, B, C = _norm_form(order, ideal)
    field = order.field
    out: list[QuadElt] = []
    if field.is_imaginary:
        disc = B * B - 4 * A * C
        assert disc < 0
        q_hi = isqrt_ceil(4 * A * target // -disc) + 1
        targets = (target,)
    else:
        W = _unit_box_half_width(order, target)
        # z = p*gen1 + q*gen2; the sqrt(m)-coefficient of z is q*e*f*(1 or 1/2),
        # and |that coefficient| <= W / sqrt(m)
        scale = ideal.e * order.f * (1 if field.omega_kind.value == "half" else 2)
        q_hi = (2 * W) // (scale * math.isqrt(field.m)) + 2
        targets = (target, -target)
    if 2 * q_hi + 1 > budget:
        raise InconclusiveError(
            f"norm equation search width {2 * q_hi + 1} exceeds bound {budget}"
        )
    for q in range(-q_hi, q_hi + 1):
        for t in targets:
            # A p^2 + B p q + C q^2 = t, solved exactly for p
            disc_p = B * B * q * q - 4 * A * (C * q * q - t)
            if disc_p < 0:
                continue
            root = math.isqrt(disc_p)
            if root * root != disc_p:
                continue
            for sgn in ((1,) if root == 0 else (1, -1)):
                num = -B * q + sgn * root
                if num % (2 * A):
                    continue
                p = num // (2 * A)
                z = ideal.gen1 * p + ideal.gen2 * q
                if not z.is_zero():
                    out.append(z)
    return out


def is_same_class(lhs: QIdeal, rhs: QIdeal, bound: int | None = None) -> bool:
    """Whether r*I = s*J for some regular r, s, i.e. J = lambda*I in the field.

    Exact in both directions: a candidate lambda is only accepted after the
    lattice equality lambda*J = I is verified, and the candidate box is
    complete (imaginary: definite form box; real: reduction modulo the
    fundamental unit). Raises InconclusiveError only if the search width
    exceeds `bound`.
    """
    if lhs.order != rhs.order:
        raise UsageError("class comparison requires a common order")
    if lhs == rhs:
        return True
    budget = resolve_bound(bound)
    # the multiplier conductor is a class invariant; cheap negative filter
    if multiplier_conductor(lhs) != multiplier_conductor(rhs):
        return False
    order = lhs.order
    c = rhs.a
    colon = _colon_lattice(order, lhs, [rhs.gen1, rhs.gen2], scale=c)
    num = c * c * lhs.norm()
    if num % rhs.norm():
        return False
    target = num // rhs.norm()
    scaled_lhs = lhs.scaled(c)
    for z in _norm_eq_candidates(order, colon, target, budget):
        if ideal_from_generators(order, [z * rhs.gen1, z * rhs.gen2]) == scaled_lhs:
            return True
    return False


def is_principal(ideal: QIdeal, bound: int | None = None) -> bool:
    return is_same_class(ideal, ideal.order.unit_ideal(), bound=bound)


def _class_search_limit(order: Order) -> int:
    """Every ideal class contains a primitive ideal of norm at most this."""
    limit = 1
    for f_prime in divisors(order.f):
        d = f_prime * f_prime * abs(order.field.disc_max)
        mink = math.isqrt(d // 3) + 1 if order.field.is_imaginary else math.isqrt(d) + 1
        limit = max(limit, (order.f // f_prime) * mink)
    return limit


def enumerate_ideal_classes(order: Order, bound: int | None = None) -> list[QIdeal]:
    """Representatives of all ideal classes (invertible or not) of the order.

    Enumerates standard bases (a, d, e) with a*e below a Minkowski-style
    limit and merges by is_same_class. Representatives are minimal in the
    ordering (norm, a, d, e), so the output is deterministic.
    """
    budget = resolve_bound(bound)
    limit = _class_search_limit(order)
    f = order.f
    field = order.field
    reps: list[QIdeal] = []
    candidates = 0
    for a in range(1, limit + 1):
        for e in divisors(a):
            if a * e > limit:
                continue
            for d in range(-(a // 2), (a + 1) // 2):
                if d % e:
                    continue
                gen2 = QuadElt(field, d, e * f)
                if gen2.norm() % (a * e):
                    continue
                candidates += 1
                if candidates > budget:
                    raise InconclusiveError(
                        f"class enumeration exceeded bound {budget}"
                    )
                try:
                    ideal = QIdeal(order, a, d, e)
                except UsageError:
                    continue
                if not any(is_same_class(ideal, rep, bound=bound) for rep in reps):
                    reps.append(ideal)
    return reps
