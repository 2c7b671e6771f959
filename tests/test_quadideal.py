import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from cuspidal.arith import divisors, is_squarefree, sqrt_mods
from cuspidal.classnum import class_number_maximal
from cuspidal.config import exhausted, resolve_bound
from cuspidal.errors import InconclusiveError, InternalCheckError, UsageError, ZeroIdealError
from cuspidal import classnum, quadideal
from cuspidal.oracles import cusp_count_direct
from cuspidal.quadfield import QuadElt, QuadField
from cuspidal.quadideal import (
    Order,
    QIdeal,
    QuadForm,
    _fitt1,
    associated_form,
    canonical_form,
    class_key,
    enumerate_ideal_classes,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    is_same_class,
    multiplier_conductor,
)
from cuspidal.units import fundamental_unit
from form_oracle import gauss_reduce, reduced_forms
from test_arith import isqrt_ceil
from test_hnf_oracle import _colon_by_one_kernel, hnf_columns

FIELDS = [QuadField(m) for m in (-1, -2, -3, -5, -7, -11, 2, 3, 5, 13)]


def _random_ideal(rng, order, tries=50):
    for _ in range(tries):
        gens = [
            order.from_coords(rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(rng.choice([1, 2, 2, 3]))
        ]
        if any(not g.is_zero() for g in gens):
            return ideal_from_generators(order, gens), gens
    raise AssertionError("random generator draw kept producing zero")


def _orders(rng):
    field = rng.choice(FIELDS)
    f = rng.randint(1, 6)
    return Order(field, f)


# ---------------------------------------------------------------------------
# the standard basis against a brute-force lattice oracle


def _zspan_members(order, gens, box=4):
    """All Z-combinations of gens and gens*f*omega with small coefficients."""
    vectors = []
    for g in gens:
        vectors.append(order.coords(g))
        vectors.append(order.coords(g * order.gen))
    members = {(0, 0)}
    for vec in vectors:
        members = {
            (u + k * vec[0], v + k * vec[1])
            for (u, v) in members
            for k in range(-box, box + 1)
        }
    return members


def test_standard_basis_spans_the_generated_lattice():
    rng = random.Random(101)
    for _ in range(120):
        order = _orders(rng)
        ideal, gens = _random_ideal(rng, order)
        # every small combination of the generators lies in the ideal
        for u, v in _zspan_members(order, gens, box=2):
            assert ideal.contains(order.from_coords(u, v))
        # and both standard basis vectors are reachable from the generators
        assert _in_lattice(order, gens, ideal.gen1)
        assert _in_lattice(order, gens, ideal.gen2)


def _in_lattice(order, gens, target):
    """Exact membership of target in the Z-span of gens and gens*f*omega."""
    from test_hnf_oracle import solve_int

    cols = []
    for g in gens:
        cols.append(order.coords(g))
        cols.append(order.coords(g * order.gen))
    rows = [[c[0] for c in cols], [c[1] for c in cols]]
    t = order.coords(target)
    return solve_int(rows, [t[0], t[1]]) is not None


def test_standard_basis_shape_constraints():
    rng = random.Random(102)
    for _ in range(200):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        a, d, e = ideal.a, ideal.d, ideal.e
        assert a > 0 and e > 0
        assert a % e == 0 and d % e == 0
        assert -a <= 2 * d < a
        assert ideal.gen2.norm() % (a * e) == 0
        assert ideal.norm() == a * e


def test_ideal_membership_matches_lattice_solve():
    rng = random.Random(103)
    for _ in range(100):
        order = _orders(rng)
        ideal, gens = _random_ideal(rng, order)
        for _ in range(10):
            x = order.from_coords(rng.randint(-30, 30), rng.randint(-30, 30))
            assert ideal.contains(x) == _in_lattice(
                order, [ideal.gen1, ideal.gen2], x
            )


def test_frozen_standard_bases():
    order = Order(QuadField(-3), 2)
    ideal = ideal_from_generators(order, [order.from_coords(2, 0), order.from_coords(0, 1)])
    assert (ideal.a, ideal.d, ideal.e) == (2, 0, 1)
    # the unit ideal from a pair of coprime norms
    unit = ideal_from_generators(order, [order.from_coords(2, 0), order.from_coords(1, 1)])
    assert (unit.a, unit.d, unit.e) == (1, 0, 1)
    with pytest.raises(ZeroIdealError):
        ideal_from_generators(order, [order.from_coords(0, 0)])


def test_rejects_non_ideal_standard_triples():
    order = Order(QuadField(-1), 2)
    with pytest.raises(UsageError):
        QIdeal(order, 0, 0, 1)
    with pytest.raises(UsageError):
        QIdeal(order, 4, 3, 1)  # d out of range
    with pytest.raises(UsageError):
        QIdeal(order, 4, 1, 2)  # e does not divide d
    with pytest.raises(UsageError):
        QIdeal(order, 4, 1, 1)  # lattice not closed under f*omega


def _hnf_std_basis(vectors):
    """Oracle: (a, d, e) read off the column Hermite form of the 2-row matrix
    of v- and u-coordinates, as a general HNF computes it."""
    H, _ = hnf_columns([[v for _, v in vectors], [u for u, _ in vectors]])
    e = H[0][0] if vectors else 0
    d0 = H[1][0] if vectors else 0
    a = H[1][1] if len(vectors) >= 2 else 0
    if e == 0 or a == 0:
        raise ZeroIdealError("generators span a lattice of rank < 2")
    r = d0 % a
    return a, r - a if 2 * r >= a else r, e


_pairs = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
_lattices = st.one_of(
    st.lists(_pairs, min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(-40, 40), st.just(0)), min_size=1, max_size=8),
    st.builds(  # rank 1: multiples of one vector
        lambda vec, ks: [(k * vec[0], k * vec[1]) for k in ks],
        _pairs,
        st.lists(st.integers(-5, 5), min_size=1, max_size=8),
    ),
)


@settings(max_examples=400, deadline=None)
@given(_lattices)
def test_closed_form_standard_basis_matches_hermite_form(vectors):
    order = Order(QuadField(-5), 1)
    try:
        expected = _hnf_std_basis(vectors)
    except ZeroIdealError:
        expected = ZeroIdealError
    # read (a, d, e) before QIdeal, which accepts only ideals among lattices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadideal, "QIdeal", lambda order, a, d, e: (a, d, e))
        try:
            got = quadideal._lattice_std_basis(order, vectors)
        except ZeroIdealError:
            got = ZeroIdealError
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(1, 12),
    st.lists(_pairs, min_size=1, max_size=4),
)
def test_ideal_from_generators_matches_the_product_route(field, f, coords):
    """g*f*omega on ints against QuadElt products and the Hermite oracle."""
    order = Order(field, f)
    gens = [order.from_coords(u, v) for u, v in coords]
    vectors = [order.coords(x) for g in gens for x in (g, g * order.gen)]
    try:
        expected = QIdeal(order, *_hnf_std_basis(vectors))
    except ZeroIdealError:
        with pytest.raises(ZeroIdealError):
            ideal_from_generators(order, gens)
        return
    assert ideal_from_generators(order, gens) == expected


# ---------------------------------------------------------------------------
# products, inverses, Fitting ideals


def test_multiplication_basics():
    rng = random.Random(104)
    for _ in range(80):
        order = _orders(rng)
        i1, _ = _random_ideal(rng, order)
        i2, _ = _random_ideal(rng, order)
        i3, _ = _random_ideal(rng, order)
        p12 = ideal_mul(i1, i2)
        assert p12 == ideal_mul(i2, i1)
        assert ideal_mul(p12, i3) == ideal_mul(i1, ideal_mul(i2, i3))
        assert ideal_mul(i1, order.unit_ideal()) == i1
        # products of members stay inside the product ideal
        x = i1.gen2 * i2.gen2 + i1.gen1 * i2.gen1
        assert p12.contains(x)


def test_products_and_classes_refuse_two_orders():
    field = QuadField(-5)
    lhs, rhs = Order(field, 1).unit_ideal(), Order(field, 2).unit_ideal()
    with pytest.raises(UsageError, match="^ideal product requires a common order$"):
        ideal_mul(lhs, rhs)
    with pytest.raises(UsageError, match="^class comparison requires a common order$"):
        is_same_class(lhs, rhs)


def test_invertible_ideal_times_conjugate_is_norm():
    rng = random.Random(105)
    seen = 0
    for _ in range(300):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        if multiplier_conductor(ideal) != order.f:
            continue  # only invertible classes satisfy the norm identity
        seen += 1
        prod = ideal_mul(ideal, ideal.conjugate())
        assert prod == order.unit_ideal().scaled(ideal.norm())
    assert seen >= 150


def _colon_into_order(order, ideal):
    """(O_f : I) = {x in K : x*I <= O_f}, by brute force over N(I).

    Denominators divide N(I), and a lattice between N*O and (1/N)*O has a
    triangular basis with numerator coordinates bounded by N, so the box
    below captures a generating set.
    """
    n = ideal.norm()
    pts = []
    for u in range(-n - 1, n + 2):
        for v in range(-n - 1, n + 2):
            num = order.from_coords(u, v)
            ok = True
            for g in (ideal.gen1, ideal.gen2):
                prod = num * g
                pu, pv = order.coords(prod)
                if pu % n or pv % n:
                    ok = False
                    break
            if ok:
                pts.append((u, v))
    return n, pts


def test_fitt1_is_ideal_times_brute_force_inverse():
    rng = random.Random(106)
    for _ in range(40):
        field = rng.choice([QuadField(-1), QuadField(-3), QuadField(2), QuadField(5)])
        order = Order(field, rng.randint(1, 4))
        ideal, _ = _random_ideal(rng, order)
        if ideal.norm() > 12:
            continue
        den, pts = _colon_into_order(order, ideal)
        # span of {x*g/den} over colon points x and basis g must be fitt1
        fitting = fitt1(ideal)
        products = []
        for u, v in pts:
            for g in (ideal.gen1, ideal.gen2):
                prod = order.from_coords(u, v) * g
                pu, pv = order.coords(prod)
                assert pu % den == 0 and pv % den == 0
                products.append(order.from_coords(pu // den, pv // den))
        regen = ideal_from_generators(order, [p for p in products if not p.is_zero()])
        assert regen == fitting


def test_fitt1_norm_is_conductor_quotient():
    rng = random.Random(107)
    for _ in range(150):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        f_prime = multiplier_conductor(ideal)
        fitting = fitt1(ideal)
        assert order.f % f_prime == 0
        assert fitting.norm() == order.f // f_prime
        # I * I^{-1} through the fractional inverse agrees
        inv = ideal_inverse(ideal)
        assert ideal_mul(ideal, inv.num) == fitting.scaled(inv.den)


@pytest.mark.parametrize("m,f,wrong", [(-5, 6, 4), (2, 12, 5), (-1, 12, 8)])
def test_fitt1_conductor_certificate_refuses_a_wrong_conductor(monkeypatch, m, f, wrong):
    """With the product route made to agree with an f' that does not divide
    f, the membership certificate of (O_f : O_f') alone must refuse it."""
    order = Order(QuadField(m), f)
    ideal = order.unit_ideal()

    def agreeing_product(lhs, rhs):
        n = lhs.norm()
        return QIdeal(order, f // wrong * n, 0, n)

    monkeypatch.setattr(quadideal, "ideal_mul", agreeing_product)
    with pytest.raises(InternalCheckError, match=r"\(O_f : O_f'\)"):
        _fitt1(ideal, wrong)


def test_multiplier_conductor_against_divisor_scan():
    rng = random.Random(108)
    from cuspidal.arith import divisors

    for _ in range(200):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        expected = None
        for d in divisors(order.f):
            mult = QuadElt(order.field, 0, d)  # d * omega
            if ideal.contains(mult * ideal.gen1) and ideal.contains(mult * ideal.gen2):
                expected = d
                break
        assert multiplier_conductor(ideal) == expected


def test_conductor_ideal_of_suborder():
    # Z*n0 + Z*f*omega has multiplier conductor f/n0... times n0 when n0 | f
    field = QuadField(-3)
    order = Order(field, 4)
    for n0 in (1, 2, 4):
        ideal = QIdeal(order, n0, 0, 1)
        assert multiplier_conductor(ideal) == order.f // n0
        assert fitt1(ideal).norm() == n0


def test_associated_form_content_and_disc():
    rng = random.Random(109)
    for _ in range(100):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        form = associated_form(ideal)
        f_prime = multiplier_conductor(ideal)
        assert order.f % form.content == 0
        assert f_prime == order.f // form.content
        assert form.disc == order.disc
        # the primitive part has the discriminant of the multiplier order
        assert form.disc % form.content**2 == 0
        assert form.disc // form.content**2 == Order(order.field, f_prime).disc


# ---------------------------------------------------------------------------
# classes


def test_class_of_scaled_ideal_is_unchanged():
    rng = random.Random(110)
    for _ in range(60):
        order = _orders(rng)
        ideal, _ = _random_ideal(rng, order)
        assert is_same_class(ideal, ideal.scaled(rng.randint(1, 5)))
        assert is_same_class(ideal, ideal)


def test_known_non_principal_ideal():
    field = QuadField(-5)
    order = Order(field, 1)
    two = ideal_from_generators(order, [order.from_coords(2, 0), order.from_coords(1, 1)])
    assert two.norm() == 2
    assert not is_same_class(two, order.unit_ideal())
    assert is_same_class(ideal_mul(two, two), order.unit_ideal())  # class of order two


def test_enumerate_classes_frozen_examples():
    order = Order(QuadField(-3), 2)
    reps = enumerate_ideal_classes(order)
    triples = sorted((i.a, i.d, i.e) for i in reps)
    assert triples == [(1, 0, 1), (2, 0, 1)]
    # the non-invertible class: I^2 = 2*I
    worse = QIdeal(order, 2, 0, 1)
    assert ideal_mul(worse, worse) == worse.scaled(2)
    assert multiplier_conductor(worse) == 1


def test_enumerated_classes_are_pairwise_distinct_and_cover():
    rng = random.Random(111)
    for field_m, f in [(-1, 2), (-3, 2), (-3, 4), (-5, 2), (2, 3), (5, 2)]:
        order = Order(QuadField(field_m), f)
        reps = enumerate_ideal_classes(order)
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert not is_same_class(r1, r2), (field_m, f, r1, r2)
        for _ in range(20):
            ideal, _ = _random_ideal(rng, order)
            hits = [r for r in reps if is_same_class(ideal, r)]
            assert len(hits) == 1, (field_m, f, ideal, hits)


def test_ideal_norm_multiplicative_for_invertible():
    rng = random.Random(112)
    checked = 0
    for _ in range(200):
        order = _orders(rng)
        i1, _ = _random_ideal(rng, order)
        i2, _ = _random_ideal(rng, order)
        if multiplier_conductor(i1) != order.f or multiplier_conductor(i2) != order.f:
            continue
        assert ideal_mul(i1, i2).norm() == i1.norm() * i2.norm()
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# class keys against an independent norm-equation search
#
# The oracle decides lambda*J = I by listing every z in the colon lattice
# (I : J) with |N(z)| = N(I)/N(J) (scaled to integers), up to units of the
# order, and testing each candidate lattice equality. It shares no reduction
# theory with class_key.


def _norm_form(ideal):
    """Coefficients of N(p*gen1 + q*gen2) as a form in (p, q)."""
    e1, e2 = ideal.gen1, ideal.gen2
    return e1.norm(), (e1 * e2.conjugate()).trace(), e2.norm()


def _unit_box_half_width(order, target):
    """W >= sqrt(target * eps): every solution of |N(z)| = target has a unit
    multiple whose two real embeddings lie in [-W, W]."""
    eps = fundamental_unit(order.field, order.f).fundamental
    m = order.field.m
    if m % 4 == 1:
        ub_num, ub_den = 3 + math.isqrt(m), 2
    else:
        ub_num, ub_den = 1 + math.isqrt(m), 1
    num = target * (abs(eps.a) * ub_den + abs(eps.b) * ub_num)
    return isqrt_ceil(-(-num // ub_den))


def _norm_eq_candidates(order, ideal, target, budget=2_000_000):
    """All z in `ideal` with |N(z)| = target, up to units of the order."""
    A, B, C = _norm_form(ideal)
    field = order.field
    if field.is_imaginary:
        q_hi = isqrt_ceil(4 * A * target // (4 * A * C - B * B)) + 1
        targets = (target,)
    else:
        W = _unit_box_half_width(order, target)
        scale = ideal.e * order.f * (1 if field.m % 4 == 1 else 2)
        q_hi = (2 * W) // (scale * math.isqrt(field.m)) + 2
        targets = (target, -target)
    if 2 * q_hi + 1 > budget:
        raise InconclusiveError(f"oracle search width {2 * q_hi + 1}")
    out = []
    for q in range(-q_hi, q_hi + 1):
        for t in targets:
            disc_p = B * B * q * q - 4 * A * (C * q * q - t)
            if disc_p < 0:
                continue
            root = math.isqrt(disc_p)
            if root * root != disc_p:
                continue
            for sgn in ((1,) if root == 0 else (1, -1)):
                num = -B * q + sgn * root
                if num % (2 * A) == 0:
                    z = ideal.gen1 * (num // (2 * A)) + ideal.gen2 * q
                    if not z.is_zero():
                        out.append(z)
    return out


def _search_same_class(lhs, rhs):
    """lambda*rhs = lhs for some lambda, decided by the norm-equation search."""
    if lhs == rhs:
        return True
    if multiplier_conductor(lhs) != multiplier_conductor(rhs):
        return False
    order = lhs.order
    c = rhs.a
    colon = _colon_by_one_kernel(order, lhs.scaled(c), [rhs.gen1, rhs.gen2])
    num = c * c * lhs.norm()
    if num % rhs.norm():
        return False
    scaled_lhs = lhs.scaled(c)
    return any(
        ideal_from_generators(order, [z * rhs.gen1, z * rhs.gen2]) == scaled_lhs
        for z in _norm_eq_candidates(order, colon, num // rhs.norm())
    )


def _loose_limit(order):
    """f/f' times isqrt(|D|/3) + 1 if D < 0, or isqrt(D) + 1 if D > 0,
    maximised over the discriminants D = f'^2*d_K of the f' | f: the limit of
    the enumeration oracles, which needs no Markov bound, as reduced forms
    have |A| < sqrt(D) when D > 0."""
    limit = 1
    for f_prime in divisors(order.f):
        d = f_prime * f_prime * abs(order.field.disc_max)
        window = math.isqrt(d // 3 if order.field.is_imaginary else d) + 1
        limit = max(limit, (order.f // f_prime) * window)
    return limit


def _markov_limit(order):
    """The library's documented search limit on D = f^2*d_K: isqrt(|D|/3) if
    D < 0, isqrt(25*D/221) if D > 0, raised to f when d_K is 5 or 8."""
    disc = order.disc
    if disc < 0:
        return math.isqrt(-disc // 3)
    return max(math.isqrt(25 * disc // 221), order.f if order.field.disc_max in (5, 8) else 0)


def _pairwise_classes(order):
    """Class enumeration by pairwise search: each candidate of the library's
    loop, up to the loose limit, against every class found so far."""
    limit = _loose_limit(order)
    reps = []
    for a in range(1, limit + 1):
        for e in divisors(a):
            if a * e > limit:
                continue
            for d in range(-(a // 2), (a + 1) // 2):
                if d % e or QuadElt(order.field, d, e * order.f).norm() % (a * e):
                    continue
                try:
                    ideal = QIdeal(order, a, d, e)
                except UsageError:
                    continue
                if not any(_search_same_class(ideal, rep) for rep in reps):
                    reps.append(ideal)
    return reps


# imaginary; real with a unit of norm -1; real without one
KEY_FIELDS = (-1, -2, -3, -5, -15, -23, 2, 5, 10, 3, 6, 79, 94, 223)


@functools.lru_cache(maxsize=None)
def _small_ideals(order, max_norm=30):
    """Every ideal of the order with norm a*e <= max_norm."""
    out = []
    for a in range(1, max_norm + 1):
        for e in divisors(a):
            if a * e > max_norm:
                continue
            for d in range(-(a // 2), (a + 1) // 2):
                try:
                    out.append(QIdeal(order, a, d, e))
                except UsageError:
                    pass
    return out


@st.composite
def _ideal_pairs(draw):
    """Two ideals of one order: independent, or a multiple or the conjugate of
    the first. Each is a small ideal times Z*n0 + Z*f*omega for a drawn n0 | f,
    which makes it non-invertible whenever n0 > 1. Norms stay small enough for
    the search box of the oracle, which grows with sqrt(eps) in real fields."""
    order = Order(QuadField(draw(st.sampled_from(KEY_FIELDS))), draw(st.integers(1, 4)))

    def ideal():
        n0 = draw(st.sampled_from(divisors(order.f)))
        return ideal_mul(draw(st.sampled_from(_small_ideals(order))), QIdeal(order, n0, 0, 1))

    lhs = ideal()
    how = draw(st.sampled_from(["independent", "multiple", "conjugate"]))
    if how == "independent":
        rhs = ideal()
    elif how == "multiple":
        u, v = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        lam = order.from_coords(u, v)
        rhs = ideal_from_generators(order, [lam * lhs.gen1, lam * lhs.gen2])
    else:
        rhs = lhs.conjugate()
    return lhs, rhs


@settings(max_examples=300, deadline=None)
@given(_ideal_pairs())
def test_class_key_matches_norm_equation_search(pair):
    lhs, rhs = pair
    same = class_key(lhs) == class_key(rhs)
    event(f"same class: {same}")
    event(f"invertible: {multiplier_conductor(lhs) == lhs.order.f}")
    assert same == _search_same_class(lhs, rhs) == is_same_class(lhs, rhs)


@pytest.mark.parametrize(
    "m", [-1, -2, -3, -5, -7, -11, -15, -23, -47, -71, 2, 3, 5, 6, 7, 10, 79, 94, 223]
)
def test_enumeration_matches_pairwise_search(m):
    for f in (1, 2, 3, 4):
        order = Order(QuadField(m), f)
        assert enumerate_ideal_classes(order) == _pairwise_classes(order), (m, f)


def _scan_classes(order: Order) -> list[QIdeal]:
    """Representatives of all ideal classes (invertible or not) of the order.

    Enumerates standard bases (a, d, e) with a*e up to the loose limit and
    keeps the first ideal of each class_key. Representatives are minimal in
    the ordering (norm, a, d, e), so the output is deterministic.
    """
    budget = resolve_bound()
    limit = _loose_limit(order)
    t, r = order.field.omega_trace, order.field.omega_sq[0]
    reps: dict[tuple[int, QuadForm], QIdeal] = {}
    candidates = 0
    for a in range(1, limit + 1):
        for e in divisors(a):
            if a * e > limit:
                continue
            # N(d + y*omega) = d^2 + t*y*d - r*y^2 with y = e*f, for d = 0 mod e
            y = e * order.f
            ty, ry2 = t * y, r * y * y
            for d in range(-((a // 2) // e) * e, (a + 1) // 2, e):
                if (d * d + ty * d - ry2) % (a * e):
                    continue
                candidates += 1
                if candidates > budget:
                    raise exhausted(f"class enumeration exceeded bound {budget}")
                try:
                    ideal = QIdeal(order, a, d, e)
                except UsageError:
                    continue
                reps.setdefault(class_key(ideal), ideal)
    return list(reps.values())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-5000, 5000).filter(lambda m: m not in (0, 1) and is_squarefree(m)),
    st.integers(1, 6),
)
def test_enumeration_matches_the_full_standard_basis_scan(m, f):
    """The oracle is the scan over every standard basis (a, d, e) with
    a*e up to the loose limit, which the root-driven enumeration replaced."""
    order = Order(QuadField(m), f)
    event(f"real: {m > 0}")
    assert enumerate_ideal_classes(order) == _scan_classes(order)


def _primitive_ideal_count(order):
    """Primitive ideals (a, d, 1) with a up to the library's documented search
    limit, by trial."""
    count = 0
    for a in range(1, _markov_limit(order) + 1):
        for d in range(-(a // 2), (a + 1) // 2):
            try:
                QIdeal(order, a, d, 1)
            except UsageError:
                continue
            count += 1
    return count


@pytest.mark.parametrize("m,f", [(-23, 1), (-3, 4), (5, 6), (79, 3), (-5, 2), (223, 4)])
def test_enumeration_budget_counts_primitive_candidates(monkeypatch, m, f):
    order = Order(QuadField(m), f)
    count = _primitive_ideal_count(order)
    scanned = _scan_classes(order)
    monkeypatch.setenv("CUSPIDAL_BOUND", str(count))
    assert enumerate_ideal_classes(order) == scanned
    monkeypatch.setenv("CUSPIDAL_BOUND", str(count - 1))
    with pytest.raises(InconclusiveError, match="; raise it with CUSPIDAL_BOUND$"):
        enumerate_ideal_classes(order)


def _loose_classes(order):
    """The primitive ideals (a, d, 1) up to the loose limit, found from the
    square roots of the discriminant mod 4a, keeping the first ideal of each
    class_key of its QIdeal by ascending (a, d)."""
    disc, tf = order.disc, order.field.omega_trace * order.f
    reps = {}
    for n, roots in sqrt_mods(disc, range(4, 4 * _loose_limit(order) + 1, 4)):
        a = n // 4
        for d in sorted({((r - tf) // 2 + a // 2) % a - a // 2 for r in roots}):
            ideal = QIdeal(order, a, d, 1)
            reps.setdefault(class_key(ideal), ideal)
    return list(reps.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000).filter(is_squarefree), st.integers(1, 12))
@example(221, 1)
@example(1517, 1)
def test_markov_window_misses_no_real_class(m, f):
    """Real fields search a <= f*sqrt(25*d_K/221), or a <= f for d_K = 5, 8;
    the loose window f*sqrt(d_K) + f finds no class that it misses, and the
    same first ideal of each. 221 and 1517 are 9k^2 - 4 for the Markov numbers
    k = 5, 13: their Markov forms take no value below k, about sqrt(d_K/9)."""
    order = Order(QuadField(m), f)
    assert enumerate_ideal_classes(order) == _loose_classes(order)


@settings(max_examples=150, deadline=None)
@given(st.integers(5, 200_000).filter(lambda n: n % 4 in (0, 1) and math.isqrt(n) ** 2 != n))
@example(5)
@example(8)
@example(221)
def test_every_cycle_pair_holds_a_form_within_markovs_bound(disc):
    """Each class of primitive reduced forms under SL2(Z) and (A, B, C) ->
    (-A, B, -C) has a form with |A| <= 5*sqrt(disc/221) (Markov), but for the
    one class of disc 5 and of disc 8, where the least |A| is 1."""
    least: dict[QuadForm, int] = {}
    for form in reduced_forms(disc):
        canon = canonical_form(form)
        least[canon] = min(least.get(canon, abs(form.A)), abs(form.A))
    assert max(least.values()) <= (1 if disc in (5, 8) else math.isqrt(25 * disc // 221))


def test_markovs_window_is_tight_at_221(monkeypatch):
    """The second class of Q(sqrt(221)) is that of the Markov form
    5x^2 + 11xy - 5y^2, which takes no value below 5 = isqrt(25*221/221): the
    window finds it at a = 5, and a window one narrower loses it."""
    order = Order(QuadField(221), 1)
    assert quadideal._class_search_limit(order) == _markov_limit(order) == 5
    assert [rep.a for rep in enumerate_ideal_classes(order)] == [1, 5]
    monkeypatch.setattr(quadideal, "_class_search_limit", lambda order: 4)
    assert [rep.a for rep in enumerate_ideal_classes(order)] == [1]


@pytest.mark.parametrize("m", [5, 2])
def test_markovs_first_two_forms_raise_the_window_to_the_conductor(m):
    """d_K = 5 and 8 hold x^2 + xy - y^2 and x^2 - 2y^2, whose least value 1
    exceeds 5*sqrt(d_K/221): the one class of content f, f times that form, has
    no ideal of norm below f, and the window is raised to f to find it there."""
    for f in range(1, 13):
        order = Order(QuadField(m), f)
        assert quadideal._class_search_limit(order) == _markov_limit(order) == f
        assert math.isqrt(25 * order.disc // 221) < f
        (rep,) = [rep for (g, _), rep in quadideal._keyed_classes(order).items() if g == f]
        assert rep.a == f, f


def test_enumeration_keys_match_the_loose_scan_on_small_fields():
    """On every squarefree 2 <= |m| < 200 and f <= 6, the Gauss and Markov
    windows find the keys of the loose scan, with the same first ideal of each."""
    for m in range(-199, 200):
        if m in (0, 1) or not is_squarefree(m):
            continue
        for f in range(1, 7):
            order = Order(QuadField(m), f)
            scanned = [(class_key(rep), rep) for rep in _scan_classes(order)]
            assert list(quadideal._keyed_classes(order).items()) == scanned, (m, f)


def test_each_rho_cycle_is_walked_once_per_session(monkeypatch):
    """class_number_maximal and the cusp cross-check for f = 1..4 share one
    cycle table per discriminant: the walked forms and their negatives are every
    reduced form of each discriminant once, one walk per pair of cycles, and
    cache_clear starts the walks over."""
    walks = []

    def counted(form, disc, s, real=quadideal._rho_walk):
        walked = []
        walks.append((disc, walked))
        for pair in real(form, disc, s):
            walked.append(pair[0])
            yield pair

    monkeypatch.setattr(quadideal, "_rho_walk", counted)
    field = QuadField(223)
    counts = []
    for _ in range(2):
        quadideal._cycle_table.cache_clear()
        class_number_maximal.cache_clear()
        walks.clear()
        class_number_maximal(field)
        for f in (1, 2, 3, 4):
            cusp_count_direct(Order(field, f))
        pairs = set()
        for k in (1, 2, 3, 4):
            disc = k * k * field.disc_max
            forms = []
            for d, walked in walks:
                if d == disc:
                    pair = walked + [QuadForm(-A, B, -C) for A, B, C in walked]
                    pairs.add((disc, min(pair)))
                    forms += pair
            assert sorted(forms) == sorted(reduced_forms(disc)), k
        counts.append(len(walks))
    assert counts[0] == counts[1] == len(pairs)


@pytest.mark.parametrize("m, disc", [(10000000019, 40000000076), (10**9 + 7, 4000000028)])
def test_rho_cycle_walks_stop_at_the_budget(monkeypatch, m, disc):
    """The principal rho-cycles of these fields are far longer than 3,000 steps;
    the walk of the class key and that of the unit each stop after the budget's
    rho-steps and name their search."""
    steps = [0]

    def counted_rho(form, d, s, real=quadideal._rho):
        steps[0] += 1
        return real(form, d, s)

    monkeypatch.setattr(quadideal, "_rho", counted_rho)
    monkeypatch.setenv("CUSPIDAL_BOUND", "3000")
    message = (f"^the rho-cycle of discriminant {disc} exceeds bound 3000 rho-steps;"
               " raise it with CUSPIDAL_BOUND$")
    principal = (1, disc % 2, (disc % 2 - disc) // 4)
    for walk in (lambda: canonical_form(principal), lambda: fundamental_unit(QuadField(m))):
        quadideal._cycle_table.cache_clear()
        fundamental_unit.cache_clear()
        steps[0] = 0
        with pytest.raises(InconclusiveError, match=message):
            walk()
        assert steps[0] == 3000
    quadideal._cycle_table.cache_clear()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(5, 200_000).filter(lambda n: n % 4 in (0, 1) and math.isqrt(n) ** 2 != n),
    st.data(),
)
def test_rho_commutes_with_negation(disc, data):
    """rho reads only B and |C|, so it sends (-A, B, -C) to the negative of
    rho(A, B, C): one walk's forms and their negatives are both cycles."""
    form = data.draw(st.sampled_from(reduced_forms(disc)))
    s = math.isqrt(disc)
    A, B, C = quadideal._rho(form, disc, s)
    assert quadideal._rho(QuadForm(-form.A, form.B, -form.C), disc, s) == (-A, B, -C)


def _two_walk_canonical_forms(disc):
    """The canonical form of each reduced form of disc > 0 from two full
    rho-cycle walks, of the form and of its negative: the least form on both."""
    s = math.isqrt(disc)
    canon = {}
    for form in reduced_forms(disc):
        if form in canon:
            continue
        walked = set()
        for q in (form, QuadForm(-form.A, form.B, -form.C)):
            while q not in walked:
                walked.add(q)
                q = quadideal._rho(q, disc, s)
        canon.update(dict.fromkeys(walked, min(walked)))
    return canon


def test_one_walk_per_pair_gives_the_two_walk_canonical_form():
    """canonical_form agrees with the two-walk oracle on every reduced form of
    f^2*d_K for squarefree 2 <= m < 1000 and f <= 3."""
    quadideal._cycle_table.cache_clear()
    for m in range(2, 1000):
        if not is_squarefree(m):
            continue
        for f in (1, 2, 3):
            disc = f * f * QuadField(m).disc_max
            oracle = _two_walk_canonical_forms(disc)
            assert {q: canonical_form(q) for q in oracle} == oracle, (m, f)
    quadideal._cycle_table.cache_clear()


def test_shared_cycle_table_gives_the_same_keys():
    """Keys read from the cycle tables that the enumeration filled equal keys
    computed on emptied tables."""
    order = Order(QuadField(79), 3)
    quadideal._cycle_table.cache_clear()
    reps = enumerate_ideal_classes(order)
    assert quadideal._cycle_table(order.disc)
    shared = [class_key(rep) for rep in reps]
    fresh = []
    for rep in reps:
        quadideal._cycle_table.cache_clear()
        fresh.append(class_key(rep))
    assert shared == fresh and len(set(shared)) == len(reps)


def _lt_sqrt(n, disc):
    """n < sqrt(disc) for a non-square disc > 0."""
    return n < 0 or n * n < disc


def _brute_reduced_forms(disc):
    """Every primitive form of discriminant disc in a box around the
    reduction conditions, kept when it meets them as stated."""
    out = []
    top = math.isqrt(abs(disc)) + 1
    for A in range(-top, top + 1):
        for B in range(-top, top + 1):
            if A == 0 or (B * B - disc) % (4 * A):
                continue
            C = (B * B - disc) // (4 * A)
            if math.gcd(math.gcd(A, B), C) != 1:
                continue
            if disc < 0:
                keep = 0 < A and abs(B) <= A <= C and (B >= 0 or (-B != A and A != C))
            else:
                # |sqrt(disc) - 2|A|| < B < sqrt(disc)
                window = _lt_sqrt(2 * abs(A) - B, disc) and not _lt_sqrt(2 * abs(A) + B, disc)
                keep = _lt_sqrt(B, disc) and window
            if keep:
                out.append((A, B, C))
    return sorted(out)


@pytest.mark.parametrize("sign", [-1, 1])
def test_reduced_forms_match_a_brute_box(sign):
    """The oracle's listing of either sign, and the library's count of the
    definite forms behind an imaginary class number, match the brute box."""
    for n in range(1, 1501):
        disc = sign * n
        if disc % 4 not in (0, 1) or math.isqrt(n) ** 2 == n:
            continue
        brute = _brute_reduced_forms(disc)
        assert sorted(reduced_forms(disc)) == brute, disc
        if disc < 0:
            assert classnum._reduced_definite_count(disc) == len(brute), disc


def _transform(form, a, b, c, d):
    """The form (A, B, C) evaluated at (a*x + b*y, c*x + d*y)."""
    A, B, C = form
    return QuadForm(
        A * a * a + B * a * c + C * c * c,
        2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d,
        A * b * b + B * b * d + C * d * d,
    )


@st.composite
def _sl2_matrices(draw):
    """A product of a few generators S and T^k of SL2(Z)."""
    a, b, c, d = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)):
        a, b, c, d = b, k * b - a, d, k * d - c  # times [[0, -1], [1, k]]
    return a, b, c, d


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([-3, -4, -23, -47, -71, -84, 5, 8, 12, 40, 316, 404, 892, 4 * 79]),
    st.data(),
)
def test_canonical_form_is_constant_on_classes(disc, data):
    forms = reduced_forms(disc)
    form = data.draw(st.sampled_from(forms))
    moved = _transform(form, *data.draw(_sl2_matrices()))
    assert moved.disc == disc
    assert canonical_form(moved) == canonical_form(form) in forms
    if disc > 0:
        assert canonical_form(QuadForm(-form.A, form.B, -form.C)) == canonical_form(form)


@st.composite
def _definite_forms(draw):
    """A positive definite form (A, B, C), primitive or not, B^2 < 4AC."""
    A = draw(st.integers(1, 10**12))
    C = draw(st.integers(1, 10**12))
    top = math.isqrt(4 * A * C - 1)
    return A, draw(st.integers(-top, top)), C


@settings(max_examples=500, deadline=None)
@given(_definite_forms())
@example((1, 1, 1))
@example((2, -2, 3))
@example((3, -2, 3))
@example((10**12, 2 * 10**12 - 1, 10**12))
def test_rho_steps_reduce_a_definite_form_as_gausss_loop_does(form):
    assert quadideal._reduce_definite(*form) == gauss_reduce(*form)


def _reduced_by_rho_steps(form):
    A, B, C = form
    disc = B * B - 4 * A * C
    s = math.isqrt(disc)
    q = form
    while not (2 * abs(q[0]) - q[1] <= s < 2 * abs(q[0]) + q[1] and q[1] <= s):
        q = quadideal._rho(q, disc, s)
    return QuadForm(*q)


def test_one_translation_reaches_the_canonical_form_of_the_rho_steps():
    """An indefinite (A, B, C) with 2|A| <= isqrt(D) is reduced by one translation
    of B instead of rho-steps; over the maximal orders of every squarefree
    2 <= m < 3000 it gets the canonical form that the rho-steps reach, from B far
    above and far below the reduction window."""
    checked = 0
    for m in range(2, 3000):
        if not is_squarefree(m):
            continue
        disc = QuadField(m).disc_max
        s = math.isqrt(disc)
        for a in range(1, min(s // 2, 6) + 1):
            for root in (b for b in range(2 * a) if (b * b - disc) % (4 * a) == 0):
                for A, B in ((a, root + 14 * a), (-a, root - 10 * a)):
                    C = (B * B - disc) // (4 * A)
                    if math.gcd(A, B, C) == 1:
                        want = canonical_form(_reduced_by_rho_steps((A, B, C)))
                        assert canonical_form((A, B, C)) == want, (m, (A, B, C))
                        checked += 1
    assert checked > 10_000
