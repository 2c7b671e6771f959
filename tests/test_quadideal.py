import math
import random
from fractions import Fraction

import pytest

from cuspidal.errors import UsageError, ZeroIdealError
from cuspidal.quadfield import QuadElt, QuadField
from cuspidal.quadideal import (
    Order,
    QIdeal,
    associated_form,
    enumerate_ideal_classes,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    is_principal,
    is_same_class,
    multiplier_conductor,
)

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
    from cuspidal.zlinalg import solve_int

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
    assert not is_principal(two)
    assert is_principal(ideal_mul(two, two))  # class of order two


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
