"""The acceptance gate.

One test per criterion; `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each. Every check is exact (integer or field
arithmetic, no tolerances) and each criterion enforces its own runtime
budget where one is stated.
"""

import math
import random
import time

from cuspidal.arith import divisors, euler_phi, is_squarefree
from cuspidal.classnum import picard_order
from cuspidal.curvering import (
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_unit_group_order,
)
from cuspidal.cusps import cusp_count
from cuspidal.fieldpoly import CoeffField, CurvePoly
from cuspidal.genpairs import (
    GenPair,
    GenVec,
    UnimodularWitness,
    det_pair,
    epsilon_subgroup,
    orbit_count_sl2_mod_units,
    realize_det_class,
    reduce_vector,
    sl2_witness,
)
from cuspidal.oracles import brute_force_pic, curve_unit_group_brute, cusp_count_direct
from cuspidal.quadfield import QuadField
from cuspidal.quadideal import (
    Order,
    QIdeal,
    enumerate_ideal_classes,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    multiplier_conductor,
)
from cuspidal.units import fundamental_unit
from form_oracle import reduced_form_count
from span_oracle import conductor_h_solver
from test_curvering import _module_basis

TWELVE_FIELDS = (-1, -2, -3, -5, -7, -11, -15, 2, 3, 5, 6, 7)
GRID_FIELDS = (-1, -2, -3, -5, 2, 3, 5)


def has_norm_minus_one(field, f_prime):
    """Whether the order of conductor f' has a unit of norm -1."""
    return fundamental_unit(field, f_prime).has_norm_minus_one


def _random_order(rng, ms=GRID_FIELDS, max_f=6):
    return Order(QuadField(rng.choice(ms)), rng.randint(1, max_f))


def _random_ideal(rng, order):
    while True:
        gens = [
            order.from_coords(rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(rng.randint(1, 3))
        ]
        if any(not g.is_zero() for g in gens):
            return ideal_from_generators(order, gens)


def _sample_ideals(rng, count, ms=TWELVE_FIELDS, max_f=6):
    """Random ideals plus, for every order, the conductor-type strata."""
    out = []
    while len(out) < count:
        order = _random_order(rng, ms=ms, max_f=max_f)
        out.append(_random_ideal(rng, order))
        for f_prime in divisors(order.f):
            out.append(QIdeal(order, order.f // f_prime, 0, 1))
    return out


def _elementary(order, rng, size=2):
    one, zero = order.field.one, order.field.zero
    rows = [[one if i == j else zero for j in range(size)] for i in range(size)]
    i, j = rng.sample(range(size), 2)
    rows[i][j] = order.from_coords(rng.randint(-3, 3), rng.randint(-3, 3))
    return UnimodularWitness(tuple(tuple(row) for row in rows))


def _random_sl(order, rng, size=2, factors=8):
    out = _elementary(order, rng, size)
    for _ in range(rng.randint(0, factors - 1)):
        nxt = _elementary(order, rng, size)
        rows = tuple(
            tuple(nxt.apply_to(row)[k] for k in range(size)) for row in out.entries
        )
        out = UnimodularWitness(rows)
    return out


def test_criterion_1_maximal_order_count_is_the_class_number():
    for m in TWELVE_FIELDS:
        start = time.monotonic()
        order = Order(QuadField(m), 1)
        assert cusp_count(order).total == picard_order(order).h, m
        assert time.monotonic() - start < 1.0, m
    print("criterion 1: count at conductor 1 equals the class number, 12 fields")


def test_criterion_2_formula_agrees_with_direct_enumeration():
    start = time.monotonic()
    for m in GRID_FIELDS:
        field = QuadField(m)
        for f in range(1, 9):
            order = Order(field, f)
            assert cusp_count(order).total == cusp_count_direct(order), (m, f)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 2: formula vs enumeration, 7 fields x f <= 8, {elapsed:.1f}s")


def test_criterion_3_fitting_ideal_triple_identity():
    rng = random.Random(3)
    ideals = _sample_ideals(rng, 500)
    assert len(ideals) >= 500
    for ideal in ideals:
        order = ideal.order
        n0 = order.f // multiplier_conductor(ideal)
        fitting = fitt1(ideal)
        inv = ideal_inverse(ideal)
        assert ideal_mul(ideal, inv.num) == fitting.scaled(inv.den)
        assert fitting == QIdeal(order, n0, 0, 1)  # the conductor lattice
        assert fitting.norm() == n0  # quotient size f/f'
    print(f"criterion 3: Fitting triple identity on {len(ideals)} ideals")


def test_criterion_4_determinant_invariance_and_witness_soundness():
    rng = random.Random(4)
    for _ in range(1000):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        pair = GenPair(order, ideal.gen1, ideal.gen2)
        sigma = _random_sl(order, rng)
        moved = GenPair(order, *sigma.apply_to(pair.elements))
        assert det_pair(pair, moved).is_one
        assert det_pair(moved, pair).is_one
        witness = sl2_witness(pair, moved)
        assert witness.apply_to(pair.elements) == moved.elements
        assert witness.det() == order.field.one
        for row in witness.entries:
            assert all(order.contains(x) for x in row)
    print("criterion 4: 1000 transported pairs, class one and exact witnesses")


def test_criterion_5_every_determinant_class_is_realized():
    cases = 0
    for m, f in ((-1, 5), (-3, 4), (-5, 3), (2, 5), (3, 4), (5, 6)):
        order = Order(QuadField(m), f)
        for ideal in enumerate_ideal_classes(order):
            n0 = order.f // multiplier_conductor(ideal)
            base = GenPair(order, ideal.gen1, ideal.gen2)
            seen = set()
            for r in range(1, max(n0, 2)):
                if n0 > 1 and math.gcd(r, n0) != 1:
                    continue
                pair = realize_det_class(ideal, r)
                cls = det_pair(base, pair)
                assert cls.value == r % max(n0, 1) or n0 == 1
                seen.add(cls.value)
            expected = {r for r in range(n0) if math.gcd(r, n0) == 1}
            assert seen == (expected or {0}), (m, f, ideal)
            cases += 1
    assert cases >= 12
    print(f"criterion 5: determinant classes cover (Z/n0)^x on {cases} ideals")


def test_criterion_6_picard_sizes_against_independent_routes():
    start = time.monotonic()
    imaginary = 0
    for m in range(-51, 0):
        if not is_squarefree(m):
            continue
        field = QuadField(m)
        f = 1
        while f * f * abs(field.disc_max) <= 200:
            order = Order(field, f)
            disc = f * f * field.disc_max
            assert picard_order(order).h == reduced_form_count(disc), (m, f)
            imaginary += 1
            f += 1
    real = 0
    for m in range(2, 16):
        if not is_squarefree(m):
            continue
        field = QuadField(m)
        for f in (1, 2, 3):
            order = Order(field, f)
            assert picard_order(order).h == brute_force_pic(order).h, (m, f)
            real += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 6: Picard sizes, {imaginary} imaginary + {real} real orders,"
        f" {elapsed:.1f}s"
    )


def test_criterion_7_curve_ring_invariants():
    start = time.monotonic()
    rng = random.Random(7)
    fields = (CoeffField(0), CoeffField(5))
    checked = 0
    for n in (3, 5, 7):
        for field in fields:
            for _ in range(200):
                gens = []
                while not any(not g.is_zero for g in gens):
                    gens = [
                        CurvePoly.from_coeffs(
                            field,
                            [
                                field.coerce(rng.randint(-3, 3))
                                if rng.random() < 0.7
                                else field.zero
                                for _ in range(rng.randint(1, n + 3))
                            ],
                        )
                        for _ in range(rng.randint(1, 3))
                    ]
                ideal = curve_ideal_from_generators(field, n, gens)
                _, min_val = conductor_h_solver(field, n, ideal.p, ideal.q)
                assert curve_fitt1(ideal).exponent == min_val == n - 1 - ideal.nu
                ring = curve_multiplier_ring(ideal)
                assert ring.nu == ideal.nu
                # the multiplier exponent read off by raw membership
                lifts = [
                    ideal.content * CurvePoly.from_coeffs(field, row)
                    for _, row in _module_basis(ideal)
                ]
                step = CurvePoly.monomial(field, ideal.nu + 1)
                assert all(ideal.contains(step * g) for g in lifts)
                if ideal.nu >= 2:
                    bad = CurvePoly.monomial(field, ideal.nu - 1)
                    assert any(not ideal.contains(bad * g) for g in lifts)
                checked += 1
    f5 = CoeffField(5)
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            assert curve_unit_group_order(f5, n, nu) == curve_unit_group_brute(
                f5, n, nu
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7: curve ring invariants on {checked} ideals, {elapsed:.1f}s")


def test_criterion_8_vector_reduction_with_exact_witnesses():
    rng = random.Random(8)
    for i in range(200):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        size = 3 if i % 2 else 4
        elements = [ideal.gen1, ideal.gen2] + [order.field.zero] * (size - 2)
        mat = _random_sl(order, rng, size=size)
        vec = GenVec(order, mat.apply_to(tuple(elements)))
        pair, witness = reduce_vector(vec)
        assert vec.ideal == pair.ideal == ideal
        reduced = witness.apply_to(vec.elements)
        assert reduced[:2] == (pair.g1, pair.g2)
        assert all(x.is_zero() for x in reduced[2:])
        assert witness.det() == order.field.one
        for row in witness.entries:
            assert all(order.contains(x) for x in row)
    print("criterion 8: 200 generating vectors reduced with exact witnesses")


def test_criterion_9_epsilon_subgroup_and_orbit_counts():
    rng = random.Random(9)
    for ideal in _sample_ideals(rng, 300):
        order = ideal.order
        f_prime = multiplier_conductor(ideal)
        n0 = order.f // f_prime
        eps = epsilon_subgroup(order, f_prime)
        minus_one_distinct = n0 > 2 and (n0 - 1) in eps
        expected = n0 > 2 and has_norm_minus_one(order.field, f_prime)
        assert minus_one_distinct == expected, (order, ideal)
        assert orbit_count_sl2_mod_units(order, f_prime) * len(eps) == euler_phi(n0)
    print("criterion 9: epsilon subgroup matches norm data, orbit counts exact")
