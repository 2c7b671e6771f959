import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import pair_oracle
from cuspidal import genpairs
from cuspidal.arith import divisors, euler_phi
from cuspidal.cli import main
from cuspidal.errors import InternalCheckError, UsageError, ZeroIdealError
from cuspidal.genpairs import (
    DetClass,
    GenPair,
    GenVec,
    UnimodularWitness,
    det_int,
    det_pair,
    epsilon_subgroup,
    orbit_count_gl2,
    orbit_count_sl2_mod_units,
    realize_det_class,
    reduce_vector,
    sl2_witness,
)
from cuspidal.quadfield import QuadElt, QuadField
from cuspidal.quadideal import (
    Order,
    QIdeal,
    _fitt1,
    enumerate_ideal_classes,
    ideal_from_generators,
    multiplier_conductor,
)
from cuspidal.units import fundamental_unit

FIELDS = [QuadField(m) for m in (-1, -2, -3, -5, 2, 3, 5)]


def _random_order(rng):
    return Order(rng.choice(FIELDS), rng.randint(1, 6))


def _random_ideal(rng, order):
    while True:
        gens = [
            order.from_coords(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)
        ]
        if any(not g.is_zero() for g in gens):
            return ideal_from_generators(order, gens)


def _base_pair(ideal):
    pair = GenPair(ideal.order, ideal.gen1, ideal.gen2)
    assert pair.ideal == ideal
    return pair


def _elementary(order, rng, size=2):
    """A random elementary SL_size matrix over the order, small coordinates."""
    one, zero = order.field.one, order.field.zero
    rows = [[one if i == j else zero for j in range(size)] for i in range(size)]
    i, j = rng.sample(range(size), 2)
    rows[i][j] = order.from_coords(rng.randint(-3, 3), rng.randint(-3, 3))
    return UnimodularWitness(tuple(tuple(row) for row in rows))


def _random_sl(order, rng, size=2, factors=6):
    out = _elementary(order, rng, size)
    for _ in range(rng.randint(0, factors - 1)):
        nxt = _elementary(order, rng, size)
        rows = tuple(
            tuple(nxt.apply_to(row)[k] for k in range(size)) for row in out.entries
        )
        out = UnimodularWitness(rows)
    return out


def test_det_class_normalization_and_product():
    c = DetClass(7, 5)
    assert c.value == 2
    assert not c.is_one
    assert DetClass(6, 5).is_one
    assert (DetClass(2, 5) * DetClass(3, 5)).is_one
    assert DetClass(0, 1).is_one  # trivial modulus


def test_swap_has_det_class_minus_one():
    rng = random.Random(201)
    for _ in range(60):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        n0 = order.f // multiplier_conductor(ideal)
        pair = _base_pair(ideal)
        swapped = GenPair(order, ideal.gen2, ideal.gen1)
        cls = det_pair(pair, swapped)
        assert cls == DetClass(-1, n0)


def test_det_cocycle():
    rng = random.Random(202)
    for _ in range(40):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        p1 = _base_pair(ideal)
        m2 = _random_sl(order, rng)
        m3 = _random_sl(order, rng)
        p2 = GenPair(order, *m2.apply_to(p1.elements))
        p3 = GenPair(order, *m3.apply_to(p2.elements))
        d12 = det_pair(p1, p2)
        d23 = det_pair(p2, p3)
        d13 = det_pair(p1, p3)
        assert d12 * d23 == d13


def test_unimodular_action_is_sl2_trivial():
    rng = random.Random(203)
    for _ in range(120):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        pair = _base_pair(ideal)
        mat = _random_sl(order, rng)
        moved = GenPair(order, *mat.apply_to(pair.elements))
        assert det_pair(pair, moved).is_one
        assert det_pair(moved, pair).is_one
        witness = sl2_witness(pair, moved)
        assert witness.apply_to(pair.elements) == moved.elements
        assert witness.det() == order.field.one
        for row in witness.entries:
            for entry in row:
                assert order.contains(entry)


def test_witness_on_identical_pairs_is_identity_action():
    order = Order(QuadField(-3), 4)
    ideal = QIdeal(order, 2, 0, 1)
    pair = _base_pair(ideal)
    witness = sl2_witness(pair, pair)
    assert witness.apply_to(pair.elements) == pair.elements
    assert witness.det() == order.field.one


def test_witness_refused_when_classes_differ():
    order = Order(QuadField(-1), 5)
    ideal = QIdeal(order, 5, 0, 1)
    pair = _base_pair(ideal)
    other = GenPair(order, pair.g2, pair.g1)  # swap: class -1 = 4 mod 5
    cls = det_pair(pair, other)
    assert cls == DetClass(4, 5)
    assert not cls.is_one
    with pytest.raises(UsageError):
        sl2_witness(pair, other)


def test_scaling_one_generator_scales_the_class():
    order = Order(QuadField(-1), 5)
    ideal = QIdeal(order, 5, 0, 1)
    pair = _base_pair(ideal)
    for r in (1, 2, 3, 4):
        other = GenPair(order, pair.g1, pair.g2 * r)
        assert det_pair(pair, other) == DetClass(r, 5)


def test_realized_classes_cover_all_residues():
    rng = random.Random(204)
    cases = [(-1, 5), (-3, 4), (-3, 6), (2, 5), (5, 4), (-5, 3)]
    for m, f in cases:
        order = Order(QuadField(m), f)
        for ideal in enumerate_ideal_classes(order):
            n0 = order.f // multiplier_conductor(ideal)
            base = _base_pair(ideal)
            for residue in range(1, n0 + 1):
                if math.gcd(residue, n0) != 1:
                    continue
                pair = realize_det_class(ideal, residue)
                assert det_pair(base, pair) == DetClass(residue, n0)


def test_distinct_classes_partition_realized_pairs():
    order = Order(QuadField(-1), 5)
    ideal = QIdeal(order, 5, 0, 1)
    pairs = {r: realize_det_class(ideal, r) for r in (1, 2, 3, 4)}
    for r1, p1 in pairs.items():
        for r2, p2 in pairs.items():
            expected = r1 == r2  # epsilon subgroup is trivial here
            assert det_pair(p1, p2).is_one == expected


def test_epsilon_subgroup_matches_unit_norms():
    rng = random.Random(205)
    for _ in range(150):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        f_prime = multiplier_conductor(ideal)
        n0 = order.f // f_prime
        eps = epsilon_subgroup(order, f_prime)
        if fundamental_unit(order.field, f_prime).has_norm_minus_one:
            assert eps == tuple(sorted({1 % n0, -1 % n0}))
        else:
            assert eps == (1 % n0,)


def test_orbit_counts_multiply_back_to_phi():
    rng = random.Random(206)
    for _ in range(150):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        f_prime = multiplier_conductor(ideal)
        n0 = order.f // f_prime
        sl2 = orbit_count_sl2_mod_units(order, f_prime)
        assert sl2 * len(epsilon_subgroup(order, f_prime)) == euler_phi(n0)
        gl2 = orbit_count_gl2(order, f_prime)
        assert euler_phi(n0) % gl2 == 0
        assert gl2 <= sl2


def test_orbit_counts_frozen_examples():
    order = Order(QuadField(-1), 5)
    ideal = QIdeal(order, 5, 0, 1)
    assert orbit_count_sl2_mod_units(order, multiplier_conductor(ideal)) == 4
    assert orbit_count_gl2(order, multiplier_conductor(ideal)) == 2
    order2 = Order(QuadField(-3), 4)
    ideal2 = QIdeal(order2, 2, 0, 1)
    assert multiplier_conductor(ideal2) == 2
    assert orbit_count_sl2_mod_units(order2, multiplier_conductor(ideal2)) == 1
    # real field with a norm -1 unit: epsilon halves the count
    order3 = Order(QuadField(2), 5)
    ideal3 = QIdeal(order3, 5, 0, 1)
    assert fundamental_unit(QuadField(2), 1).has_norm_minus_one
    assert orbit_count_sl2_mod_units(order3, multiplier_conductor(ideal3)) == 2


def test_vector_reduction_round_trip():
    rng = random.Random(207)
    for _ in range(80):
        order = _random_order(rng)
        ideal = _random_ideal(rng, order)
        size = rng.choice([3, 4, 5])
        elements = list(_base_pair(ideal).elements) + [order.field.zero] * (size - 2)
        mat = _random_sl(order, rng, size=size, factors=8)
        vec = GenVec(order, mat.apply_to(tuple(elements)))
        pair, witness = reduce_vector(vec)
        assert pair.ideal == vec.ideal == ideal
        reduced = witness.apply_to(vec.elements)
        assert reduced[0] == pair.g1 and reduced[1] == pair.g2
        assert all(x.is_zero() for x in reduced[2:])
        assert witness.det() == order.field.one
        for row in witness.entries:
            for entry in row:
                assert order.contains(entry)


def test_vector_reduction_single_nonzero_entry():
    order = Order(QuadField(-3), 2)
    c = order.from_coords(3, 0)
    vec = GenVec(order, (c, order.field.zero, order.field.zero, order.field.zero))
    pair, witness = reduce_vector(vec)
    assert witness.det() == order.field.one
    reduced = witness.apply_to(vec.elements)
    assert reduced[:2] == pair.elements
    assert all(x.is_zero() for x in reduced[2:])


@given(
    st.sampled_from([-1, -2, -3, -5, -7, -15, 2, 3, 5, 6, 7, 13]),
    st.integers(1, 12),
    st.sampled_from(["any", "rational", "multiples of f*w"]),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=6),
    st.integers(1, 6),
)
def test_vector_reduction_covers_rank_one_spans_and_zero_entries(m, f, shape, coords, scale):
    # coordinates (x, y) over (1, f*w), times a common scale; "rational" and
    # "multiples of f*w" give spans of rank 1 with several nonzero entries
    order = Order(QuadField(m), f)
    if shape == "rational":
        coords = [(x, 0) for x, _ in coords]
    elif shape == "multiples of f*w":
        coords = [(0, y) for _, y in coords]
    assume(any(x or y for x, y in coords))
    vec_elements = tuple(order.from_coords(scale * x, scale * y) for x, y in coords)
    vec = GenVec(order, vec_elements)
    pair, witness = reduce_vector(vec)
    assert all(e.b == 0 for row in witness.entries for e in row)
    assert det_int([[e.a for e in row] for row in witness.entries]) == 1
    zero = order.field.zero
    assert witness.apply_to(vec.elements) == (pair.g1, pair.g2) + (zero,) * (len(coords) - 2)
    assert pair.ideal == vec.ideal


def _det_by_permanent_expansion(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += sign * rows[0][j] * _det_by_permanent_expansion(minor)
        sign = -sign
    return total


@given(st.lists(st.lists(st.integers(-20, 20), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_matches_laplace_expansion(rows):
    assert det_int(rows) == _det_by_permanent_expansion(rows)


def test_generating_pair_validation():
    order = Order(QuadField(-1), 2)
    pair = GenPair(order, order.from_coords(2, 0), order.from_coords(4, 0))
    assert pair.ideal == QIdeal(order, 2, 0, 2) and pair.order == order
    with pytest.raises(UsageError, match="not in the order"):
        GenPair(order, order.from_coords(2, 0), order.field.omega)
    with pytest.raises(ZeroIdealError):
        GenPair(order, order.field.zero, order.field.zero)
    with pytest.raises(UsageError, match="at least two entries"):
        GenVec(order, (order.from_coords(2, 0),))


def test_pair_operations_refuse_other_ideals_and_non_units():
    order = Order(QuadField(-1), 5)
    pair, scaled = _base_pair(order.unit_ideal()), _base_pair(QIdeal(order, 5, 0, 5))
    with pytest.raises(UsageError, match="^pairs generate different ideals, no determinant class$"):
        det_pair(pair, scaled)
    with pytest.raises(UsageError, match="^pairs generate different ideals$"):
        sl2_witness(pair, scaled)
    maximal = QIdeal(order, 5, 0, 1)  # f*O_K, whose multiplier ring is O_K: n0 = 5
    assert multiplier_conductor(maximal) == 1
    for residue in (5, -10):
        with pytest.raises(UsageError, match=f"^residue {residue} is not a unit mod 5$"):
            realize_det_class(maximal, residue)
    assert det_int([]) == 1


_PLANTED_FIELDS = (-1, -2, -3, -5, -6, -7, -10, -11, -14, -15, -19, -23,
                   2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PLANTED_FIELDS), st.integers(1, 12), st.integers(1, 5), st.data())
def test_witness_det_matches_laplace_expansion_over_the_order(m, f, n, data):
    """det() eliminates over the maximal order with exact divisions; the Laplace
    expansion, n! terms, is its oracle up to n = 5, singular matrices included."""
    order = Order(QuadField(m), f)
    entry = st.tuples(st.integers(-5, 5), st.integers(-2, 2)).map(lambda c: order.from_coords(*c))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        rows[-1] = [x * 2 - y for x, y in zip(rows[0], rows[1 % n])]  # a dependent row
    expected = order.field.one * _det_by_permanent_expansion(rows)
    assert UnimodularWitness(tuple(map(tuple, rows))).det() == expected


def test_witness_det_of_a_twelve_by_twelve_elementary_product_is_one_within_a_second():
    rng = random.Random(1212)
    order = Order(QuadField(-7), 6)
    mat = _elementary(order, rng, 12)
    for _ in range(60):
        step = _elementary(order, rng, 12)
        mat = UnimodularWitness(tuple(step.apply_to(row) for row in mat.entries))
    assert any(e.b for row in mat.entries for e in row)
    start = time.perf_counter()
    assert mat.det() == order.field.one
    assert time.perf_counter() - start < 1.0


def _small(data, order):
    """A small nonzero element x + y*f*w of the order."""
    x, y = data.draw(st.tuples(st.integers(-4, 4), st.integers(0, 2)).filter(any))
    return order.from_coords(x, y)


def _three_elementary(data, order):
    """A product of three elementary matrices over the order, upper first."""
    one, zero = order.field.one, order.field.zero
    rows = ((one, zero), (zero, one))
    for k in range(3):
        beta = _small(data, order)
        step = UnimodularWitness(((one, beta), (zero, one)) if k % 2 == 0
                                 else ((one, zero), (beta, one)))
        rows = tuple(step.apply_to(row) for row in rows)
    return UnimodularWitness(rows)


def _planted_pairs(data, m, f):
    """P = (s*c, s*(f*w + t*c)) for c | f, whose multiplier conductor is f/c;
    Q = P*M and R = Q*diag(1, -1)*M' for products M, M' of elementary matrices,
    so that the class of (P, Q) is 1 and that of (Q, R) is -1."""
    order = Order(QuadField(m), f)
    c = data.draw(st.sampled_from(divisors(f)))
    s, t = _small(data, order), _small(data, order)
    pair = GenPair(order, s * c, s * (order.gen + t * c))
    assert multiplier_conductor(pair.ideal) == f // c
    q = GenPair(order, *_three_elementary(data, order).apply_to(pair.elements))
    r = GenPair(order, *_three_elementary(data, order).apply_to((q.g1, -q.g2)))
    return pair, q, r


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PLANTED_FIELDS), st.integers(1, 30), st.data())
def test_pair_route_matches_the_quadelt_oracle_on_planted_pairs(m, f, data):
    pair, q, r = _planted_pairs(data, m, f)
    order = pair.order
    n0 = f // multiplier_conductor(pair.ideal)
    assert (det_pair(pair, q), det_pair(q, r)) == (DetClass(1, n0), DetClass(-1, n0))
    for first, second in ((pair, q), (q, r), (pair, r)):
        mat, cls = pair_oracle.transition(first, second)
        assert det_pair(first, second) == cls
        assert genpairs._transition(first, second)[:2] == (
            [[order.coords(x) for x in row] for row in mat], cls)
        if not cls.is_one:
            with pytest.raises(UsageError, match="not SL2-equivalent"):
                sl2_witness(first, second)
            continue
        witness = sl2_witness(first, second)
        if pair_oracle._det2(mat) == order.field.one and first.elements != second.elements:
            assert witness.entries == tuple(map(tuple, mat))  # B = A when det A is 1
        assert witness.apply_to(first.elements) == second.elements
        assert witness.det() == order.field.one
        assert all(order.contains(e) for row in witness.entries for e in row)
    for base in (pair, q):
        third = _small(data, order) * base.g1 + _small(data, order) * base.g2
        vec = GenVec(order, (base.g1, base.g2, third))
        reduced, sigma = reduce_vector(vec)
        assert sigma.apply_to(vec.elements) == reduced.elements + (order.field.zero,)
        assert sigma.det() == order.field.one and reduced.ideal == base.ideal


def test_the_pair_route_builds_quadelt_objects_only_at_its_boundary(monkeypatch):
    """det_pair reads its pairs through .a and .b and builds no QuadElt, nor do
    the quadideal calls it and sl2_witness make (the multiplier conductor, the
    conjugate and Fitt_1); sl2_witness builds the four entries of its witness;
    reduce_vector the n*n integer entries of sigma and the two elements of the
    reduced pair."""
    order = Order(QuadField(-7), 12)
    g1, g2 = order.from_coords(6, 0), order.from_coords(6, 1)
    pair = GenPair(order, g1, g2)
    other = GenPair(order, g1 * 3 + g2 * 2, g1 + g2)  # times ((3, 1), (2, 1)): class 1
    vec = GenVec(order, (g1, g2, g1 * 5 - g2))
    f_prime = multiplier_conductor(pair.ideal)
    built = []
    real = QuadElt.__init__

    def counted(self, field, a, b):
        built.append((a, b))
        real(self, field, a, b)

    monkeypatch.setattr(QuadElt, "__init__", counted)

    def count(fn, *args):
        built.clear()
        fn(*args)
        return len(built)

    assert count(multiplier_conductor, pair.ideal) == 0
    assert count(lambda: _fitt1(pair.ideal, f_prime)) == 0
    assert count(det_pair, pair, other) == 0
    assert count(sl2_witness, pair, other) == 4
    assert count(reduce_vector, vec) == 3 * 3 + 2


def _second_ideal_doubled(monkeypatch):
    """genpairs builds its second ideal of the call twice too large."""
    calls, real = [], genpairs.ideal_from_generators

    def sabotaged(order, gens):
        calls.append(gens)
        ideal = real(order, gens)
        return ideal.scaled(2) if len(calls) == 2 else ideal

    monkeypatch.setattr(genpairs, "ideal_from_generators", sabotaged)


def test_a_reduced_pair_of_another_ideal_fails_the_check(capsys, monkeypatch):
    # the vector's ideal is the first built, the reduced pair's the second
    _second_ideal_doubled(monkeypatch)
    code = main(["vec", "reduce", "--m", "-3", "--f", "2", "--gens", "6; 2+2*w; 4*w"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("internal check failed: the reduced pair (2; 2+2*w) generates <4, 4*w> in"
                   " Order(m=-3, f=2), not the vector's <2, 2*w> in Order(m=-3, f=2)\n")


def test_a_rescaled_pair_of_another_ideal_fails_the_check(monkeypatch):
    # the standard pair's ideal is the first built, the rescaled pair's the second
    order = Order(QuadField(-1), 5)
    ideal = QIdeal(order, 5, 0, 1)
    _second_ideal_doubled(monkeypatch)
    with pytest.raises(InternalCheckError, match=r"^the rescaled pair \(5; 10\*w\) generates <10"):
        realize_det_class(ideal, 2)
