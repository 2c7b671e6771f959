import math

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import units
from cuspidal.arith import divisors, euler_phi, is_squarefree
from cuspidal.classnum import class_number_maximal, picard_order
from cuspidal.cli import main
from cuspidal.errors import InternalCheckError, UsageError
from cuspidal.genpairs import orbit_count_gl2
from cuspidal.quadfield import QuadElt, QuadField
from cuspidal.quadideal import Order
from cuspidal.units import _step_product, fundamental_unit, unit_index
from test_quadfield import sqrt_coords


def _real_value(elt):
    """Embedding with sqrt(m) > 0, exact enough to order small units."""
    p, q = sqrt_coords(elt)
    return float(p) + float(q) * math.sqrt(elt.field.m)


def _smallest_unit_by_scan(field, box=400):
    """Least unit > 1 of the maximal order, found by brute coordinate scan."""
    best = None
    for b in range(1, box + 1):
        for a in range(-2 * box, 2 * box + 1):
            x = QuadElt(field, a, b)
            if abs(x.norm()) != 1:
                continue
            val = _real_value(x)
            if val > 1 + 1e-9 and (best is None or val < _real_value(best) - 1e-9):
                best = x
        if best is not None and b > 2 * abs(best.b):
            break
    return best


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 10, 11, 13])
def test_fundamental_unit_matches_brute_scan(m):
    field = QuadField(m)
    info = fundamental_unit(field)
    brute = _smallest_unit_by_scan(field)
    assert info.fundamental is not None
    assert info.fundamental in (brute, -brute.conjugate(), brute.conjugate(), -brute) or _real_value(
        info.fundamental
    ) == pytest.approx(_real_value(brute))
    assert abs(info.fundamental.norm()) == 1
    assert _real_value(info.fundamental) > 1


def test_frozen_fundamental_units():
    assert str(fundamental_unit(QuadField(2)).fundamental) == "1+w"
    assert str(fundamental_unit(QuadField(5)).fundamental) == "w"
    assert str(fundamental_unit(QuadField(13)).fundamental) == "1+w"
    assert str(fundamental_unit(QuadField(6)).fundamental) == "5+2*w"
    eps10 = fundamental_unit(QuadField(10)).fundamental
    assert eps10 == QuadElt(QuadField(10), 3, 1)
    # the order of conductor 2 keeps omega and k = 3; its unit omega^3 is expanded on demand
    field = QuadField(5)
    info = fundamental_unit(field, 2)
    assert (info.maximal, info.power_in_maximal) == (field.omega, 3)
    assert info.fundamental == QuadElt(field, 1, 2) and "fundamental" not in repr(info)


@pytest.mark.parametrize(
    "m,expected",
    [(2, True), (3, False), (5, True), (6, False), (7, False), (10, True),
     (11, False), (13, True), (-1, False), (-3, False), (-5, False)],
)
def test_norm_minus_one_flags(m, expected):
    assert fundamental_unit(QuadField(m)).has_norm_minus_one == expected


def test_norm_minus_one_in_suborders():
    field = QuadField(5)
    # omega has norm -1; its cube 2+w is the conductor-2 fundamental unit
    assert fundamental_unit(field, 1).has_norm_minus_one
    info2 = fundamental_unit(field, 2)
    assert info2.fundamental.norm() == -1
    assert fundamental_unit(field, 2).has_norm_minus_one
    # squares only: conductor where the least power landing in the order is even
    field2 = QuadField(2)
    eps = fundamental_unit(field2).fundamental  # 1 + sqrt(2), norm -1
    power, k = _least_power_in_order(eps, 4)
    assert fundamental_unit(field2, 4).has_norm_minus_one == (power.norm() == -1 and k % 2 == 1)


def _least_power_in_order(eps, f):
    """(eps^k, k) for the least k >= 1 with eps^k in Z + f*O_K, found by multiplying
    eps in until f divides the omega-coefficient: an oracle for the element order."""
    power, k = eps, 1
    while power.b % f:
        power, k = power * eps, k + 1
    return power, k


def _unit_residues(order, n0, unit):
    """The image in (Z/n0)^x of the units of the order, walked breadth-first from the
    generators -1, the first coordinate of `unit` (the order's fundamental unit, None
    in an imaginary field) and, when f = 1, the torsion generator: an oracle for
    orbit_count_gl2's order of u."""
    gens = {-1 % n0}
    if unit is not None:
        gens.add(unit.a % n0)
    if order.f == 1:
        gens.add(fundamental_unit(order.field).torsion_gen.a % n0)
    subgroup = frontier = {1 % n0}
    while frontier:
        frontier = {x * g % n0 for x in frontier for g in gens} - subgroup
        subgroup = subgroup | frontier
    return subgroup


def test_unit_index_and_orbit_counts_match_the_power_search():
    # every squarefree 2 <= m < 500 with f <= 60, and every divisor f' of f
    for m in filter(is_squarefree, range(2, 500)):
        field = QuadField(m)
        eps = fundamental_unit(field).fundamental
        for f in range(1, 61):
            power, k = _least_power_in_order(eps, f)
            info = fundamental_unit(field, f)
            assert (info.power_in_maximal, info.has_norm_minus_one) == (k, power.norm() == -1)
            assert info.fundamental == power, (m, f)
            order = Order(field, f)
            for f_prime in divisors(f):
                n0 = f // f_prime
                expected = euler_phi(n0) // len(_unit_residues(order, n0, power))
                assert orbit_count_gl2(order, f_prime) == expected, (m, f, f_prime)


def test_imaginary_orbit_counts_match_the_residue_walk():
    # -1 and -3 carry torsion of order 4 and 6 at f = 1, where n0 = 1
    for m in filter(is_squarefree, range(-59, 0)):
        for f in range(1, 61):
            order = Order(QuadField(m), f)
            for f_prime in divisors(f):
                n0 = f // f_prime
                expected = euler_phi(n0) // len(_unit_residues(order, n0, None))
                assert orbit_count_gl2(order, f_prime) == expected, (m, f, f_prime)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 13])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
def test_suborder_unit_is_least_power(m, f):
    field = QuadField(m)
    power, k = _least_power_in_order(fundamental_unit(field).fundamental, f)
    info = fundamental_unit(field, f)
    assert info.fundamental == power
    assert info.power_in_maximal == k
    assert unit_index(field, f) == k


def test_torsion_orders():
    assert fundamental_unit(QuadField(-1)).torsion_order == 4
    assert fundamental_unit(QuadField(-3)).torsion_order == 6
    assert fundamental_unit(QuadField(-1), 2).torsion_order == 2
    assert fundamental_unit(QuadField(-3), 2).torsion_order == 2
    assert fundamental_unit(QuadField(-5)).torsion_order == 2
    assert fundamental_unit(QuadField(7)).torsion_order == 2
    gen = fundamental_unit(QuadField(-3)).torsion_gen
    acc = gen
    for _ in range(5):
        assert acc != QuadField(-3).one
        acc = acc * gen
    assert acc == QuadField(-3).one


def test_imaginary_fields_have_no_fundamental():
    for m in (-1, -2, -3, -5, -7):
        info = fundamental_unit(QuadField(m))
        assert info.fundamental is None
        assert not info.has_norm_minus_one


def test_unit_index_rejects_bad_conductors():
    with pytest.raises(UsageError):
        fundamental_unit(QuadField(5), 0)


# The continued-fraction expansion of omega: an independent route to the
# fundamental unit, kept here as the oracle of the principal rho-cycle walk.
def _le_sqrt(x: int, d: int) -> bool:
    """x <= sqrt(d) for non-square d > 0."""
    return x <= 0 or x * x <= d


def _floor_surd(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d)) / q) for non-square d > 0 and q != 0."""
    s = math.isqrt(d)
    a = (p + s) // q

    def le(aa: int) -> bool:
        # aa <= (p + sqrt(d)) / q ?
        x = aa * q - p
        if q > 0:
            return _le_sqrt(x, d)
        return x >= 0 and x * x >= d

    while le(a + 1):
        a += 1
    while not le(a):
        a -= 1
    return a


def _cf_fundamental(field: QuadField) -> QuadElt:
    """Fundamental unit (> 1) of the maximal order via the expansion of omega."""
    d = field.m
    assert d > 1
    if d % 4 == 1:  # omega = (1 + sqrt(d))/2
        p, q = 1, 2
    else:
        p, q = 0, 1
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    quots: list[int] = []
    while (p, q) not in seen:
        seen[(p, q)] = len(states)
        states.append((p, q))
        a = _floor_surd(p, d, q)
        quots.append(a)
        # alpha' = 1 / (alpha - a) => p' = a*q - p, q' = (d - p'^2) / q
        p2 = a * q - p
        q2 = (d - p2 * p2) // q
        assert q2 * q == d - p2 * p2 and q2 != 0
        p, q = p2, q2
    start = seen[(p, q)]
    pj, qj = states[start]
    # product of the Moebius matrices [[a, 1], [1, 0]] over the cycle
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in quots[start:]:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    # eps = m10 * alpha_j + m11 with alpha_j = (pj + sqrt(d)) / qj
    a_num = m10 * pj + m11 * qj
    b_num = m10
    if d % 4 == 1:
        # sqrt(m) = 2*omega - 1
        coeff_a, coeff_b = a_num - b_num, 2 * b_num
    else:
        coeff_a, coeff_b = a_num, b_num
    if coeff_a % qj or coeff_b % qj:
        raise InternalCheckError("cycle unit is not integral over the omega basis")
    eps = QuadElt(field, coeff_a // qj, coeff_b // qj)
    if abs(eps.norm()) != 1:
        raise InternalCheckError(f"cycle element {eps} is not a unit")
    return eps


def test_principal_cycle_unit_matches_continued_fraction():
    ms = [m for m in range(2, 2000) if is_squarefree(m)] + [1000003, 9999991, 10000019]
    for m in ms:
        field = QuadField(m)
        assert fundamental_unit(field).fundamental == _cf_fundamental(field), m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=70))
def test_step_product_tree_matches_the_left_fold(ts):
    x0, y0, x1, y1 = 1, 0, 0, 1  # the columns of the running product
    for t in ts:
        x0, y0, x1, y1 = x1, y1, t * x1 - x0, t * y1 - y0
    assert _step_product(ts) == (x0, x1, y0, y1)


def test_the_principal_cycle_is_walked_once_for_every_conductor(capsys, monkeypatch):
    # the six conductors dividing 12 take their units from the one walk of f = 1
    walks = []
    real = units._principal_cycle_unit
    monkeypatch.setattr(units, "_principal_cycle_unit",
                        lambda field: walks.append(field.m) or real(field))
    for memo in (fundamental_unit, picard_order, class_number_maximal):
        memo.cache_clear()
    assert main(["cusps", "--m", "1000003", "--f", "12", "--no-check"]) == 0
    assert "cusp count" in capsys.readouterr().out
    assert walks == [1000003]
