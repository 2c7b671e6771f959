import pytest

from cuspidal.classnum import class_number_maximal, picard_order
from cuspidal.cusps import cusp_count
from cuspidal.errors import InconclusiveError
from cuspidal.oracles import cusp_count_direct
from cuspidal.quadfield import QuadField
from cuspidal.quadideal import Order
from cuspidal.units import fundamental_unit

# at conductor 1 the count collapses to the class number
MAXIMAL_CASES = [-1, -2, -3, -5, -7, -11, -15, 2, 3, 5, 6, 7]


@pytest.mark.parametrize("m", MAXIMAL_CASES)
def test_maximal_order_count_is_the_class_number(m):
    field = QuadField(m)
    order = Order(field, 1)
    breakdown = cusp_count(order)
    assert breakdown.total == picard_order(order).h
    assert len(breakdown.terms) == 1
    assert breakdown.terms[0].f_prime == 1
    assert not breakdown.terms[0].halved


@pytest.mark.parametrize("m", [-1, -2, -3, -5, 2, 3, 5])
@pytest.mark.parametrize("f", range(1, 9))
def test_formula_matches_direct_enumeration(m, f):
    order = Order(QuadField(m), f)
    assert cusp_count(order).total == cusp_count_direct(order)


def test_halving_pattern_for_real_conductor_six():
    # m = 5 has a norm -1 unit, so quotients f/f' > 2 are halved
    order = Order(QuadField(5), 6)
    breakdown = cusp_count(order)
    by_fp = {t.f_prime: t for t in breakdown.terms}
    assert sorted(by_fp) == [1, 2, 3, 6]
    assert by_fp[1].halved and by_fp[1].n0 == 6
    assert by_fp[2].halved and by_fp[2].n0 == 3
    assert not by_fp[3].halved and by_fp[3].n0 == 2
    assert not by_fp[6].halved and by_fp[6].n0 == 1
    assert by_fp[1].contribution == 1  # phi(6)/2 * h(O_1) = 1
    assert by_fp[2].contribution == 1
    assert breakdown.total == 4
    assert cusp_count_direct(order) == 4


def test_imaginary_conductor_four_breakdown():
    order = Order(QuadField(-3), 4)
    breakdown = cusp_count(order)
    by_fp = {t.f_prime: t.contribution for t in breakdown.terms}
    assert by_fp == {1: 2, 2: 1, 4: 2}
    assert breakdown.total == 5
    assert all(not t.halved for t in breakdown.terms)
    assert cusp_count_direct(order) == 5


def test_no_halving_at_quotient_two():
    # the norm -1 unit exists, but -1 is trivial mod n0 = 2
    field = QuadField(5)
    assert fundamental_unit(field, 1).has_norm_minus_one
    order = Order(field, 2)
    breakdown = cusp_count(order)
    term = next(t for t in breakdown.terms if t.f_prime == 1)
    assert term.n0 == 2 and not term.halved
    assert breakdown.total == cusp_count_direct(order) == 2


def test_contributions_are_positive_integers():
    for m in (-1, -3, 10, 13):
        for f in (1, 2, 3, 4, 6):
            breakdown = cusp_count(Order(QuadField(m), f))
            for term in breakdown.terms:
                assert term.contribution >= 1
                assert term.phi >= 1
                assert term.pic.h >= 1
            assert breakdown.total == sum(t.contribution for t in breakdown.terms)


def test_bound_exhaustion_is_reported(monkeypatch):
    # h_K of Q(sqrt(23)) searches Markov's window isqrt(25*92/221) = 3, past the budget
    order = Order(QuadField(23), 5)
    class_number_maximal.cache_clear()
    picard_order.cache_clear()
    monkeypatch.setenv("CUSPIDAL_BOUND", "2")
    with pytest.raises(InconclusiveError, match="^class enumeration: the A-window 3 of"
                       " discriminant 92 exceeds bound 2; raise it with CUSPIDAL_BOUND$"):
        cusp_count(order)
