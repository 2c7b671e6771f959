import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import quadideal
from cuspidal.arith import is_squarefree
from cuspidal.errors import InconclusiveError
from cuspidal.classnum import class_number_maximal, picard_order
from cuspidal.oracles import brute_force_pic, reduced_form_count
from cuspidal.quadfield import QuadField
from cuspidal.quadideal import Order, enumerate_ideal_classes, multiplier_conductor, reduced_forms


@pytest.mark.parametrize(
    "m,h",
    [(-1, 1), (-2, 1), (-3, 1), (-5, 2), (-6, 2), (-7, 1), (-10, 2), (-11, 1),
     (-13, 2), (-14, 4), (-15, 2), (-19, 1), (-23, 3), (-30, 4),
     (2, 1), (3, 1), (5, 1), (6, 1), (7, 1), (10, 2), (13, 1), (15, 2)],
)
def test_class_numbers_from_tables(m, h):
    assert class_number_maximal(QuadField(m)).h == h


def test_reduced_forms_agree_with_ideal_enumeration():
    # two fully independent routes to the class number of an imaginary order
    for m in (-1, -2, -3, -5, -6, -7, -10, -13, -15):
        field = QuadField(m)
        for f in (1, 2, 3):
            order = Order(field, f)
            forms = reduced_form_count(order.disc)
            invertible = [
                rep
                for rep in enumerate_ideal_classes(order)
                if multiplier_conductor(rep) == f
            ]
            assert forms == len(invertible), (m, f)


def test_reduced_form_count_examples():
    assert reduced_form_count(-4) == 1
    assert reduced_form_count(-20) == 2
    assert reduced_form_count(-23) == 3
    assert reduced_form_count(-56) == 4
    assert reduced_form_count(-47) == 5


@pytest.mark.parametrize("m", [-1, -2, -3, -5, -7, 2, 3, 5, 13])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
def test_picard_formula_matches_enumeration(m, f):
    order = Order(QuadField(m), f)
    assert picard_order(order).h == brute_force_pic(order).h


@settings(max_examples=25, deadline=None)
@given(
    st.integers(-60, 40).filter(lambda m: m not in (0, 1) and is_squarefree(m)),
    st.integers(1, 5),
)
def test_picard_formula_matches_enumeration_differential(m, f):
    order = Order(QuadField(m), f)
    assert picard_order(order).h == brute_force_pic(order).h


def test_picard_frozen_values():
    assert picard_order(Order(QuadField(-1), 2)).h == 1
    assert picard_order(Order(QuadField(-1), 5)).h == 2
    assert picard_order(Order(QuadField(-3), 2)).h == 1
    assert picard_order(Order(QuadField(-3), 4)).h == 2
    assert picard_order(Order(QuadField(2), 3)).h == 1
    assert picard_order(Order(QuadField(5), 6)).h == 1


def test_picard_of_maximal_order_is_class_number():
    for m in (-5, -23, 10, 15):
        field = QuadField(m)
        assert picard_order(Order(field, 1)).h == class_number_maximal(field).h


def test_methods_are_reported():
    assert picard_order(Order(QuadField(-5), 2)).method == "conductor-formula"
    assert brute_force_pic(Order(QuadField(-5), 2)).method == "brute-force"
    assert class_number_maximal(QuadField(-5)).method == "reduced-forms"
    assert class_number_maximal(QuadField(10)).method == "reduced-forms"


def test_class_number_is_computed_once_per_field(monkeypatch):
    class_number_maximal.cache_clear()
    picard_order.cache_clear()
    field = QuadField(79)
    for f in (1, 2, 3, 4, 6, 12):
        picard_order(Order(field, f))
    assert class_number_maximal.cache_info().misses == 1
    monkeypatch.setenv("CUSPIDAL_BOUND", str(10**6))
    picard_order(Order(field, 5))
    assert class_number_maximal.cache_info().misses == 1


@pytest.mark.parametrize("m", [2, 10, 79, 94, 223, 1000003])
def test_class_number_takes_one_rho_step_per_two_reduced_forms(monkeypatch, m):
    """Each pair of rho-cycles, of a form and of its negative, is walked once and
    only up to the form's negative: half as many rho-steps as reduced forms."""
    field = QuadField(m)
    steps = [0]

    def counted(form, disc, s, real=quadideal._rho):
        steps[0] += 1
        return real(form, disc, s)

    class_number_maximal.cache_clear()
    quadideal._cycle_table.cache_clear()
    monkeypatch.setattr(quadideal, "_rho", counted)
    class_number_maximal(field)
    assert steps[0] == len(reduced_forms(field.disc_max)) // 2
    class_number_maximal.cache_clear()
    quadideal._cycle_table.cache_clear()


def test_a_memo_hit_answers_under_any_budget(monkeypatch):
    """The budget caps work and a memo hit does none; a library call's hint names
    CUSPIDAL_BOUND alone."""
    order = Order(QuadField(-15), 4)
    class_number_maximal.cache_clear()
    picard_order.cache_clear()
    assert (class_number_maximal(order.field).h, picard_order(order).h) == (2, 4)
    monkeypatch.setenv("CUSPIDAL_BOUND", "1")
    assert (class_number_maximal(order.field).h, picard_order(order).h) == (2, 4)
    class_number_maximal.cache_clear()
    picard_order.cache_clear()
    for call in (lambda: class_number_maximal(order.field), lambda: picard_order(order)):
        with pytest.raises(InconclusiveError) as exc:
            call()
        assert str(exc.value) == ("the A-window 2 of discriminant -15 exceeds bound 1;"
                                  " raise it with CUSPIDAL_BOUND")


@pytest.mark.parametrize("m", [2, 3, 5, 10, 79, 94, 151, 223, 1009])
def test_real_class_number_matches_enumeration(m):
    order = Order(QuadField(m), 1)
    invertible = [r for r in enumerate_ideal_classes(order) if multiplier_conductor(r) == 1]
    assert class_number_maximal(QuadField(m)).h == len(invertible)


@pytest.mark.parametrize("m,forms,h", [(-23, 3, 3), (7, 8, 1)])
def test_form_listing_budget_counts_the_forms(monkeypatch, m, forms, h):
    field = QuadField(m)
    class_number_maximal.cache_clear()
    monkeypatch.setenv("CUSPIDAL_BOUND", str(forms - 1))
    with pytest.raises(InconclusiveError, match="; raise it with CUSPIDAL_BOUND$"):
        class_number_maximal(field)
    monkeypatch.setenv("CUSPIDAL_BOUND", str(forms))
    assert class_number_maximal(field).h == h
