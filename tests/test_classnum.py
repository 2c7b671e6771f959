import math

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import classnum, quadideal
from cuspidal.arith import is_squarefree
from cuspidal.errors import InconclusiveError
from cuspidal.classnum import class_number_maximal, picard_order
from cuspidal.oracles import brute_force_pic
from cuspidal.quadfield import QuadField
from cuspidal.quadideal import Order, canonical_form, enumerate_ideal_classes, multiplier_conductor
from form_oracle import reduced_form_count, reduced_forms


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
    # the oracle's double loop and the library's count in the square-root sieve
    for disc, count in ((-4, 1), (-20, 2), (-23, 3), (-56, 4), (-47, 5)):
        assert reduced_form_count(disc) == classnum._reduced_definite_count(disc) == count


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
    only up to the form's negative: half as many walk steps as reduced forms in
    the oracle's full listing."""
    field = QuadField(m)
    steps = [0]

    def counted(form, disc, s, real=quadideal._rho_walk):
        for pair in real(form, disc, s):
            steps[0] += 1
            yield pair

    class_number_maximal.cache_clear()
    quadideal._cycle_table.cache_clear()
    monkeypatch.setattr(quadideal, "_rho_walk", counted)
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


@pytest.mark.parametrize("m,forms,h", [(-23, 3, 3), (145, 7, 4)])
def test_form_listing_budget_counts_the_forms(monkeypatch, m, forms, h):
    """An imaginary class number's budget counts the reduced forms it counts;
    a real one's counts the candidates of class enumeration, seven for
    d_K = 145 (one at a = 1 and two each at a = 2, 3, 4, Markov's window
    isqrt(25*145/221)), with every rho-cycle walk no longer than that."""
    field = QuadField(m)
    search = "reduced forms of discriminant -23" if m < 0 else "class enumeration exceeded"
    class_number_maximal.cache_clear()
    monkeypatch.setenv("CUSPIDAL_BOUND", str(forms - 1))
    with pytest.raises(InconclusiveError, match=f"^{search}.*; raise it with CUSPIDAL_BOUND$"):
        class_number_maximal(field)
    monkeypatch.setenv("CUSPIDAL_BOUND", str(forms))
    assert class_number_maximal(field).h == h


def test_class_numbers_match_the_form_oracles():
    """h_K on every squarefree 2 <= |m| < 3000 equals the oracles': the classes
    of the full reduced-form listing for d_K > 0, the double-loop count of
    reduced definite forms for d_K < 0. The library runs first on empty cycle
    tables, and the oracle after them on emptied ones."""
    fields = [QuadField(m) for m in range(-2999, 3000) if m not in (0, 1) and is_squarefree(m)]
    class_number_maximal.cache_clear()
    quadideal._cycle_table.cache_clear()
    library = [class_number_maximal(field).h for field in fields]
    quadideal._cycle_table.cache_clear()
    oracle = [reduced_form_count(field.disc_max) if field.is_imaginary
              else len({canonical_form(q) for q in reduced_forms(field.disc_max)})
              for field in fields]
    quadideal._cycle_table.cache_clear()
    class_number_maximal.cache_clear()
    assert len(fields) == 3647
    assert library == oracle


@pytest.mark.parametrize("m", [2, 5, 7, 79, 221, 1009, 10000019])
def test_real_class_number_sieves_only_markovs_window(monkeypatch, m):
    """A real field's class number sieves the moduli 4a for a up to
    isqrt(25*d_K/221), or 1 for d_K = 5 and 8, and none past them."""
    field = QuadField(m)
    top = 4 * max(math.isqrt(25 * field.disc_max // 221), 1)
    sieved = []

    def recorded(c, moduli, real=quadideal.sqrt_mods):
        for n, roots in real(c, moduli):
            sieved.append(n)
            yield n, roots

    class_number_maximal.cache_clear()
    monkeypatch.setattr(quadideal, "sqrt_mods", recorded)
    class_number_maximal(field)
    class_number_maximal.cache_clear()
    assert sieved == list(range(4, top + 1, 4))


def test_imaginary_class_number_takes_no_canonical_form(monkeypatch):
    """A reduced definite form is its own class: h_K of an imaginary field
    counts forms and canonicalises none."""

    def refuse(form):
        raise AssertionError(f"canonical_form({form}) called")

    monkeypatch.setattr(quadideal, "canonical_form", refuse)
    class_number_maximal.cache_clear()
    for m in (-1, -3, -5, -23, -47, -2999, -1000003):
        disc = QuadField(m).disc_max
        assert class_number_maximal(QuadField(m)).h == reduced_form_count(disc), m
    with pytest.raises(AssertionError, match="canonical_form"):
        class_number_maximal(QuadField(7))
    class_number_maximal.cache_clear()
