import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal.errors import UsageError
from cuspidal.quadfield import _TERM_RE, QuadElt, QuadField, parse_element

def _squarefree_values():
    out = []
    for m in range(-30, 31):
        if m in (0, 1):
            continue
        if all(m % (d * d) for d in range(2, 6)):
            out.append(m)
    return out


fields = st.sampled_from([QuadField(m) for m in _squarefree_values()])
coords = st.integers(-50, 50)


def test_arithmetic_refuses_two_fields():
    x, y = QuadField(-1).omega, QuadField(2).one
    message = re.escape("field mismatch: QuadField(-1) vs QuadField(2)")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(UsageError, match=f"^{message}$"):
            op(x, y)


@given(fields, coords, coords, coords, coords, coords, coords)
def test_ring_axioms(field, a1, b1, a2, b2, a3, b3):
    x = QuadElt(field, a1, b1)
    y = QuadElt(field, a2, b2)
    z = QuadElt(field, a3, b3)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + field.zero == x
    assert x * field.one == x


@given(fields, coords, coords, coords, coords)
def test_conjugation_is_a_ring_map(field, a1, b1, a2, b2):
    x = QuadElt(field, a1, b1)
    y = QuadElt(field, a2, b2)
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(fields, coords, coords, coords, coords)
def test_norm_and_trace(field, a1, b1, a2, b2):
    x = QuadElt(field, a1, b1)
    y = QuadElt(field, a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()
    prod = x * x.conjugate()
    assert prod == QuadElt(field, x.norm(), 0)
    assert x + x.conjugate() == QuadElt(field, x.trace(), 0)


@given(fields, coords, coords, coords, coords)
def test_floor_division_is_the_exact_quotient(field, a1, b1, a2, b2):
    x, y = QuadElt(field, a1, b1), QuadElt(field, a2, b2)
    assert bool(x) is not x.is_zero()
    if y:
        assert (x * y) // y == x and x * y.norm() // y == x * y.conjugate()
    assert (x * 3) // 3 == x
    if y and y.norm() not in (1, -1):  # y divides 1 exactly when it is a unit
        with pytest.raises(UsageError, match="does not divide"):
            field.one // y


@given(fields)
def test_omega_satisfies_its_quadratic(field):
    r, s = field.omega_sq
    w = field.omega
    assert w * w == QuadElt(field, r, s)
    assert (r, s) == (((field.m - 1) // 4, 1) if field.m % 4 == 1 else (field.m, 0))


def test_disc_of_maximal_order():
    assert QuadField(-1).disc_max == -4
    assert QuadField(-3).disc_max == -3
    assert QuadField(5).disc_max == 5
    assert QuadField(2).disc_max == 8
    assert QuadField(-5).disc_max == -20


def test_field_constructor_rejects_bad_m():
    for bad in (0, 1, 4, 12, -9, 18):
        with pytest.raises(UsageError):
            QuadField(bad)


def sqrt_coords(elt):
    """(p, q) with elt = p + q*sqrt(m), read from m mod 4: omega is (1+sqrt(m))/2
    when m = 1 mod 4, and sqrt(m) otherwise."""
    if elt.field.m % 4 == 1:
        return Fraction(2 * elt.a + elt.b, 2), Fraction(elt.b, 2)
    return Fraction(elt.a), Fraction(elt.b)


def _squarefree(m):
    return m not in (0, 1) and all(m % (d * d) for d in range(2, math.isqrt(abs(m)) + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**5, 10**5).filter(_squarefree), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_omega_readings_match_the_m_mod_4_oracle(m, a, b):
    """Every reading of omega's shape, against x = a + b*omega written as p + q*sqrt(m)
    by sqrt_coords: trace 2p, norm p^2 - m*q^2, conjugate p - q*sqrt(m), and
    p + q*s parsed back to x."""
    field, x = QuadField(m), QuadElt(QuadField(m), a, b)
    p, q = sqrt_coords(x)
    assert field.omega_trace == (1 if m % 4 == 1 else 0)
    assert field.disc_max == (m if m % 4 == 1 else 4 * m)
    assert (x.trace(), x.norm()) == (2 * p, p * p - m * q * q)
    assert sqrt_coords(x.conjugate()) == (p, -q)
    assert parse_element(field, f"{p}{'-' if q < 0 else '+'}{abs(q)}*s") == x


def test_sqrt_coords_and_imaginary_flag():
    k = QuadField(-7)
    assert k.is_imaginary
    x = QuadElt(k, 3, 2)  # 3 + 2*(1+sqrt(-7))/2 = 4 + sqrt(-7)
    assert sqrt_coords(x) == (Fraction(4), Fraction(1))
    assert not QuadField(7).is_imaginary


@given(fields, coords, coords)
def test_parse_round_trips_str(field, a, b):
    x = QuadElt(field, a, b)
    assert parse_element(field, str(x)) == x


def test_parse_accepts_sqrt_basis():
    k = QuadField(5)  # omega = (1 + sqrt 5)/2
    assert parse_element(k, "1/2+1/2*s") == k.omega
    assert parse_element(k, "2+s") == QuadElt(k, 1, 2)
    k2 = QuadField(2)
    assert parse_element(k2, "s") == k2.omega
    with pytest.raises(UsageError):
        parse_element(k, "1/3+s")  # not integral
    with pytest.raises(UsageError):
        parse_element(k, "")
    with pytest.raises(UsageError):
        parse_element(k, "2**w")


def test_rational_elements_and_powers():
    k = QuadField(3)
    x = QuadElt(k, 2, 1)
    assert x**0 == k.one
    assert x**3 == x * x * x
    assert (x - x) == k.zero
    assert (-x) + x == k.zero
    assert 1 + x == QuadElt(k, 3, 1)
    assert 2 - x == QuadElt(k, 0, -1)


def _fraction_parse(field, text):
    """Reference parser: every coefficient read as a Fraction."""
    compact = text.replace(" ", "")
    if not compact:
        raise UsageError("empty element")
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(pieces) != compact:
        raise UsageError(f"cannot parse element {text[:24]!r}")
    alpha = beta = Fraction(0)
    for piece in pieces:
        mt = _TERM_RE.match(piece)
        if not mt:
            raise UsageError(f"cannot parse term {piece[:24]!r} in {text[:24]!r}")
        try:
            coeff = Fraction(mt.group("coeff") or 1) * (-1 if mt.group("sign") == "-" else 1)
        except ZeroDivisionError as exc:  # a zero denominator is a usage error
            raise UsageError(f"bad coefficient in {text[:24]!r}: {exc}") from None
        sym = mt.group("sym1") or mt.group("sym2")
        if sym is None:
            alpha += coeff
        elif sym == "s" and field.m % 4 == 1:
            alpha, beta = alpha - coeff, beta + 2 * coeff  # sqrt(m) = 2*omega - 1
        else:
            beta += coeff
    if alpha.denominator != 1 or beta.denominator != 1:
        raise UsageError(f"{text[:24]!r} is not in the maximal order of {field}")
    return QuadElt(field, int(alpha), int(beta))


_numbers = st.one_of(
    st.integers(0, 400).map(str),
    st.tuples(st.integers(0, 40), st.integers(0, 6)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
_terms = st.tuples(
    st.sampled_from(["", "+", "-", " - ", "+ "]),
    st.one_of(
        _numbers,
        st.sampled_from(["w", "s"]),
        st.tuples(_numbers, st.sampled_from(["*w", "*s", " * w", "w", "**s"])).map("".join),
    ),
).map("".join)
_texts = st.one_of(
    st.lists(_terms, min_size=1, max_size=4).map("".join),
    st.lists(st.sampled_from(["1", "2", "/", "+", "-", " ", "*", "w", "s", "x"]),
             max_size=8).map("".join),
)


def _outcome(parse, field, text):
    try:
        return parse(field, text)
    except (UsageError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([QuadField(5), QuadField(-3), QuadField(2), QuadField(-1)]), _texts)
def test_parse_matches_the_fraction_parser(field, text):
    assert _outcome(parse_element, field, text) == _outcome(_fraction_parse, field, text)
