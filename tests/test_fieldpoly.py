import math
import random
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import fieldpoly
from cuspidal.arith import primitive_part
from cuspidal.errors import UsageError
from cuspidal.fieldpoly import (
    MAX_EXPONENT,
    CoeffField,
    CurvePoly,
    gcd_cofactors,
    parse_curve_poly,
)
import span_oracle
from span_oracle import poly_divmod

PRIMES = [2, 3, 5, 7]


@given(st.sampled_from(PRIMES), st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40))
def test_prime_field_axioms(p, a, b, c):
    """F_p scalars are ints in [0, p): coerce is the ring map from the
    fractions whose denominator is prime to p, and refuses the others."""
    field = CoeffField(p)
    x, y = field.coerce(a), field.coerce(b)
    assert type(x) is int and 0 <= x < p and field.coerce(x) == x
    assert field.coerce(a + b) == (x + y) % p
    assert field.coerce(a - b) == (x - y) % p
    assert field.coerce(a * b) == x * y % p
    q = Fraction(a, c)
    if q.denominator % p:
        assert field.coerce(q) * q.denominator % p == field.coerce(q.numerator)
    else:
        with pytest.raises(UsageError):
            field.coerce(q)
    with pytest.raises(UsageError):
        field.coerce(Fraction(1, p))


def test_coeff_field_construction_and_names():
    assert CoeffField(0).name == "rational"
    assert CoeffField(5).name == "f5"
    with pytest.raises(UsageError):
        CoeffField(6)
    assert CoeffField.from_name("rational").char == 0
    assert CoeffField.from_name("q").char == 0
    assert CoeffField.from_name("f7").char == 7
    assert CoeffField.from_name("7").char == 7
    for name in ("gf9", "f0", "0", "f00"):
        with pytest.raises(UsageError):
            CoeffField.from_name(name)


def test_coercion_and_scalar_parsing():
    q = CoeffField(0)
    f5 = CoeffField(5)
    assert q.coerce(3) == Fraction(3)
    assert q.parse_scalar("3/4") == Fraction(3, 4)
    assert f5.coerce(7) == 2 and f5.coerce(-1) == 4
    assert f5.coerce(Fraction(1, 2)) == 3  # 2^{-1} = 3 mod 5
    assert f5.parse_scalar("3/4") == 2  # 3 * 4^{-1} = 3*4 = 12 = 2
    assert (f5.zero, f5.one) == (0, 1) and type(f5.parse_scalar("-2")) is int
    with pytest.raises(UsageError):
        f5.coerce(Fraction(1, 5))
    with pytest.raises(UsageError, match=r"^cannot coerce '3' into F_5$"):
        f5.coerce("3")
    with pytest.raises(UsageError, match=r"^cannot coerce 0\.5 into the rationals$"):
        q.coerce(0.5)
    assert f5.all_elements() == [0, 1, 2, 3, 4]
    with pytest.raises(UsageError):
        q.all_elements()


def _polys(field, max_deg=5, lo=-5, hi=5):
    scalar = st.integers(lo, hi).map(field.coerce)
    return st.lists(scalar, min_size=0, max_size=max_deg + 1).map(
        lambda cs: CurvePoly.from_coeffs(field, cs)
    )


@given(_polys(CoeffField(0)), _polys(CoeffField(0)), _polys(CoeffField(0)))
def test_poly_ring_axioms_rational(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + CurvePoly.zero(a.field) == a
    assert a * CurvePoly.one(a.field) == a


@given(_polys(CoeffField(3)), _polys(CoeffField(3)))
def test_poly_division_identity(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(_polys(CoeffField(5), max_deg=4), _polys(CoeffField(5), max_deg=4), _polys(CoeffField(5), max_deg=3))
def test_gcd_scales_with_common_factor(a, b, c):
    g = gcd_cofactors([a, b])[0]
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    _, ra = poly_divmod(a, g)
    _, rb = poly_divmod(b, g)
    assert ra.is_zero and rb.is_zero
    if not c.is_zero:
        gc = gcd_cofactors([a * c, b * c])[0]
        expected = (g * c).monic()
        assert gc == expected


def test_degree_valuation_shift():
    q = CoeffField(0)
    p = parse_curve_poly(q, "x^2 + 2*x^5")
    assert p.degree == 5
    assert p.valuation() == 2
    assert p.shift(3) == parse_curve_poly(q, "x^5 + 2*x^8")
    assert CurvePoly.zero(q).valuation() is None
    assert CurvePoly.monomial(q, 4) == parse_curve_poly(q, "x^4")


def test_parse_term_grammar():
    q = CoeffField(0)
    assert parse_curve_poly(q, "3 + x^2 - 2*x^5") == CurvePoly.from_coeffs(
        q, [3, 0, 1, 0, 0, -2]
    )
    assert parse_curve_poly(q, "-x") == CurvePoly.from_coeffs(q, [0, -1])
    assert parse_curve_poly(q, "1/2*x^3") == CurvePoly.from_coeffs(
        q, [0, 0, 0, Fraction(1, 2)]
    )
    assert parse_curve_poly(q, "[0, 1, 0, 3]") == CurvePoly.from_coeffs(q, [0, 1, 0, 3])
    assert parse_curve_poly(q, "0") == CurvePoly.zero(q)
    f5 = CoeffField(5)
    assert parse_curve_poly(f5, "4*x + x^2") == CurvePoly.from_coeffs(f5, [0, 4, 1])
    with pytest.raises(UsageError):
        parse_curve_poly(q, "x^")
    with pytest.raises(UsageError):
        parse_curve_poly(q, "2y")
    for blank in ("", " \t\n"):
        with pytest.raises(UsageError, match="^empty polynomial$"):
            parse_curve_poly(q, blank)


@given(_polys(CoeffField(0)))
def test_parse_round_trips_rendering(p):
    assert parse_curve_poly(p.field, str(p)) == p


@given(_polys(CoeffField(7)))
def test_parse_round_trips_rendering_mod_p(p):
    assert parse_curve_poly(p.field, str(p)) == p


def test_exponent_limit():
    q = CoeffField(0)
    assert parse_curve_poly(q, f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
    assert parse_curve_poly(q, "x^007") == CurvePoly.monomial(q, 7)
    for text in (f"x^{MAX_EXPONENT + 1}", "1 + x^100000000", "x^" + "9" * 5000):
        with pytest.raises(UsageError, match=str(MAX_EXPONENT)):
            parse_curve_poly(q, text)


# ---------------------------------------------------------------------------
# schoolbook arithmetic on Fraction and Fp coefficient lists, the oracle for
# the integer kernels of CurvePoly


class Fp(int):
    """A residue in [0, p) with field arithmetic, for the schoolbook oracles.
    It is an int, so it compares equal to the library's F_p scalars and
    CoeffField.coerce accepts it."""

    def __new__(cls, value, p):
        self = super().__new__(cls, value % p)
        self.p = p
        return self

    def __add__(self, other):
        return Fp(int(self) + int(other), self.p)

    def __sub__(self, other):
        return Fp(int(self) - int(other), self.p)

    def __rsub__(self, other):
        return Fp(int(other) - int(self), self.p)

    def __mul__(self, other):
        return Fp(int(self) * int(other), self.p)

    def __truediv__(self, other):
        return Fp(int(self) * pow(int(other), -1, self.p), self.p)

    def __rtruediv__(self, other):
        return Fp(int(other) * pow(int(self), -1, self.p), self.p)

    def __neg__(self):
        return Fp(-int(self), self.p)

    __radd__, __rmul__ = __add__, __mul__


def scalar(field, value):
    """value as an oracle scalar: an Fp over F_p, unchanged over Q."""
    return Fp(value, field.char) if field.char else value


def _trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _oracle_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _oracle_sub(field, a, b):
    size = max(len(a), len(b))
    a, b = (cs + [field.zero] * (size - len(cs)) for cs in (a, b))
    return _trim([x - y for x, y in zip(a, b)])


def _oracle_divmod(field, a, b):
    quot = [field.zero] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    deg_b, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= deg_b and any(rem):
        _trim(rem)
        if len(rem) - 1 < deg_b:
            break
        k = len(rem) - 1 - deg_b
        factor = rem[-1] / lead
        quot[k] = quot[k] + factor
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - factor * y
    return _trim(quot), _trim(rem)


def _oracle_gcd_monic(field, a, b):
    while b:
        _, r = _oracle_divmod(field, a, b)
        a, b = b, r
    return [x / a[-1] for x in a] if a else []


def _coeffs(poly):
    return [poly.coeff(i) for i in range(poly.degree + 1)]


def _same(poly, expected):
    """poly has the oracle's coefficients and the normalized storage."""
    assert _coeffs(poly) == expected
    other = CurvePoly.from_coeffs(poly.field, expected)
    assert poly == other and hash(poly) == hash(other)


@st.composite
def _poly_triples(draw):
    field = draw(st.sampled_from([CoeffField(0), CoeffField(2), CoeffField(3), CoeffField(5),
                                  CoeffField(101)]))
    if field.char:
        entry = st.integers(0, field.char - 1).map(lambda x: Fp(x, field.char))
    else:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

    def poly(max_deg):
        return _trim(draw(st.lists(entry, max_size=max_deg + 1)))

    return field, poly(7), poly(6), poly(3)


@settings(max_examples=400, deadline=None)
@given(_poly_triples())
def test_integer_kernels_match_schoolbook_oracle(case):
    field, a, b, c = case
    pa, pb, pc = (CurvePoly.from_coeffs(field, cs) for cs in (a, b, c))
    _same(pa, a)
    _same(pa * pb, _oracle_mul(field, a, b))
    _same(pa - pb, _oracle_sub(field, a, b))
    if b:
        quot, rem = poly_divmod(pa, pb)
        oq, orem = _oracle_divmod(field, a, b)
        _same(quot, oq)
        _same(rem, orem)
        _same(pb.monic(), [x / b[-1] for x in b])
    _same(gcd_cofactors([pa, pb])[0], _oracle_gcd_monic(field, a, b))
    # a planted common factor c
    ac, bc = _oracle_mul(field, a, c), _oracle_mul(field, b, c)
    _same(gcd_cofactors([pa * pc, pb * pc])[0], _oracle_gcd_monic(field, ac, bc))


def _prs_gcd_monic(a, b):
    """The primitive remainder sequence over Z that the content gcd ran before the
    modular gcd, kept as its oracle: Euclid on residues over F_p; over Q the
    numerators' remainders cut to their primitive parts, whose last term is the
    gcd up to a constant by Gauss's lemma."""
    p = a.field.char
    x, y = list(a.nums), list(b.nums)
    if not p:
        x, y = primitive_part(x), primitive_part(y)
    while y:
        rem = span_oracle._pseudo_divmod(x, y, p)[1]
        x, y = y, rem if p else primitive_part(rem)
    return CurvePoly.from_ints(a.field, x, x[-1] if x else 1)


def test_rational_gcd_runs_a_primitive_remainder_sequence(monkeypatch):
    """Over Q every divisor of the oracle's remainder sequence has content 1,
    which keeps its integers small; the comparisons of answers cannot see this."""
    divisors = []
    pseudo_divmod = span_oracle._pseudo_divmod

    def spy(a, b, p):
        if not p:  # the modular gcd divides only mod primes
            divisors.append(b)
        return pseudo_divmod(a, b, p)

    monkeypatch.setattr(span_oracle, "_pseudo_divmod", spy)
    q, rng = CoeffField(0), random.Random(3)

    def poly(deg):
        return [Fraction(6 * rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)] + [1]

    for _ in range(20):
        a, b, c = poly(6), poly(5), poly(2)
        ac, bc = _oracle_mul(q, a, c), _oracle_mul(q, b, c)
        pa, pb = CurvePoly.from_coeffs(q, ac), CurvePoly.from_coeffs(q, bc)
        got = _prs_gcd_monic(pa, pb)
        _same(got, _oracle_gcd_monic(q, ac, bc))
        assert got == gcd_cofactors([pa, pb])[0]
    assert len(divisors) > 20 and all(math.gcd(*b) == 1 for b in divisors)


# ---------------------------------------------------------------------------
# the gcd's two lean kernels against _pseudo_divmod


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0, 2, 3, 101, fieldpoly._gcd_prime(0)]), st.data())
def test_lean_kernels_match_pseudo_division(p, data):
    """a = b*c + r on residues mod p or on ints (p = 0), r often zero. The remainder
    kernel is _pseudo_divmod's remainder mod p, for any nonzero lead of b; the exact
    division returns a/b when b divides a, else None, and mod p takes b monic."""
    coeff = st.integers(0, p - 1) if p else st.integers(-10**6, 10**6)
    lead = st.integers(1, p - 1) if p else st.integers(-5, 5).filter(bool)
    b = data.draw(st.lists(coeff, max_size=5)) + [data.draw(lead)]
    c = data.draw(st.lists(coeff, max_size=8))
    r = data.draw(st.lists(coeff, max_size=len(b) + 2) | st.just([]))

    def planted(b):
        bc = fieldpoly._mul(b, c, len(b) + len(c), p)
        return _trim([(x + y) % p if p else x + y for x, y in zip_longest(bc, r, fillvalue=0)])

    if p:
        a = planted(b)
        assert fieldpoly._rem_mod(a, b, p) == span_oracle._pseudo_divmod(a, b, p)[1]
        b = [x * pow(b[-1], -1, p) % p for x in b]
    a = planted(b)
    quot, rem, s = span_oracle._pseudo_divmod(a, b, p)
    if p:
        assert fieldpoly._rem_mod(a, b, p) == rem
    if a:  # s*a = quot*b: a/b is quot/s, which may be integral for s = -1 or lead(b) | quot
        exact = not rem and all(x % s == 0 for x in quot)
        assert fieldpoly._exact_quotient(a, b, p) == ([x // s for x in quot] if exact else None)


def test_exact_division_stops_past_mignottes_bound():
    """x - 10^6 does not divide x^40: its quotient coefficients 10^(6j) pass Mignotte's
    bound 2^40*|x^40|_2 for factors of x^40 at the sixth of 40 steps, which end there."""
    divisions = []

    class CountedLead(int):  # int arithmetic tries an int subclass's reflected method first
        def __rdivmod__(self, other):
            divisions.append(other)
            return divmod(other, int(self))

    a, b = [0] * 40 + [1], [-10**6, CountedLead(1)]
    assert span_oracle._pseudo_divmod(a, b, 0)[1] == [10**240]
    assert fieldpoly._exact_quotient(a, b, 0) is None
    assert divisions == [10**(6 * j) for j in range(6)]


def test_content_over_a_large_prime_field():
    """Mod p a quotient coefficient is a residue below p, however small a's are:
    1 - x + x^2 = (1 + x^3) / (1 + x) has the coefficient p - 1."""
    f = CoeffField(1_000_000_007)
    a, b = parse_curve_poly(f, "1 + x^3"), parse_curve_poly(f, "1 + x")
    content, cofactors = gcd_cofactors([a, b])
    assert content == b and cofactors == [parse_curve_poly(f, "1 - x + x^2"), CurvePoly.one(f)]


# ---------------------------------------------------------------------------
# the content routine against the remainder sequence, with small primes

_SMALL_PRIMES = [q for q in range(2, 20_000) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def _content_case(field, rng):
    """1-4 generators c*r_i, some of them zero, with a planted common factor c whose
    integer coefficients reach 10^40 over Q; the small cofactors r_i often share a
    factor modulo a small prime, and a lead often has a small prime factor."""

    def poly(deg, top):
        lead = rng.choice([-1, 1]) * rng.randint(1, top)
        nums = [rng.randint(-top, top) for _ in range(deg)] + [lead]
        return CurvePoly.from_ints(field, nums, 1 if field.char else rng.randint(1, 6))

    c = poly(rng.randrange(4), 10 ** rng.randint(0, 40))
    return [c * poly(rng.randrange(5), 6) if rng.random() < 0.8 else CurvePoly.zero(field)
            for _ in range(rng.randint(1, 4))]


def _check_content(gens):
    content, cofactors = fieldpoly.gcd_cofactors(gens)
    expected = CurvePoly.zero(gens[0].field)
    for g in gens:
        expected = _prs_gcd_monic(expected, g)
    assert content == expected and len(cofactors) == len(gens)
    assert content.is_zero or content.nums[-1] == content.den
    assert all(content * q == g for q, g in zip(cofactors, gens))
    return content


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([CoeffField(0), CoeffField(2), CoeffField(3), CoeffField(101)]),
       st.integers(0, 2**32))
def test_content_matches_the_prs_oracle(field, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldpoly, "_gcd_prime", _SMALL_PRIMES.__getitem__)
        _check_content(_content_case(field, random.Random(seed)))
    _check_content(_content_case(field, random.Random(seed)))  # primes near 2^30


def test_small_primes_reach_every_branch_of_the_modular_gcd(monkeypatch):
    """With small primes, some divide a lead and are skipped, some give an image of
    too high a degree, and some contents take the CRT of several images."""
    drawn = []
    monkeypatch.setattr(fieldpoly, "_gcd_prime", lambda i: drawn.append(i) or _SMALL_PRIMES[i])
    q, rng, seen = CoeffField(0), random.Random(17), set()
    for _ in range(300):
        live = [g for g in _content_case(q, rng) if g.nums]
        drawn.clear()
        if not live:
            continue
        degree, lucky = _check_content(live).degree, 0
        rows = [primitive_part(list(g.nums)) for g in live]
        for p in map(_SMALL_PRIMES.__getitem__, drawn):
            if any(a[-1] % p == 0 for a in rows):
                seen.add("lead divisible")
                continue
            image = [Fp(x, p) for x in rows[0]]
            for a in rows[1:]:
                image = _oracle_gcd_monic(CoeffField(p), image, [Fp(x, p) for x in a])
            if len(image) - 1 > degree:
                seen.add("degree too high")
            else:
                lucky += 1
        if lucky > 1:
            seen.add("crt")
    assert seen == {"lead divisible", "degree too high", "crt"}


def test_the_prime_source_draws_on_no_search_budget(monkeypatch):
    """arith.is_prime would stop at a low CUSPIDAL_BOUND on the 30-bit candidates."""
    monkeypatch.setenv("CUSPIDAL_BOUND", "5")
    fieldpoly._gcd_prime.cache_clear()
    q = CoeffField(0)
    a, b = (parse_curve_poly(q, t) for t in ("2 + 6*x + 4*x^2", "3*x^3 + 3*x^4"))
    assert gcd_cofactors([a, b])[0] == parse_curve_poly(q, "1 + x")
    primes = [fieldpoly._gcd_prime(i) for i in range(3)]
    assert 2**30 > primes[0] > primes[1] > primes[2] > 2**29
    assert all(p % d for p in primes for d in range(2, math.isqrt(p) + 1))


def test_printed_form_is_pinned():
    # (field, input, str, str of monic, str of square, str of x^2*p - p),
    # taken from the Fraction and F_p-element implementation this storage replaced
    cases = [
        ("rational", "1/2*x^3", "1/2*x^3", "x^3", "1/4*x^6", "-1/2*x^3 + 1/2*x^5"),
        ("rational", "-3/2", "-3/2", "1", "9/4", "3/2 - 3/2*x^2"),
        ("rational", "-x + 2/3*x^2 - 7/6*x^5", "-x + 2/3*x^2 - 7/6*x^5",
         "6/7*x - 4/7*x^2 + x^5",
         "x^2 - 4/3*x^3 + 4/9*x^4 + 7/3*x^6 - 14/9*x^7 + 49/36*x^10",
         "x - 2/3*x^2 - x^3 + 2/3*x^4 + 7/6*x^5 - 7/6*x^7"),
        ("rational", "[0, -1/4, 0, 3]", "-1/4*x + 3*x^3", "-1/12*x + x^3",
         "1/16*x^2 - 3/2*x^4 + 9*x^6", "1/4*x - 13/4*x^3 + 3*x^5"),
        ("rational", "-1 - x", "-1 - x", "1 + x", "1 + 2*x + x^2", "1 + x - x^2 - x^3"),
        ("f5", "1/2*x - 1", "4 + 3*x", "3 + x", "1 + 4*x + 4*x^2", "1 + 2*x + 4*x^2 + 3*x^3"),
        ("f7", "-x^3 + 10", "3 + 6*x^3", "4 + x^3", "2 + x^3 + x^6", "4 + 3*x^2 + x^3 + 6*x^5"),
        ("f101", "-1/3 + 200*x^4", "67 + 99*x^4", "17 + x^4", "45 + 35*x^4 + 4*x^8",
         "34 + 67*x^2 + 2*x^4 + 99*x^6"),
    ]
    for name, text, shown, monic, square, shifted in cases:
        p = parse_curve_poly(CoeffField.from_name(name), text)
        assert (str(p), str(p.monic()), str(p * p), str(p.shift(2) - p)) == (
            shown, monic, square, shifted
        )


# ---------------------------------------------------------------------------
# scalar parsing against a Fraction-only reference


def _reference_scalar(field, text):
    """Every token through Fraction, as before plain integers were read with int(), but a
    decimal exponent past MAX_EXPONENT refused before Fraction computes 10^e, and a token
    with a character past ASCII, such as a Unicode digit Fraction would read, refused."""
    if not text.strip().isascii():
        raise UsageError(f"bad scalar {text!r}")
    _, e, exp = text.strip().upper().rpartition("E")
    try:
        large = bool(e) and abs(int(exp)) > MAX_EXPONENT
    except ValueError:  # an exponent that int() rejects is left for Fraction to reject
        large = False
    if large:
        raise UsageError(f"exponent in {text!r}")
    try:
        return field.coerce(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad scalar {text!r}") from None


def _outcome(parse, field, text):
    try:
        return parse(field, text)
    except UsageError:
        return "usage error"


_SCALAR_TEXT = st.one_of(
    st.integers().map(str),
    st.builds(lambda s, a, b, pad: f"{pad}{s}{a}/{b}{pad}", st.sampled_from(["", "+", "-"]),
              st.integers(0, 10**30), st.integers(0, 60), st.sampled_from(["", " ", "\t"])),
    st.builds(lambda s, d, pad: f"{pad}{s}{d}{pad}", st.sampled_from(["", "+", "-", "--", "+-"]),
              st.text("0123456789", min_size=0, max_size=40), st.sampled_from(["", " ", "\n"])),
    st.text("0123456789+-/._e ", max_size=12),
    st.sampled_from(["9" * 5000, "-" + "7" * 4301, "1" * 4300, "٣", "1_000", "0x1f", "1e3"]),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([CoeffField(0), CoeffField(2), CoeffField(3), CoeffField(101)]),
       _SCALAR_TEXT)
def test_scalar_parsing_matches_the_fraction_reference(field, text):
    got = _outcome(CoeffField.parse_scalar, field, text)
    assert got == _outcome(_reference_scalar, field, text)
    assert type(got) is type(_outcome(_reference_scalar, field, text))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([CoeffField(0), CoeffField(3), CoeffField(101)]),
       st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 9), st.integers(0, 30)),
                min_size=1, max_size=6))
def test_polynomial_parsing_matches_the_fraction_reference(field, terms):
    text = " + ".join(f"{a}/{b}*x^{e}" if b > 1 else f"{a}*x^{e}" for a, b, e in terms)
    bracket = "[" + ", ".join(str(a) for a, _, _ in terms) + "]"
    with pytest.MonkeyPatch.context() as mp:
        got = [_outcome(parse_curve_poly, field, t) for t in (text, bracket)]
        mp.setattr(CoeffField, "parse_scalar", _reference_scalar)
        reference = [_outcome(parse_curve_poly, field, t) for t in (text, bracket)]
    assert got == reference


def test_a_large_decimal_exponent_is_refused_at_once():
    # Fraction("1e99999999") would compute 10^99999999, for minutes; the limit is
    # that of a polynomial's exponent, and 10^MAX_EXPONENT itself is read
    q, f101 = CoeffField(0), CoeffField(101)
    assert q.parse_scalar("1e10000") == 10**MAX_EXPONENT
    assert f101.parse_scalar(" -2E-1_0000 ") == -2 * pow(10**MAX_EXPONENT, -1, 101) % 101
    assert q.parse_scalar("3.5e0000000000002") == 350
    for text in ("1e99999999", "8e5375123", "-1E-10001", "2.5e+1_0001", "1e" + "9" * 5000):
        start = time.monotonic()
        for field in (q, f101):
            with pytest.raises(UsageError, match="^the exponent of '.{1,24}' exceeds the"
                                                 " limit 10000$"):
                field.parse_scalar(text)
        assert time.monotonic() - start < 1.0
    with pytest.raises(UsageError, match="^the exponent of '1e99999999' exceeds"):
        parse_curve_poly(q, "[1,1e99999999]")


def test_long_scalars_are_cut_short_in_the_message():
    with pytest.raises(UsageError) as info:
        CoeffField(0).parse_scalar("9" * 5000)
    assert len(str(info.value)) < 300 and "'" + "9" * 24 + "'" in str(info.value)
