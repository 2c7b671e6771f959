import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cuspidal import curvering, fieldpoly, oracles
from cuspidal.arith import det_int
from cuspidal.cli import main
from cuspidal.curvering import (
    CurveFitt,
    CurveIdeal,
    CurveOrder,
    _colon_generator,
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_ring_contains,
    curve_unit_group_order,
)
from cuspidal.errors import InternalCheckError, UsageError, ZeroIdealError
from cuspidal.fieldpoly import CoeffField, CurvePoly, gcd_cofactors, parse_curve_poly
from cuspidal.oracles import curve_unit_group_brute
from span_oracle import _Span, conductor_h_solver, poly_divmod
from test_fieldpoly import Fp, scalar

Q = CoeffField(0)
F5 = CoeffField(5)
F101 = CoeffField(101)


def _poly(field, text):
    return parse_curve_poly(field, text)


# ---------------------------------------------------------------------------
# a local linear-algebra oracle, independent of the package internals, on
# Fraction or Fp scalars


def _local_echelon(rows):
    basis = []
    for row in rows:
        vec = list(row)
        for piv, b in basis:
            if vec[piv]:
                c = vec[piv]
                vec = [x - c * y for x, y in zip(vec, b)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        inv = vec[piv]
        vec = [x / inv for x in vec]
        basis = [
            (p2, [y - b[piv] * x for y, x in zip(b, vec)] if b[piv] else b)
            for p2, b in basis
        ]
        basis.append((piv, vec))
        basis.sort(key=lambda t: t[0])
    return basis


def _residual(basis, row):
    vec = list(row)
    for piv, b in basis:
        if vec[piv]:
            c = vec[piv]
            vec = [x - c * y for x, y in zip(vec, b)]
    return vec


def _coeffs(field, poly, count):
    """The first count coefficients of poly as oracle scalars."""
    return [scalar(field, poly.coeff(i)) for i in range(count)]


def _module_vectors(field, n, gens):
    """Echelon basis of the span of gens under x^2 shifts, mod x^(n-1)."""
    rows = []
    for g in gens:
        for shift in range(0, n - 1, 2):
            rows.append(_coeffs(field, g.shift(shift), n - 1))
    return _local_echelon(rows)


def _member(field, n, basis, poly):
    return not any(_residual(basis, _coeffs(field, poly, n - 1)))


def _multiplier_min_odd_exponent(field, n, ideal):
    """Least odd j with x^j * M <= M, found by solving h * M <= M directly."""
    basis = _module_vectors(field, n, [ideal.p, ideal.q])
    lifts = [CurvePoly.from_coeffs(field, row) for _, row in basis]
    rows = []
    for g in lifts:
        residuals = [
            _residual(basis, _coeffs(field, CurvePoly.monomial(field, i) * g, n - 1))
            for i in range(n + 1)
        ]
        for coord in range(n - 1):
            row = [res[coord] for res in residuals]
            if any(row):
                rows.append(row)
    kernel_pivots = set()
    # kernel of the constraint matrix, pivot exponents of its echelon form
    cols = n + 1
    echelon = _local_echelon(rows) if rows else []
    pivots = [p for p, _ in echelon]
    free = [j for j in range(cols) if j not in pivots]
    kernel = []
    for j in free:
        vec = [scalar(field, 0)] * cols
        vec[j] = scalar(field, 1)
        for piv, b in echelon:
            vec[piv] = -b[j]
        kernel.append(vec)
    for piv, _ in _local_echelon(kernel):
        kernel_pivots.add(piv)
    odd = sorted(p for p in kernel_pivots if p % 2)
    assert odd, "the multiplier ring lost x^n"
    return odd[0]


# ---------------------------------------------------------------------------
# worked examples


def test_membership_in_the_ring():
    assert curve_ring_contains(5, _poly(Q, "1 + x^2 + x^5 + x^7"))
    assert not curve_ring_contains(5, _poly(Q, "x^3"))
    assert curve_ring_contains(5, _poly(Q, "x^6"))
    assert curve_ring_contains(3, _poly(Q, "x^3 + x^4"))
    assert not curve_ring_contains(7, _poly(Q, "x^5"))
    assert curve_ring_contains(7, _poly(Q, "x^7"))
    with pytest.raises(UsageError):
        curve_ring_contains(4, _poly(Q, "1"))
    with pytest.raises(UsageError):
        curve_ring_contains(1, _poly(Q, "1"))


def test_half_conductor_module_at_n5():
    ideal = curve_ideal_from_generators(Q, 5, [CurvePoly.one(Q), _poly(Q, "x^3")])
    assert ideal.nu == 2
    assert ideal.content == CurvePoly.one(Q)
    assert ideal.p == CurvePoly.one(Q)
    assert ideal.q == _poly(Q, "x^3")
    assert ideal.contains(_poly(Q, "x^2"))
    assert ideal.contains(_poly(Q, "x^3 + x^4"))
    assert not ideal.contains(_poly(Q, "x"))
    assert not ideal.contains(_poly(Q, "1 + x"))
    fitting = curve_fitt1(ideal)
    assert fitting.exponent == 2
    assert str(fitting) == "x^2*K[x^2] + x^4*K[x]"
    ring = curve_multiplier_ring(ideal)
    assert ring.nu == 2
    assert str(ring) == "K[x^2] + x^2*K[x]"


def test_unit_ideal_and_full_polynomial_ring():
    unit = curve_ideal_from_generators(Q, 5, [CurvePoly.one(Q), CurvePoly.zero(Q)])
    assert unit.nu == 4 and unit.q.is_zero
    assert curve_fitt1(unit).exponent == 0
    assert unit.contains(_poly(Q, "1 + 3*x^2 + x^5"))
    assert not unit.contains(_poly(Q, "x"))

    kx = curve_ideal_from_generators(Q, 5, [CurvePoly.one(Q), _poly(Q, "x")])
    assert kx.nu == 0
    assert curve_fitt1(kx).exponent == 4
    assert curve_multiplier_ring(kx).nu == 0
    assert kx.contains(_poly(Q, "x"))


def test_invertible_but_not_free_class_at_n3():
    ideal = curve_ideal_from_generators(Q, 3, [_poly(Q, "1 + x"), _poly(Q, "x^2")])
    assert ideal.nu == 2
    assert curve_fitt1(ideal).exponent == 0  # unit Fitting ideal: invertible module
    assert ideal.p == _poly(Q, "1 + x")
    assert ideal.q == _poly(Q, "x^2")


def test_content_is_pulled_out():
    ideal = curve_ideal_from_generators(Q, 5, [_poly(Q, "2 + 2*x"), _poly(Q, "x^3 + x^4")])
    assert ideal.content == _poly(Q, "1 + x")
    assert ideal.p == CurvePoly.one(Q)
    assert ideal.q == _poly(Q, "x^3")
    assert ideal.contains(_poly(Q, "1 + x"))
    assert not ideal.contains(CurvePoly.one(Q))


def test_membership_tests_the_exact_quotient_by_the_content(monkeypatch):
    """contains hands the module test poly / content itself. The module is a K-space, so
    a constant multiple would answer alike; this pins the quotient that the docs state."""
    seen, in_module = [], CurveIdeal._in_module
    monkeypatch.setattr(CurveIdeal, "_in_module",
                        lambda self, quot: seen.append(quot) or in_module(self, quot))
    for field in (Q, F5):
        content = _poly(field, "1/3 + x")
        ideal = curve_ideal_from_generators(field, 9, [content * _poly(field, "1 + x + x^4"),
                                                       content * _poly(field, "x^5")])
        for text in ("2/7 + x^2", "x^5 + x^6", "x"):
            poly, seen[:] = content * _poly(field, text), []
            ideal.contains(poly)
            assert seen[0] * ideal.content == poly


def test_rejects_degenerate_inputs():
    with pytest.raises(ZeroIdealError):
        curve_ideal_from_generators(Q, 5, [CurvePoly.zero(Q)])
    with pytest.raises(UsageError):
        curve_ideal_from_generators(Q, 4, [CurvePoly.one(Q)])
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, CurvePoly.one(Q), _poly(Q, "2 + x"), 2)
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, CurvePoly.one(Q), CurvePoly.one(Q), 3)
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, _poly(Q, "1 + 2*x"), CurvePoly.one(Q), 2)


def test_fitting_module_membership():
    fitting = CurveFitt(Q, 7, 4)
    assert fitting.contains(_poly(Q, "x^4 + x^6"))
    assert fitting.contains(_poly(Q, "x^6 + x^7 + x^9"))
    assert not fitting.contains(_poly(Q, "x^2"))
    assert not fitting.contains(_poly(Q, "x^5"))
    gens = fitting.generators()
    assert all(fitting.contains(g) for g in gens)
    ring = CurveOrder(Q, 7, 4)
    assert ring.contains(_poly(Q, "x^5"))
    assert not ring.contains(_poly(Q, "x^3"))
    assert ring.contains(_poly(Q, "1 + x^2 + x^4"))


# ---------------------------------------------------------------------------
# the seeded battery with independent oracles


def _random_poly(field, rng, deg, density=0.7):
    coeffs = []
    for _ in range(deg + 1):
        if rng.random() < density:
            if field.char:
                coeffs.append(field.coerce(rng.randrange(field.char)))
            else:
                coeffs.append(field.coerce(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))))
        else:
            coeffs.append(field.zero)
    return CurvePoly.from_coeffs(field, coeffs)


def _directed_generator_sets(field, n):
    """One generating set per attainable value of nu, plus a non-free sample."""
    one = CurvePoly.one(field)
    sets = [[one], [one + CurvePoly.monomial(field, 1)]]
    for m in range(1, n, 2):
        sets.append([one, CurvePoly.monomial(field, m)])
    sets.append([one + CurvePoly.monomial(field, 1), CurvePoly.monomial(field, n - 1)])
    return sets


def test_seeded_ideal_battery():
    rng = random.Random(20260815)
    queue = []
    for n in (3, 5, 7):
        for field in (Q, F5):
            queue.extend((n, field, gens) for gens in _directed_generator_sets(field, n))
    reduced = 0
    strata = set()
    while reduced < 240:
        if queue:
            n, field, gens = queue.pop()
        else:
            n = rng.choice([3, 5, 7])
            field = rng.choice([Q, F5])
            k = rng.choice([2, 2, 2, 3])
            gens = [_random_poly(field, rng, rng.randrange(0, n + 3)) for _ in range(k)]
            if all(g.is_zero for g in gens):
                continue
        ideal = curve_ideal_from_generators(field, n, gens)
        for g in gens:
            assert ideal.contains(g)
        # canonicalization is idempotent
        again = curve_ideal_from_generators(
            field, n, [ideal.content * ideal.p, ideal.content * ideal.q]
            if not ideal.q.is_zero
            else [ideal.content * ideal.p]
        )
        assert again == ideal
        # nu from an independent multiplier-ring solver
        assert _multiplier_min_odd_exponent(field, n, ideal) == ideal.nu + 1
        # the colon module's least valuation
        _, min_val = conductor_h_solver(field, n, ideal.p, ideal.q)
        assert min_val == n - 1 - ideal.nu
        # verified closed forms
        fitting = curve_fitt1(ideal)
        assert fitting.exponent == n - 1 - ideal.nu
        ring = curve_multiplier_ring(ideal)
        assert ring.nu == ideal.nu
        # the second reading of the Fitting ideal: (R : multiplier ring)
        if ideal.nu < n - 1:
            rho_q = CurvePoly.monomial(field, ideal.nu + 1)
        else:
            rho_q = CurvePoly.zero(field)
        colon_basis, colon_val = conductor_h_solver(field, n, CurvePoly.one(field), rho_q)
        assert colon_val == fitting.exponent
        for h in colon_basis:
            assert fitting.contains(h)
        # random ring elements keep the module stable
        for _ in range(4):
            r = CurvePoly.zero(field)
            for e in (0, 2, 4, n, n + 2):
                if rng.random() < 0.5:
                    r = r + CurvePoly.from_coeffs(field, [0] * e + [rng.randint(1, 4)])
            member = ideal.content * (ideal.p if rng.random() < 0.5 or ideal.q.is_zero else ideal.q)
            assert ideal.contains(r * member)
        reduced += 1
        strata.add((n, field.char, ideal.nu))
    # every nu stratum appears for each n
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            assert any(s[0] == n and s[2] == nu for s in strata), (n, nu)


@st.composite
def _planted_content_generators(draw):
    """1-4 generators content * (a*p + b*x^m) with a, b random ring elements,
    p(0) = 1 and m odd, so nu spreads over its range; the content is monic of
    degree at most 2."""
    field = draw(st.sampled_from([Q, CoeffField(2), CoeffField(3), F5, F101]))
    n = draw(st.sampled_from(range(3, 22, 2)))
    m = draw(st.sampled_from(range(1, n + 1, 2)))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def ring_element():
        g = _random_poly(field, rng, rng.randrange(n + 3))
        return CurvePoly.from_coeffs(
            field, [g.coeff(i) if i % 2 == 0 or i >= n else 0 for i in range(g.degree + 1)]
        )

    d = rng.randrange(3)
    content = _random_poly(field, rng, d - 1) + CurvePoly.monomial(field, d)
    p = CurvePoly.one(field) + _random_poly(field, rng, rng.randrange(n)).shift(1)
    x_m = CurvePoly.monomial(field, m)
    k = rng.randint(1, 4)
    gens = [content * (ring_element() * p + ring_element() * x_m) for _ in range(k)]
    assume(any(not g.is_zero for g in gens))
    return field, n, content, gens


@settings(max_examples=120, deadline=None)
@given(_planted_content_generators())
def test_canonical_pair_against_the_multiplier_oracle(case):
    field, n, content, gens = case
    ideal = curve_ideal_from_generators(field, n, gens)
    assert poly_divmod(ideal.content, content)[1].is_zero
    assert all(ideal.contains(g) for g in gens)
    assert ideal.nu == _multiplier_min_odd_exponent(field, n, ideal) - 1
    pair = [ideal.content * ideal.p] + ([] if ideal.q.is_zero else [ideal.content * ideal.q])
    assert curve_ideal_from_generators(field, n, pair) == ideal


def test_multi_generator_input_matches_pair():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice([3, 5, 7])
        field = rng.choice([Q, F5])
        base = curve_ideal_from_generators(
            field, n, [_random_poly(field, rng, n), _random_poly(field, rng, n)]
        )
        spread = [
            base.content * base.p,
            base.content * (base.q if not base.q.is_zero else base.p),
            base.content * base.p * CurvePoly.monomial(field, 2),
        ]
        again = curve_ideal_from_generators(field, n, spread)
        assert again == base


def test_unit_counts_formula_vs_exhaustion():
    for char in (2, 3, 5):
        field = CoeffField(char)
        for n in (3, 5, 7):
            for nu in range(0, n, 2):
                formula = curve_unit_group_order(field, n, nu)
                assert formula == curve_unit_group_brute(field, n, nu), (char, n, nu)
    with pytest.raises(UsageError):
        curve_unit_group_order(Q, 5, 2)
    with pytest.raises(UsageError):
        curve_unit_group_order(CoeffField(5), 5, 1)


def test_solver_degree_bound_is_enforced():
    basis, val = conductor_h_solver(Q, 5, CurvePoly.one(Q), _poly(Q, "x^3"))
    assert val == 2


# ---------------------------------------------------------------------------
# the integer elimination kernel against field-element elimination


def _local_closure(field, rows):
    """x^2-closure by re-echelonning the basis with its shifts until it stops growing."""
    basis = _local_echelon(rows)
    while True:
        shifts = [[field.zero] * 2 + b[:-2] for _, b in basis]
        grown = _local_echelon([b for _, b in basis] + shifts)
        if len(grown) == len(basis):
            return grown
        basis = grown


@st.composite
def _field_rows(draw):
    field = draw(st.sampled_from([Q, CoeffField(2), CoeffField(3), F5, F101]))
    width = draw(st.integers(2, 10))
    if field.char:
        entry = st.integers(0, field.char - 1).map(lambda x: Fp(x, field.char))
    else:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    entry = st.one_of(st.just(field.zero), entry)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=8))
    return field, rows


def _int_rows(field, rows):
    """Field rows as the kernel's integer rows: residues mod p, or each row
    times the lcm of its denominators."""
    if field.char:
        return [[int(x) for x in row] for row in rows]
    dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (den // x.denominator) for x in row] for den, row in zip(dens, rows)]


def _close(span, todo):
    """Grow span to the smallest x^2-stable span that also contains todo."""
    while todo:
        row = span.add(todo.pop())
        if row is not None:
            todo.append([0, 0] + row[:-2])
    return span


def _spans(span, vec):
    """Whether vec lies in span."""
    return span.reduce(vec)[0] is None


def _basis(span):
    """The reduced echelon basis of span in field elements, each pivot 1."""
    coerce = span.field.coerce
    return [(i, [coerce(Fraction(x, vec[i])) for x in vec]) for i, vec in span.rref()]


@settings(max_examples=300, deadline=None)
@given(_field_rows())
def test_integer_kernel_matches_field_elimination(case):
    field, rows = case
    echelon = _Span(field)
    for row in _int_rows(field, rows):
        echelon.add(row)
    assert _basis(echelon) == _local_echelon(rows)
    span = _close(_Span(field), _int_rows(field, rows))
    basis = _basis(span)
    assert basis == _local_closure(field, rows)
    for _, b in basis:
        assert not any(_residual(basis, [field.zero] * 2 + b[:-2]))
    for row in rows:
        assert not any(_residual(basis, row))
    # the integer form is canonical, so spans can be compared as int rows:
    # pivot 1 and residues mod p, or primitive with a positive pivot over Z
    for piv, vec in span.rref():
        if field.char:
            assert vec[piv] == 1 and all(0 <= x < field.char for x in vec)
        else:
            assert vec[piv] > 0 and math.gcd(*vec) == 1


# ---------------------------------------------------------------------------
# a planted ideal far beyond the benchmark's largest n


def _planted_generators(field, n, nu, rng):
    """Content c and generators l1*c*p, l2*c*(x^(nu+1) + h*p) with p(0) = 1 and
    h in K[x^2], so the ideal is c*(R*p + R*x^(nu+1)) with invariant nu."""

    def scalar(nonzero=False):
        while True:
            v = rng.randint(-3, 3) if field.char == 0 else rng.randrange(field.char)
            if v or not nonzero:
                return field.coerce(v)

    content = CurvePoly.from_coeffs(field, [scalar(), scalar(), 1])
    base = CurvePoly.from_coeffs(
        field, [1] + [scalar() for _ in range(n - 3)] + [scalar(nonzero=True)]
    )
    h = CurvePoly.from_coeffs(field, [scalar(), 0, scalar()])
    second = CurvePoly.monomial(field, nu + 1) + h * base
    gens = [content * poly * CurvePoly.from_coeffs(field, [scalar(nonzero=True)])
            for poly in (base, second)]
    return content, gens


@pytest.mark.parametrize("field", [Q, F101], ids=["rational", "f101"])
def test_planted_ideal_at_n121(field):
    n, nu = 121, 60
    content, gens = _planted_generators(field, n, nu, random.Random(121))
    ideal = curve_ideal_from_generators(field, n, gens)
    assert ideal.content == content
    assert ideal.nu == nu
    assert ideal.p.coeff(0) == field.one
    assert ideal.q == CurvePoly.monomial(field, nu + 1)
    assert curve_fitt1(ideal).exponent == n - 1 - nu
    assert curve_multiplier_ring(ideal).nu == nu


# ---------------------------------------------------------------------------
# unit exhaustion by rank against the all-pairs count


def _all_pairs_unit_count(q, k):
    """Units of F_q[t]/t^k, counted as the a with some b such that ab = 1."""
    if k == 0:
        return 1
    elements = list(itertools.product(range(q), repeat=k))
    one = (1,) + (0,) * (k - 1)

    def mul(a, b):
        return tuple(sum(a[i] * b[j - i] for i in range(j + 1)) % q for j in range(k))

    return sum(any(mul(a, b) == one for b in elements) for a in elements)


def test_unit_exhaustion_by_rank_matches_all_pairs():
    for q in (2, 3, 5, 7):
        field = CoeffField(q)
        k = 0
        while q**k <= 125:
            for n in (2 * k + 1, 2 * k + 3):
                if n >= 3:
                    rank_count = curve_unit_group_brute(field, n, n - 1 - 2 * k)
                    assert rank_count == _all_pairs_unit_count(q, k), (q, n, k)
            k += 1
    for nu in (1, -2, 6):
        with pytest.raises(UsageError):
            curve_unit_group_brute(F5, 5, nu)


@pytest.mark.parametrize("q, n, nu", [(2, 23, 0), (3, 15, 0), (61, 5, 0)])
def test_unit_exhaustion_at_the_edge_of_the_command_gate(q, n, nu):
    """q^k just under the 4000 up to which `curve units` runs the exhaustion."""
    k = (n - 1 - nu) // 2
    assert q**k <= 4000
    assert curve_unit_group_brute(CoeffField(q), n, nu) == q ** (k - 1) * (q - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_determinant_rank_test_matches_echelon_rank(data):
    """det_int(rows) prime to q exactly when the rows have full rank mod q, on
    random square matrices and on the multiplication matrices of the oracle."""
    q = data.draw(st.sampled_from((2, 3, 5, 7, 101)))
    k = data.draw(st.integers(0, 6))
    entries = st.integers(0, q - 1)
    if data.draw(st.booleans()):
        a = data.draw(st.lists(entries, min_size=k, max_size=k))
        rows = [[0] * j + a[: k - j] for j in range(k)]
    else:
        rows = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                  min_size=k, max_size=k))
    span = _Span(CoeffField(q))
    for row in rows:
        span.add(row)
    assert (det_int(rows) % q != 0) == (len(span.rows) == k)


# ---------------------------------------------------------------------------
# the power-series route against the dense oracles


def _dense_vec(poly, n):
    row = list(poly.nums[: n - 1])
    return row + [0] * (n - 1 - len(row))


def _dense_reduction(field, n, gens):
    """content, p, q, nu and the span W by x^2-closure and reduced echelon form."""
    live = [g for g in gens if not g.is_zero]
    content = CurvePoly.zero(field)
    for g in live:
        content = gcd_cofactors([content, g])[0]
    w = _close(_Span(field), [_dense_vec(poly_divmod(g, content)[0], n) for g in live])
    lead, p_row = w.rref()[0]
    assert lead == 0
    p = CurvePoly.from_ints(field, p_row, p_row[0])
    nu = 2 * (n - 1 - len(w.rows))
    if nu < n - 1:
        q = CurvePoly.monomial(field, nu + 1)
    elif p == CurvePoly.one(field):
        q = CurvePoly.zero(field)
    else:
        q = CurvePoly.monomial(field, n - 1)
    return content, p, q, nu, w


def _module_basis(ideal):
    """Reduced echelon basis of the ideal's content-free module modulo x^(n-1)K[x]:
    x^j*p cut below x^nu at even pivots j, unit rows at odd pivots above nu."""
    field, width, nu = ideal.field, ideal.n - 1, ideal.nu
    rows = []
    for j in [*range(0, width, 2), *range(nu + 1, width, 2)]:
        row = [field.zero] * width
        row[j] = field.one
        row[j + 1:nu:2] = [ideal.p.coeff(k) for k in range(1, nu - j, 2)]  # empty for odd j
        rows.append((j, row))
    return sorted(rows, key=lambda r: r[0])


def _dense_contains(field, n, content, w, poly):
    quot, rem = poly_divmod(poly, content)
    return rem.is_zero and _spans(w, _dense_vec(quot, n))


def _dense_multiplier_nu(n, w):
    """nu + 1 is the least odd j with x^j * W inside W."""
    for j in range(1, n + 1, 2):
        if all(_spans(w, ([0] * j + row)[: n - 1]) for row in w.rows.values()):
            return j - 1
    raise AssertionError("x^n does not multiply W into itself")


def _ring_element(field, rng, n):
    """A random polynomial with its odd coefficients below n cleared: an element of R."""
    g = _random_poly(field, rng, rng.randrange(n + 3))
    return CurvePoly.from_coeffs(
        field, [g.coeff(i) if i % 2 == 0 or i >= n else 0 for i in range(g.degree + 1)])


@st.composite
def _differential_case(draw):
    """1-4 generators over Q or F_p with odd n <= 31: planted pairs
    content * (a*p + b*x^m), random polynomials, or content times the unit
    ideal; the content is monic of degree at most 3."""
    field = draw(st.sampled_from([Q, CoeffField(2), CoeffField(3), F5, F101]))
    n = draw(st.sampled_from(range(3, 32, 2)))
    kind = draw(st.sampled_from(["planted", "random", "unit"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = rng.randrange(4)
    content = _random_poly(field, rng, d - 1) + CurvePoly.monomial(field, d)
    k = rng.randint(1, 4)
    if kind == "planted":
        p = CurvePoly.one(field) + _random_poly(field, rng, rng.randrange(n)).shift(1)
        x_m = CurvePoly.monomial(field, rng.randrange(1, n + 1, 2))
        gens = [content * (_ring_element(field, rng, n) * p + _ring_element(field, rng, n) * x_m)
                for _ in range(k)]
    elif kind == "random":
        gens = [content * _random_poly(field, rng, rng.randrange(n + 3)) for _ in range(k)]
    else:
        gens = [content] + [content * _ring_element(field, rng, n) for _ in range(k - 1)]
    assume(any(not g.is_zero for g in gens))
    return field, n, kind, gens, rng.randrange(2**32)


@settings(max_examples=250, deadline=None)
@given(_differential_case())
def test_series_route_matches_the_dense_oracles(case):
    field, n, kind, gens, seed = case
    rng = random.Random(seed)
    ideal = curve_ideal_from_generators(field, n, gens)
    content, p, q, nu, w = _dense_reduction(field, n, gens)
    assert (ideal.content, ideal.p, ideal.q, ideal.nu) == (content, p, q, nu)
    if kind == "unit":
        assert ideal.q.is_zero and ideal.p == CurvePoly.one(field)
    assert _module_basis(ideal) == _basis(w)
    # members, near-members and random polynomials
    members = [ideal.content * (_ring_element(field, rng, n) * ideal.p
                                + _ring_element(field, rng, n) * ideal.q) for _ in range(3)]
    assert all(ideal.contains(g) for g in members + gens)
    near = [ideal.content * (ideal.p * _random_poly(field, rng, 3) + ideal.q) for _ in range(3)]
    others = [_random_poly(field, rng, rng.randrange(n + 2)) for _ in range(4)]
    # the zero polynomial, content*x and a nonzero polynomial of degree below the content's
    d = ideal.content.degree
    edges = [CurvePoly.zero(field), ideal.content.shift(1)]
    edges += [CurvePoly.monomial(field, d - 1)] if d else []
    for poly in members + near + others + edges + [g + CurvePoly.monomial(field, 1) for g in gens]:
        assert ideal.contains(poly) == _dense_contains(field, n, content, w, poly)
    assert ideal.contains(CurvePoly.zero(field))
    with pytest.raises(AssertionError):
        ideal.contains(CurvePoly.one(F5 if field == Q else Q))
    # the same module from another generating set, and an unrelated one
    again = curve_ideal_from_generators(
        field, n, gens + [ideal.content * ideal.p * CurvePoly.monomial(field, 2)])
    assert ideal == again
    other_gens = [_random_poly(field, rng, rng.randrange(n + 2)) for _ in range(2)]
    if any(not g.is_zero for g in other_gens):
        other = curve_ideal_from_generators(field, n, other_gens)
        o_content, _, _, _, o_w = _dense_reduction(field, n, other_gens)
        assert (ideal == other) == (o_content == content and o_w.rref() == w.rref())
    # the colon module: the oracle's least valuation, and h* in its nullspace
    basis, min_val = conductor_h_solver(field, n, ideal.p, ideal.q)
    assert curve_fitt1(ideal).exponent == min_val
    h = _colon_generator(ideal)
    assert h.valuation() == min_val
    for g in (ideal.p, ideal.q):
        assert curve_ring_contains(n, h * g)
    assert curve_multiplier_ring(ideal).nu == _dense_multiplier_nu(n, w)


def _series_quotient(field, num, den, length):
    """num/den mod t^length on oracle scalars, for den(0) != 0."""
    num, den = ([scalar(field, x) for x in xs] for xs in (num, den))
    out = []
    for k in range(length):
        c = num[k] if k < len(num) else scalar(field, 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c = c - den[j] * out[k - j]
        out.append(c / den[0])
    return out


@pytest.mark.parametrize("field,n,nu", [(Q, 241, 120), (F101, 2001, 1000)],
                         ids=["rational-n241", "f101-n2001"])
def test_planted_ideal_far_beyond_the_dense_route(field, n, nu):
    content, gens = _planted_generators(field, n, nu, random.Random(n))
    ideal = curve_ideal_from_generators(field, n, gens)
    assert ideal.content == content
    assert ideal.nu == nu
    assert all(ideal.contains(g) for g in gens)  # exact division by the content at scale
    # p = 1 + x*(b/a mod t^(nu/2)) for the first generator base = a(t) + x*b(t)
    base = poly_divmod(gens[0], content)[0]
    even = [base.coeff(i) for i in range(0, n - 1, 2)]
    odd = [base.coeff(i) for i in range(1, n - 1, 2)]
    beta = _series_quotient(field, odd, even, nu // 2)
    expected = CurvePoly.from_coeffs(
        field, [field.one] + [c for b in beta for c in (b, field.zero)][:-1])
    assert ideal.p == expected
    assert ideal.q == CurvePoly.monomial(field, nu + 1)
    assert curve_fitt1(ideal).exponent == n - 1 - nu
    assert curve_multiplier_ring(ideal).nu == nu


def test_request_path_never_reaches_the_dense_oracles():
    # the dense echelon and colon nullspace are test oracles: the library has neither
    assert not hasattr(oracles, "_Span") and not hasattr(oracles, "conductor_h_solver")
    for field in (Q, F5):
        ideal = curve_ideal_from_generators(field, 9, [_poly(field, "1 + x + x^4"), _poly(field, "x^5")])
        assert (ideal.nu, curve_fitt1(ideal).exponent, curve_multiplier_ring(ideal).nu) == (4, 4, 4)
        assert ideal.contains(_poly(field, "x^5 + x^6")) and not ideal.contains(_poly(field, "x"))
        pair = [ideal.content * g for g in (ideal.p, ideal.q)]
        again = curve_ideal_from_generators(field, 9, pair)
        assert len(_module_basis(ideal)) == 6 and again == ideal


def test_request_path_never_runs_the_remainder_sequence(monkeypatch):
    """Over Q the content comes from Euclid modulo primes, through the remainder kernel.
    The library has no pseudo-division, the step of the remainder sequence that the
    tests keep as the oracle (span_oracle._pseudo_divmod), and no general division."""
    assert not hasattr(fieldpoly, "_pseudo_divmod") and not hasattr(CurvePoly, "divmod_by")
    rem_mod, moduli = fieldpoly._rem_mod, set()

    def recorded(a, b, p):
        moduli.add(p)
        return rem_mod(a, b, p)

    monkeypatch.setattr(fieldpoly, "_rem_mod", recorded)
    for n, nu in ((9, 4), (121, 60)):
        content, gens = _planted_generators(Q, n, nu, random.Random(n))
        ideal = curve_ideal_from_generators(Q, n, gens)
        assert (ideal.content, ideal.nu) == (content, nu)
        assert curve_fitt1(ideal).exponent == n - 1 - nu and curve_multiplier_ring(ideal).nu == nu
    assert moduli and all(p > 2**29 for p in moduli)


def test_rational_contents_at_scale(capsys):
    """Inputs on which the remainder sequence over Z was slow: the planted ideal at
    n = 961, and a non-monic generator at n = 1001, whose p = 1 + x/(1 + 100000*x^2)
    below x^1000 has the coefficient (-100000)^k at x^(2k+1)."""
    content, gens = _planted_generators(Q, 961, 480, random.Random(961))
    ideal = curve_ideal_from_generators(Q, 961, gens)
    assert (ideal.content, ideal.nu, ideal.q) == (content, 480, CurvePoly.monomial(Q, 481))
    assert main(["curve", "reduce", "--n", "1001", "--gens", "1 + 100000*x^2 + x; x^1000",
                 "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    nums = [1] + [0] * 999
    nums[1::2] = [(-100000) ** k for k in range(500)]
    assert result == {"content": "1", "p": str(CurvePoly.from_ints(Q, nums)), "q": "x^1000",
                      "nu": "1000"}


def test_colon_certificate_of_a_long_p_takes_no_product(capsys):
    """p = 1 + x/(1 + 100000*x^2) below x^2000 has coefficients of up to 4,996 digits;
    forming p(x)p(-x) for the certificate of h* took 13 s of the 13.3 s of this command."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        start = time.monotonic()
        code = main(["curve", "reduce", "--n", "2001", "--gens", "1 + 100000*x^2 + x; x^2000"])
        assert time.monotonic() - start < 5.0
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert capsys.readouterr().err.startswith("inconclusive: a coefficient of p has 4996 digits")


def test_planted_rational_ideal_at_n2001_reduces_in_15_seconds():
    # 39-45 s with the remainder sequence over Z and about 2 s modularly (2-vCPU x86-64);
    # the gate leaves room for a slower host
    content, gens = _planted_generators(Q, 2001, 1000, random.Random(2001))
    start = time.monotonic()
    ideal = curve_ideal_from_generators(Q, 2001, gens)
    assert time.monotonic() - start < 15.0
    assert (ideal.content, ideal.nu) == (content, 1000)


def _shifted(real, by):
    return lambda *args: real(*args) + by


@pytest.mark.parametrize("name,fake", [
    ("_div", lambda real: lambda *args: [x + 1 for x in real(*args)]),  # a wrong beta
    ("_valuation", lambda real: _shifted(real, 1)),  # s + 1
    ("_valuation", lambda real: _shifted(real, -1)),  # s - 1
], ids=["beta", "s-plus-1", "s-minus-1"])
def test_certificates_catch_a_sabotaged_step(monkeypatch, name, fake):
    monkeypatch.setattr(curvering, name, fake(getattr(curvering, name)))
    for field in (Q, F5):
        with pytest.raises(InternalCheckError):
            curve_ideal_from_generators(field, 7, [_poly(field, "2 + x"), _poly(field, "x^3")])


def test_non_canonical_pairs_are_refused():
    one = CurvePoly.one(Q)
    for n, p, nu in ((7, "1 + x^2", 4),  # an even term
                     (7, "1 + x^5", 4),  # an odd term at or above nu
                     (7, "1 + x", 0)):
        with pytest.raises(UsageError):
            CurveIdeal(Q, n, one, _poly(Q, p), nu)
    # q is what p and nu determine: x^(nu+1), and at nu = n-1 zero for the unit ideal
    qs = [CurveIdeal(Q, 5, one, _poly(Q, p), nu).q for p, nu in (("1", 2), ("1", 4), ("1 + x", 4))]
    assert qs == [_poly(Q, "x^3"), CurvePoly.zero(Q), _poly(Q, "x^4")]
    with pytest.raises(UsageError):
        CurveFitt(Q, 7, 3)
    with pytest.raises(UsageError):
        CurveOrder(Q, 7, 8)
