import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal.curvering import (
    CurveFitt,
    CurveIdeal,
    CurveOrder,
    _closure,
    _echelon,
    conductor_h_solver,
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_ring_contains,
    curve_unit_group_order,
)
from cuspidal.errors import UsageError, ZeroIdealError
from cuspidal.fieldpoly import CoeffField, CurvePoly, parse_curve_poly
from cuspidal.oracles import curve_unit_group_brute

Q = CoeffField(0)
F5 = CoeffField(5)
F101 = CoeffField(101)


def _poly(field, text):
    return parse_curve_poly(field, text)


# ---------------------------------------------------------------------------
# a local linear-algebra oracle, independent of the package internals


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


def _module_vectors(field, n, gens):
    """Echelon basis of the span of gens under x^2 shifts, mod x^(n-1)."""
    rows = []
    for g in gens:
        for shift in range(0, n - 1, 2):
            shifted = g.shift(shift)
            rows.append([shifted.coeff(i) for i in range(n - 1)])
    return _local_echelon(rows)


def _member(field, n, basis, poly):
    return not any(_residual(basis, [poly.coeff(i) for i in range(n - 1)]))


def _multiplier_min_odd_exponent(field, n, ideal):
    """Least odd j with x^j * M <= M, found by solving h * M <= M directly."""
    basis = _module_vectors(field, n, [ideal.p, ideal.q])
    lifts = [CurvePoly.from_coeffs(field, row) for _, row in basis]
    rows = []
    for g in lifts:
        residuals = [
            _residual(basis, [(CurvePoly.monomial(field, i) * g).coeff(k) for k in range(n - 1)])
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
        vec = [field.zero] * cols
        vec[j] = field.one
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


def test_rejects_degenerate_inputs():
    with pytest.raises(ZeroIdealError):
        curve_ideal_from_generators(Q, 5, [CurvePoly.zero(Q)])
    with pytest.raises(UsageError):
        curve_ideal_from_generators(Q, 4, [CurvePoly.one(Q)])
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, CurvePoly.one(Q), _poly(Q, "2 + x"), _poly(Q, "x^3"), 2)
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, CurvePoly.one(Q), CurvePoly.one(Q), _poly(Q, "x^3"), 3)
    with pytest.raises(UsageError):
        CurveIdeal(Q, 5, CurvePoly.one(Q), CurvePoly.one(Q), _poly(Q, "x^2"), 2)


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
                    r = r + CurvePoly.monomial(field, e).scale(field.coerce(rng.randint(1, 4)))
            member = ideal.content * (ideal.p if rng.random() < 0.5 or ideal.q.is_zero else ideal.q)
            assert ideal.contains(r * member)
        reduced += 1
        strata.add((n, field.char, ideal.nu))
    # every nu stratum appears for each n
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            assert any(s[0] == n and s[2] == nu for s in strata), (n, nu)


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
        assert again.same_module(base)
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
    with pytest.raises(UsageError):
        conductor_h_solver(Q, 5, CurvePoly.one(Q), _poly(Q, "x^3"), degree=2)
    basis, val = conductor_h_solver(Q, 5, CurvePoly.one(Q), _poly(Q, "x^3"), degree=8)
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
        entry = st.integers(0, field.char - 1).map(field.coerce)
    else:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    entry = st.one_of(st.just(field.zero), entry)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=8))
    return field, rows


@settings(max_examples=300, deadline=None)
@given(_field_rows())
def test_integer_kernel_matches_field_elimination(case):
    field, rows = case
    assert _echelon(field, rows) == _local_echelon(rows)
    span = _closure(field, rows)
    basis = span.basis()
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
    gens = [content * poly.scale(scalar(nonzero=True)) for poly in (base, second)]
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
