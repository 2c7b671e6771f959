"""General column Hermite reduction over the integers, kept as a test oracle.

The library reduces only 2-row systems, with quadideal._echelon2. The m x n
reduction below, its one-solution solve and its kernel are the reference it
is checked against. Its colon ideal by one kernel is the reference for the
closed forms the library uses in place of colon lattices: the index a/e of
(gen1 : gen2) in realize_det_class and (O_f : O_f') = Z*(f/f') + Z*f*omega
in fitt1. The membership route of multiplier_conductor is checked here too.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from cuspidal.arith import divisors, xgcd
from cuspidal.errors import ZeroIdealError
from cuspidal.genpairs import det_int
from cuspidal.quadfield import QuadElt, QuadField
from cuspidal.quadideal import (
    Order,
    QIdeal,
    _echelon2,
    _lattice_std_basis,
    fitt1,
    ideal_from_generators,
    multiplier_conductor,
)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(lhs: list[list[int]], rhs: list[list[int]]) -> list[list[int]]:
    inner = len(rhs)
    assert all(len(row) == inner for row in lhs)
    cols = len(rhs[0])
    return [
        [sum(lrow[k] * rhs[k][j] for k in range(inner)) for j in range(cols)]
        for lrow in lhs
    ]


def mat_mul_vec(rows, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def hnf_columns(rows):
    """Column echelon form of an m x n integer matrix.

    Returns (H, U) with A*U = H, U unimodular (det +-1). Pivots sit in the
    leftmost columns at strictly increasing rows, are positive, and every
    entry above a pivot is zero. Columns without a pivot are zero columns.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # column j of A stacked on column j of U, so a column operation is one list op
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    col = 0
    for row in range(m):
        if col >= n:
            break
        piv = next((j for j in range(col, n) if cols[j][row] != 0), None)
        if piv is None:
            continue
        cols[col], cols[piv] = cols[piv], cols[col]
        for j in range(col + 1, n):
            if cols[j][row] == 0:
                continue
            c1, c2 = cols[col], cols[j]
            g, s, t = xgcd(c1[row], c2[row])
            p, q = c1[row] // g, c2[row] // g
            cols[col] = [s * x + t * y for x, y in zip(c1, c2)]
            cols[j] = [p * y - q * x for x, y in zip(c1, c2)]
            assert cols[j][row] == 0
        if cols[col][row] < 0:
            cols[col] = [-x for x in cols[col]]
        col += 1
    return [[c[i] for c in cols] for i in range(m)], [[c[i] for c in cols] for i in range(m, m + n)]


def solve_int(rows, rhs):
    """One integer solution x of A x = rhs, or None if none exists."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    H, U = hnf_columns(rows)
    pivot_of_row = {}
    for c in range(n):
        r = next((i for i in range(m) if H[i][c] != 0), None)
        if r is not None:
            pivot_of_row[r] = c
    y = [0] * n
    for r in range(m):
        acc = sum(H[r][c] * y[c] for c in range(n))
        rem = rhs[r] - acc
        if r in pivot_of_row:
            c = pivot_of_row[r]
            if rem % H[r][c] != 0:
                return None
            y[c] = rem // H[r][c]
        elif rem != 0:
            return None
    return mat_mul_vec(U, y)


def kernel_int(rows, n_cols=None):
    """Basis of the integer kernel {x : A x = 0}, as a list of vectors."""
    m = len(rows)
    n = n_cols if n_cols is not None else (len(rows[0]) if m else 0)
    if m == 0:
        return [row[:] for row in identity(n)]
    H, U = hnf_columns(rows)
    rank = sum(1 for c in range(n) if any(H[i][c] != 0 for i in range(m)))
    return [[U[i][c] for i in range(n)] for c in range(rank, n)]


# ---------------------------------------------------------------------------
# the oracle itself


@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_det_multiplicative(a, b):
    assert det_int(mat_mul(a, b)) == det_int(a) * det_int(b)


def test_identity_and_mat_mul_shapes():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    assert mat_mul_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


def _rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_hnf_transform_is_unimodular():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = _rand_matrix(rng, rows, cols)
        h, u = hnf_columns(mat)
        assert det_int(u) in (1, -1)
        assert mat_mul(mat, u) == h
        # column echelon: pivot rows strictly increase, trailing columns zero
        pivots = []
        for col in range(cols):
            column = [h[r][col] for r in range(rows)]
            nz = [r for r, v in enumerate(column) if v]
            if nz:
                pivots.append(nz[0])
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_solve_recovers_planted_solution():
    rng = random.Random(23)
    solved = 0
    for _ in range(300):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = _rand_matrix(rng, rows, cols)
        x = [rng.randint(-7, 7) for _ in range(cols)]
        b = mat_mul_vec(mat, x)
        y = solve_int(mat, b)
        assert y is not None
        assert mat_mul_vec(mat, y) == b
        solved += 1
    assert solved == 300


def test_solve_detects_unsolvable():
    # 2x = 1 has no integer solution; parallel rows force failure
    assert solve_int([[2]], [1]) is None
    assert solve_int([[2, 4], [1, 2]], [2, 0]) is None


def test_kernel_vectors_annihilate_and_span():
    rng = random.Random(37)
    for _ in range(200):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        mat = _rand_matrix(rng, rows, cols, -5, 5)
        kern = kernel_int(mat)
        for vec in kern:
            assert mat_mul_vec(mat, vec) == [0] * rows
        # rank-nullity over Q
        rank = _rank_over_q(mat)
        assert len(kern) == cols - rank


def _rank_over_q(mat):
    work = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col] / work[rank][col]
                work[r] = [a - c * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the library's 2-row routes against the oracle


@st.composite
def _two_row_systems(draw):
    """A 2 x k integer matrix of rank 0, 1 or 2, k <= 6, as a product of a
    2 x rank and a rank x k matrix, with a right-hand side that is solvable
    about half of the time."""
    k = draw(st.integers(0, 6))
    rank = draw(st.integers(0, min(2, k)))
    small = st.integers(-6, 6)
    left = draw(st.lists(st.lists(small, min_size=rank, max_size=rank), min_size=2, max_size=2))
    right = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=rank, max_size=rank))
    rows = [[sum(left[i][r] * right[r][j] for r in range(rank)) for j in range(k)]
            for i in range(2)]
    if draw(st.booleans()):
        rhs = mat_mul_vec(rows, draw(st.lists(small, min_size=k, max_size=k)))
    else:
        rhs = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=2))
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(_two_row_systems())
def test_echelon2_solves_and_spans_the_kernel_as_the_oracle(system):
    (top, bottom), rhs = system
    reduced = _echelon2(top, bottom)
    assert reduced.solve(*rhs) == solve_int([top, bottom], rhs)
    assert reduced.kernel == kernel_int([top, bottom], len(top))
    assert len(reduced.pivots) == _rank_over_q([top, bottom])


def _colon_by_one_kernel(order, target, elements):
    """{z in O_f : z*g in target for every g}: one kernel over all elements,
    with unknowns (u, v) for z = u + v*f*omega and two per element for the
    coefficients of z*g over the basis of target."""
    t1, t2 = target.gen1, target.gen2
    n_unknowns = 2 + 2 * len(elements)
    rows = []
    for idx, g in enumerate(elements):
        zg_u, zg_v = g, order.gen * g
        for part in (0, 1):  # omega-coordinate index
            row = [0] * n_unknowns
            row[0] = (zg_u.a, zg_u.b)[part]
            row[1] = (zg_v.a, zg_v.b)[part]
            row[2 + 2 * idx] = -((t1.a, t1.b)[part])
            row[3 + 2 * idx] = -((t2.a, t2.b)[part])
            rows.append(row)
    basis = kernel_int(rows, n_unknowns)
    return _lattice_std_basis(order, [(vec[0], vec[1]) for vec in basis])


_FIELDS = st.sampled_from([-1, -2, -3, -5, -7, -11, 2, 3, 5, 13]).map(QuadField)
_COORD = st.integers(-9, 9)


@st.composite
def _ideals(draw):
    order = Order(draw(_FIELDS), draw(st.integers(1, 8)))
    coords = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3))
    try:
        return ideal_from_generators(order, [order.from_coords(u, v) for u, v in coords])
    except ZeroIdealError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_ideals())
def test_colon_of_the_standard_pair_has_index_a_over_e(ideal):
    # realize_det_class reads [O_f : (gen1 : gen2)] as a/e
    order = ideal.order
    gen1_ideal = ideal_from_generators(order, [ideal.gen1])
    colon = _colon_by_one_kernel(order, gen1_ideal, [ideal.gen2])
    assert colon.norm() == ideal.a // ideal.e


@settings(max_examples=300, deadline=None)
@given(_ideals())
def test_conductor_of_the_multiplier_ring_is_the_closed_form(ideal):
    # fitt1 certifies (O_f : O_f') = Z*(f/f') + Z*f*omega by membership
    order = ideal.order
    f_prime = multiplier_conductor(ideal)
    one, mult_gen = QuadElt(order.field, 1, 0), QuadElt(order.field, 0, f_prime)
    conductor = _colon_by_one_kernel(order, order.unit_ideal(), [one, mult_gen])
    assert conductor == QIdeal(order, order.f // f_prime, 0, 1) == fitt1(ideal)


@settings(max_examples=300, deadline=None)
@given(_ideals())
def test_multiplier_conductor_matches_the_membership_route(ideal):
    # the least d | f with d*omega*I <= I, by QuadElt products and membership
    expected = next(
        d for d in divisors(ideal.order.f)
        if all(ideal.contains(QuadElt(ideal.order.field, 0, d) * g)
               for g in (ideal.gen1, ideal.gen2))
    )
    assert multiplier_conductor(ideal) == expected
