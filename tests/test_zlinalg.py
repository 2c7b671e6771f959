from hypothesis import given, strategies as st

from cuspidal.genpairs import det_int, identity, mat_mul
from test_hnf_oracle import mat_mul_vec


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
