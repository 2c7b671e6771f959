import math

from hypothesis import given, strategies as st

from cuspidal.arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    isqrt_ceil,
    xgcd,
)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(2, 5000))
def test_factorize_reassembles(n):
    fac = factorize(n)
    prod = 1
    for p, k in fac.items():
        assert all(p % q for q in range(2, p) if q * q <= p)
        prod *= p**k
    assert prod == n


@given(st.integers(-5, 5000))
def test_is_prime_matches_factorization(n):
    assert is_prime(n) == (n >= 2 and factorize(n) == {n: 1})


@given(st.integers(1, 2000))
def test_euler_phi_counts_coprime_residues(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@given(st.integers(1, 2000))
def test_divisors_complete_and_sorted(n):
    divs = divisors(n)
    assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


@given(st.integers(-3000, 3000))
def test_is_squarefree_by_trial(n):
    expected = n != 0 and all(n % (d * d) for d in range(2, int(abs(n)) + 1) if d * d <= abs(n))
    assert is_squarefree(n) == expected


@given(st.integers(0, 10**9))
def test_isqrt_ceil(n):
    r = isqrt_ceil(n)
    assert r * r >= n
    assert r == 0 or (r - 1) * (r - 1) < n
