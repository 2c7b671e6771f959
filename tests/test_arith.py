import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import arith
from cuspidal.arith import (
    _element_order,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    sqrt_mods,
    xgcd,
)
from cuspidal.errors import InconclusiveError, UsageError


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


def test_factorization_reads_its_budget_only_past_the_free_trial_divisors(monkeypatch):
    monkeypatch.setenv("CUSPIDAL_BOUND", "junk")
    # 9967 and 9973 are prime: every trial divisor stays below 10^4
    assert factorize(2 * 9967 * 9973) == {2: 1, 9967: 1, 9973: 1}
    with pytest.raises(UsageError, match="CUSPIDAL_BOUND"):
        factorize(10007 * 10009)
    monkeypatch.setenv("CUSPIDAL_BOUND", "1")
    with pytest.raises(InconclusiveError, match="up to 10000 leaves a 9-digit cofactor"):
        factorize(2 * 10007 * 10009)
    assert factorize(3 * 10007) == {3: 1, 10007: 1}
    monkeypatch.setenv("CUSPIDAL_BOUND", "10007")
    assert factorize(10007 * 10009) == {10007: 1, 10009: 1}


# Carmichael numbers, then the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6 and
# 9 prime bases (OEIS A014233), then two primes past 10^9
_PRIME_TEST_EXAMPLES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 5394826801,
                        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                        3825123056546413051, 1000000007, 2147483647)


def _examples(values):
    def apply(test):
        for value in values:
            test = example(value)(test)
        return test
    return apply


@settings(deadline=None)
@given(st.integers(-5, 5000))
@_examples(_PRIME_TEST_EXAMPLES)
def test_is_prime_matches_factorization(n):
    assert is_prime(n) == (n >= 2 and factorize(n) == {n: 1})


def test_is_prime_is_exact_without_a_budget_up_to_its_bound(monkeypatch):
    # the least strong pseudoprime to the first 12 prime bases is composite, 2^61 - 1 is
    # prime, and the least one to the first 13 bases, the bound, goes to factorize, whose
    # trial division stops at the budget
    monkeypatch.setenv("CUSPIDAL_BOUND", "1")
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    with pytest.raises(InconclusiveError, match="up to 10000 leaves a 25-digit cofactor"):
        is_prime(1287836182261 * 2575672364521)


@given(st.integers(1, 2000))
def test_euler_phi_counts_coprime_residues(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@given(st.integers(1, 2000), st.integers(0, 10**6))
def test_element_order_is_the_least_power_to_one(n, a):
    a %= n
    if math.gcd(a, n) == 1:
        least = next(j for j in range(1, n + 1) if pow(a, j, n) == 1 % n)
        assert _element_order(euler_phi(n), lambda j: pow(a, j, n) == 1 % n) == least


@given(st.integers(1, 2000))
def test_divisors_complete_and_sorted(n):
    divs = divisors(n)
    assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


@given(st.integers(-3000, 3000))
def test_is_squarefree_by_trial(n):
    expected = n != 0 and all(n % (d * d) for d in range(2, int(abs(n)) + 1) if d * d <= abs(n))
    assert is_squarefree(n) == expected


@given(st.integers(-10**9, 10**9), st.integers(1, 60))
def test_budgeted_squarefree_test_is_exact_or_inconclusive(n, bound):
    expected = n != 0 and all(k == 1 for k in factorize(abs(n)).values())
    rest = abs(n)
    for p in range(2, bound + 1):
        while rest and rest % p == 0:
            rest //= p
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CUSPIDAL_BOUND", str(bound))
        try:
            assert is_squarefree(n) == expected
        except InconclusiveError as exc:
            # only for a cofactor free of primes up to the bound and past its cube
            assert rest >= bound**3 and not is_prime(rest)
            assert f"up to {bound}" in str(exc) and "CUSPIDAL_BOUND" in str(exc)


def test_a_cofactor_proved_prime_ends_no_search(monkeypatch):
    # past the trial divisors a cofactor that Miller-Rabin proves prime is kept; a
    # composite one, or one past the proof's bound, is still undecided
    p, q = 10**13 + 37, 10**20 + 39
    factorize.cache_clear()  # a factorization done under a larger budget would answer
    monkeypatch.setenv("CUSPIDAL_BOUND", "1")
    assert factorize(2 * p) == {2: 1, p: 1} and factorize(q) == {q: 1}
    assert is_squarefree(5) and is_squarefree(q)
    with pytest.raises(InconclusiveError, match="up to 10000 leaves a 9-digit cofactor"):
        factorize(10007 * 10009)
    with pytest.raises(InconclusiveError, match="up to 1 leaves a 41-digit cofactor"):
        is_squarefree(10**40 + 7)
    monkeypatch.setenv("CUSPIDAL_BOUND", "3")
    assert is_squarefree(-3 * q) and not is_squarefree(4 * q)
    with pytest.raises(InconclusiveError, match="up to 3 leaves a 9-digit cofactor"):
        is_squarefree(10007 * 10009)


def isqrt_ceil(n):
    """Smallest integer k >= 0 with k*k >= n (n >= 0)."""
    k = math.isqrt(n)
    return k if k * k == n else k + 1


@given(st.integers(0, 10**9))
def test_isqrt_ceil(n):
    r = isqrt_ceil(n)
    assert r * r >= n
    assert r == 0 or (r - 1) * (r - 1) < n


def _squares_table(n):
    """Residue mod n -> every x in [0, n) squaring to it, ascending."""
    table = {}
    for x in range(n):
        table.setdefault(x * x % n, []).append(x)
    return table


def test_sqrt_mod_matches_brute_force():
    tables = {n: _squares_table(n) for n in range(1, 2001)}
    tables.update((n, _squares_table(n)) for n in range(2004, 4001, 4))
    # one c against every modulus n <= 2000: zero, squares, discriminants,
    # c with many small prime factors, and c that are non-residues mod many n;
    # then against even steps, whose power of 2 shrinks the sieve to the odd parts
    cs = (0, 1, 144, 12345**2, -3, -4, -23, -4 * 10000019, 1000003, 3 * 2**9, 2 * 7**3,
          2**7 * 3**4 * 5**3 * 7**2 * 11)
    for moduli in (range(1, 2001), range(2, 2001, 2), range(8, 4001, 8), range(12, 3001, 12)):
        for c in cs:
            for n, roots in sqrt_mods(c, moduli):
                assert roots == tables[n].get(c % n, []), (c, n)
    # per modulus: a non-residue and values sharing the least prime p of n
    for n in range(2, 2001):
        p = min(factorize(n))
        nonres = next((c for c in range(n) if c not in tables[n]), 1)
        for c in (nonres, p, p**3, p * nonres, n // p * 3, 5 * n):
            ((m, roots),) = sqrt_mods(c, range(n, n + 1))
            assert m == n and roots == tables[n].get(c % n, []), (c, n)
    # every residue c mod every n <= 300
    for c in range(300):
        for n, roots in sqrt_mods(c, range(1, 301)):
            assert roots == tables[n].get(c % n, []), (c, n)
    # a stepped range, as class enumeration asks for the roots mod 4a
    for n, roots in sqrt_mods(-23 * 36, range(4, 2001, 4)):
        assert roots == tables[n].get(-23 * 36 % n, []), n


def test_sqrt_mods_solves_each_prime_power_once(monkeypatch):
    """Every prime power p^k || n of the moduli is solved once per call, though
    it recurs in many moduli and as a part of their cofactors n/p^k."""
    solved = []

    def counted(c, p, q, real=arith._sqrt_mod_prime_power):
        solved.append(q)
        return real(c, p, q)

    monkeypatch.setattr(arith, "_sqrt_mod_prime_power", counted)
    for c, moduli in ((-23 * 36, range(4, 4001, 4)), (221, range(1, 2001)),
                      (-4 * 10000019, range(4, 4 * 3000 + 1, 4))):
        solved.clear()
        assert len(list(sqrt_mods(c, moduli))) == len(moduli)
        powers = {p**k for n in moduli for p, k in factorize(n).items()}
        assert sorted(solved) == sorted(powers), c


def test_sqrt_mods_memoises_only_roots_a_later_modulus_reads():
    """Over class enumeration's moduli 4a, a <= W, every stored root list of an odd
    cofactor is read again: an odd r with 2r > W divides no later modulus 2^j*r <= 4W
    and no odd part q'*r <= W, so it is not stored. The memo dict is swapped, through
    the closure cell the generator and its roots() share, for one that logs reads."""

    class ReadLog(dict):
        def __init__(self, entries):
            super().__init__(entries)
            self.read = set()

        def get(self, n, default=None):
            if n in self:
                self.read.add(n)
            return super().get(n, default)

    for c, w in ((-4 * (10**12 + 39), 1000), (4 * 10000000019, 1000), (-23 * 36, 2000),
                 (-4 * 10000019, 20000)):
        moduli = range(4, 4 * w + 1, 4)
        run = sqrt_mods(c, moduli)
        next(run)
        roots = run.gi_frame.f_locals["roots"]
        cell = dict(zip(roots.__code__.co_freevars, roots.__closure__))["memo"]
        cell.cell_contents = memo = ReadLog(cell.cell_contents)
        assert sum(1 for _ in run) == len(moduli) - 1
        odd = {r for r in memo if r % 2 and r > 1}
        assert odd and odd <= memo.read, sorted(odd - memo.read)[:5]
        assert all(2 * r <= w for r in odd)
