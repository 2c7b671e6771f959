"""Small number-theoretic helpers on plain integers, and det_int, the library's one
square elimination: the SL_n witnesses of genpairs and the curve unit oracle read it."""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from functools import lru_cache
from types import MappingProxyType

from .config import exhausted, resolve_bound
from .errors import check


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_squarefree(n: int) -> bool:
    """Trial division up to P = resolve_bound(), stopped at the first square factor. The
    cofactor left has no prime factor up to P: below P^3 it is 0, 1, q, qr or q^2 for
    primes q, r, so squarefree unless a square other than 1; past P^3 it is undecided
    unless is_prime proves it prime. Once p * p passes it, it is 0, 1 or a prime."""
    n, bound, p = abs(n), resolve_bound(), 2
    while p * p <= n and p <= bound:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    if p * p <= n and n >= bound**3 and not (n < _MR_EXACT_BELOW and is_prime(n)):
        raise exhausted(f"squarefree test: trial division up to {bound} leaves a"
                        f" {len(str(n))}-digit cofactor")
    return n == 1 or math.isqrt(n) ** 2 != n


# the first 13 primes: no odd composite below 3317044064679887385961981 is a strong
# probable prime to all of them (Sorenson and Webster, Math. Comp. 86, 2017; OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases _MR_BASES, deterministic below _MR_EXACT_BELOW and
    drawing on no search budget; only larger n that pass every round go to the
    budgeted factorize."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return n < _MR_EXACT_BELOW or factorize(n) == {n: 1}


@lru_cache(maxsize=None)
def factorize(n: int) -> Mapping[int, int]:
    """Prime factorization {p: e} of n >= 1, read-only, by trial division by 2 and the
    odd numbers up to P = max(resolve_bound(), 10^4), read only past 10^4. A cofactor
    past P^2 with no prime factor up to P raises InconclusiveError unless is_prime
    proves it prime, which needs no budget below _MR_EXACT_BELOW. Memoised per n, a
    memo the README lists: a session factors each integer once; a raise is not kept."""
    assert n >= 1
    out: dict[int, int] = {}
    p, top = 2, 0
    while p * p <= n:
        if p > 10_000 and p > (top := top or max(resolve_bound(), 10_000)):
            if n < _MR_EXACT_BELOW and is_prime(n):
                break
            raise exhausted(f"factorization: trial division up to {top} leaves a"
                            f" {len(str(n))}-digit cofactor")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return MappingProxyType(out)


def _element_order(n: int, is_one) -> int:
    """The order of an element of a group of order n, where is_one(j) tells whether
    its j-th power is the identity: from k = n, each prime q | n (factorize)
    divides k while the (k/q)-th power is still the identity."""
    check(is_one(n), "the group order {} does not kill the element", n)
    k = n
    for q in factorize(n):
        while k % q == 0 and is_one(k // q):
            k //= q
    return k


def euler_phi(n: int) -> int:
    return math.prod(p ** (k - 1) * (p - 1) for p, k in factorize(n).items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def primitive_part(vec: list[int]) -> list[int]:
    """vec divided by the gcd of its entries; unchanged when that is 0 or 1."""
    g = math.gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def det_int(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination, over Z or, for QuadElt
    entries, over the maximal order, where // is the exact quotient
    x*sigma(y)/N(y): each division is by the previous pivot, a minor that divides."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def _sqrt_mod_prime_power(c: int, p: int, q: int) -> list[int]:
    """All roots of x^2 = c mod q = p^k. Mod p the root is c mod p when p = 2 or
    p | c, and otherwise comes from Tonelli-Shanks (Cohen, GTM 138, Alg.
    1.5.1); each root mod p^i then lifts to the x + t*p^i, 0 <= t < p, that
    are roots mod p^(i+1), which covers p = 2 and p | c as well."""
    xs = [c % p]
    if p > 2 and c % p:
        if pow(c, (p - 1) // 2, p) != 1:
            return []
        odd, s = p - 1, 0
        while odd % 2 == 0:
            odd, s = odd // 2, s + 1
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        gen, t, x = pow(z, odd, p), pow(c, odd, p), pow(c, (odd + 1) // 2, p)
        while t != 1:
            i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
            b = pow(gen, 1 << (s - i - 1), p)
            s, gen, t, x = i, b * b % p, t * b * b % p, x * b % p
        xs = [x, p - x]
    m = p
    while m < q:
        m *= p
        xs = [y for x in xs for y in range(x, m, m // p) if (y * y - c) % m == 0]
    return xs


def sqrt_mods(c: int, moduli: range) -> Iterator[tuple[int, list[int]]]:
    """(n, the x in [0, n) with x^2 = c mod n, ascending) for each n in `moduli`, a
    range of positive integers. n splits into q = p^k || n, p its least prime, and n/q;
    the roots mod n are the CRT combinations of those mod n/q and mod q, so each prime
    power is solved once. An even n takes p = 2; an odd one reads p from a sieve of odd
    primes, which reaches only the odd parts: each is at most top / 2^v when 2^v divides
    every modulus, as 4 divides class enumeration's 4a. Only the roots a later modulus can
    read are memoised: those mod a power of 2, and mod an odd n with 2n <= top, since n's
    readers are the moduli 2^j*n and the odd parts q'*n, q' >= 3."""
    top = moduli[-1] if moduli else 1
    g = math.gcd(moduli.start, moduli.step)
    top >>= (g & -g).bit_length() - 1
    spf = [0] * (top + 1)  # least prime factors of odd n, 0 for primes: the last mark wins
    for p in range(math.isqrt(top) | 1, 1, -2):
        spf[p * p :: 2 * p] = [p] * len(range(p * p, top + 1, 2 * p))
    memo: dict[int, list[int]] = {1: [0]}

    def roots(n: int) -> list[int]:
        out = memo.get(n)
        if out is None:
            p = q = 2 if n % 2 == 0 else spf[n] or n
            while n // q % p == 0:
                q *= p
            rest = n // q
            if rest == 1:
                out = _sqrt_mod_prime_power(c, p, q)
            else:
                inv = pow(rest, -1, q)
                out = [x + rest * ((y - x) * inv % q) for x in roots(rest) for y in roots(q)]
            if (q == n) if p == 2 else (2 * n <= top):
                memo[n] = out
        return out

    for n in moduli:
        yield n, sorted(roots(n))
