"""Small number-theoretic helpers on plain integers."""

from __future__ import annotations

import math


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
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


def is_prime(n: int) -> bool:
    """Primality by trial division (desk scale)."""
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (desk scale)."""
    assert n >= 1
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    assert n >= 1
    val = n
    for p in factorize(n):
        val = val // p * (p - 1)
    return val


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    assert n >= 1
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def isqrt_ceil(n: int) -> int:
    """Smallest integer k >= 0 with k*k >= n (n >= 0)."""
    assert n >= 0
    k = math.isqrt(n)
    return k if k * k == n else k + 1


def primitive_part(vec: list[int]) -> list[int]:
    """vec divided by the gcd of its entries; unchanged when that is 0 or 1."""
    g = math.gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec
