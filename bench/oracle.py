"""The benchmark's own arithmetic, written apart from cuspidal.

Everything the checks compare against is computed here from definitions or
classical closed forms: reduced binary quadratic forms, the conductor
formula for Picard sizes, Pell units found by search, lattices in the plane
reduced by gcds, and polynomial arithmetic over Q and F_p. Nothing here
imports cuspidal.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

# Class numbers of real quadratic fields Q(sqrt(m)), from the table of
# OEIS A003649 (class number of Q(sqrt(n)) for squarefree n > 1).
REAL_CLASS_NUMBERS = {
    2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 14: 1, 15: 2,
    17: 1, 19: 1, 21: 1, 79: 3, 94: 1, 223: 3,
}


# ---------------------------------------------------------------------------
# integers


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def phi(n: int) -> int:
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def det_int(rows: list[list[int]]) -> int:
    """Determinant over Q by Fraction elimination, exact for integer input."""
    work = [[Fraction(x) for x in row] for row in rows]
    n, det = len(work), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            c = work[i][k] / work[k][k]
            work[i] = [x - c * y for x, y in zip(work[i], work[k])]
    assert det.denominator == 1
    return int(det)


# ---------------------------------------------------------------------------
# the maximal order Z[w]: w = sqrt(m), or (1 + sqrt(m))/2 when m = 1 mod 4


def disc_max(m: int) -> int:
    return m if m % 4 == 1 else 4 * m


def _w_sq(m: int) -> tuple[int, int]:
    """(r, s) with w^2 = r + s*w."""
    return ((m - 1) // 4, 1) if m % 4 == 1 else (m, 0)


def w_mul(m: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    r, s = _w_sq(m)
    (a, b), (c, d) = x, y
    return a * c + b * d * r, a * d + b * c + b * d * s


def w_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] + y[0], x[1] + y[1]


def w_conj(m: int, x: tuple[int, int]) -> tuple[int, int]:
    return x[0] + x[1] * _w_sq(m)[1], -x[1]


def w_text(x: tuple[int, int]) -> str:
    """An element in the command line's syntax, e.g. '3-2*w'."""
    a, b = x
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*w"


_W_TERM = re.compile(r"([+-]?)(\d*)(\*?w)?$")


def w_parse(text: str) -> tuple[int, int]:
    """Parse the program's printed elements: '5', 'w', '-w', '3-2*w'."""
    a = b = 0
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        match = _W_TERM.match(term)
        if not match or not (match.group(2) or match.group(3)):
            raise ValueError(f"unreadable element {text!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = sign * int(match.group(2) or 1)
        if match.group(3):
            b += coeff
        else:
            a += coeff
    return a, b


# ---------------------------------------------------------------------------
# lattices of the order O_f = Z + Z*f*w, in coordinates over (1, f*w)


def coords(f: int, x: tuple[int, int]) -> tuple[int, int]:
    assert x[1] % f == 0, "element outside the order"
    return x[0], x[1] // f


def std_basis(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(a, d, e) with lattice = Z*(a, 0) + Z*(d, e), -a/2 <= d < a/2.

    e is the gcd of the second coordinates, a*e the gcd of all 2x2 minors.
    """
    e, d0 = 0, 0
    for u, v in vectors:
        # fold (u, v) into the running vector (d0, e) by an extended gcd
        g, s, t = _xgcd(e, v)
        if g:
            d0, e = s * d0 + t * u, g
    covol = 0
    for i, (u1, v1) in enumerate(vectors):
        for u2, v2 in vectors[i + 1:]:
            covol = math.gcd(covol, u1 * v2 - u2 * v1)
    if e == 0 or covol == 0:
        raise ValueError("lattice of rank < 2")
    a = covol // e
    d = d0 % a
    if 2 * d >= a:
        d -= a
    return a, d, e


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1), 0)
    g, s, t = _xgcd(b, a % b)
    return g, t, s - (a // b) * t


def lattice_contains(basis: tuple[int, int, int], vec: tuple[int, int]) -> bool:
    a, d, e = basis
    u, v = vec
    return v % e == 0 and (u - (v // e) * d) % a == 0


def ideal_basis(m: int, f: int, gens: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Standard basis of the O_f-ideal generated by gens (elements over (1, w))."""
    fw = (0, f)
    vectors = []
    for g in gens:
        vectors.append(coords(f, g))
        vectors.append(coords(f, w_mul(m, g, fw)))
    return std_basis(vectors)


def basis_elements(f: int, basis: tuple[int, int, int]) -> list[tuple[int, int]]:
    a, d, e = basis
    return [(a, 0), (d, e * f)]


def multiplier_conductor(m: int, f: int, basis: tuple[int, int, int]) -> int:
    """Least c | f with (c*w) * I inside I: the multiplier ring is O_c."""
    for c in divisors(f):
        images = [w_mul(m, g, (0, c)) for g in basis_elements(f, basis)]
        if all(x[1] % f == 0 and lattice_contains(basis, coords(f, x)) for x in images):
            return c
    raise AssertionError("the order itself must multiply the ideal")


# ---------------------------------------------------------------------------
# class numbers and units


def reduced_form_count(disc: int) -> int:
    """Reduced primitive positive definite forms (a, b, c) of disc < 0."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


@lru_cache(maxsize=None)
def pell_unit(m: int) -> tuple[int, int]:
    """Least (t, u), t, u > 0, with t^2 - D*u^2 = +-4 for D = disc of Q(sqrt(m)).

    The fundamental unit of the maximal order is (t + u*sqrt(D))/2.
    """
    dk = disc_max(m)
    u = 1
    while True:
        for target in (dk * u * u - 4, dk * u * u + 4):
            t = math.isqrt(target)
            if t * t == target:
                return t, u
        u += 1


def _unit_mul(dk: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (t1, u1), (t2, u2) = x, y
    return (t1 * t2 + dk * u1 * u2) // 2, (t1 * u2 + t2 * u1) // 2


@lru_cache(maxsize=None)
def order_unit(m: int, f: int) -> tuple[int, tuple[int, int], int]:
    """(k, (t, u), norm) for the fundamental unit eps^k of O_f, m > 0.

    (t + u*sqrt(D))/2 lies in O_f exactly when f divides u.
    """
    dk = disc_max(m)
    base = pell_unit(m)
    norm_base = -1 if base[0] ** 2 - dk * base[1] ** 2 == -4 else 1
    k, power = 1, base
    while power[1] % f:
        power = _unit_mul(dk, power, base)
        k += 1
    return k, power, norm_base ** k


def unit_in_w(m: int, tu: tuple[int, int]) -> tuple[int, int]:
    """(t + u*sqrt(D))/2 over the basis (1, w)."""
    t, u = tu
    if m % 4 == 1:  # sqrt(m) = 2w - 1
        return (t - u) // 2, u
    return t // 2, u  # sqrt(4m) = 2w


def has_norm_minus_one(m: int, f: int) -> bool:
    return m > 0 and order_unit(m, f)[2] == -1


def class_number_max(m: int) -> int:
    if m < 0:
        return reduced_form_count(disc_max(m))
    return REAL_CLASS_NUMBERS[m]


def pic_order(m: int, f: int) -> int:
    """h(O_f) = h_K * f / [O_K^x : O_f^x] * prod_{p | f} (1 - (D/p)/p)."""
    dk = disc_max(m)
    h = Fraction(class_number_max(m) * f)
    for p in prime_factors(f):
        h *= 1 - Fraction(kronecker(dk, p), p)
    if m > 0:
        index = order_unit(m, f)[0]
    else:
        index = {-1: 2, -3: 3}.get(m, 1) if f > 1 else 1
    h /= index
    assert h.denominator == 1
    return int(h)


# ---------------------------------------------------------------------------
# polynomials over Q (p == 0) or F_p, as ascending coefficient lists


def poly_trim(cs: list, p: int) -> list:
    cs = [Fraction(c) if p == 0 else c % p for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out, p)


def poly_add(a: list, b: list, p: int) -> list:
    size = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)],
        p,
    )


def poly_text(cs: list) -> str:
    """The command line's syntax: '3 + x^2 - 1/2*x^5'."""
    out = []
    for i, c in enumerate(cs):
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if i == 0 else ("" if mag == 1 else f"{mag}*") + (
            "x" if i == 1 else f"x^{i}"
        )
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out) or "0"
    return text[1:] if text[0] == "+" else text


_P_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?x(?:\^(\d+))?)?$")


def poly_parse(text: str, p: int) -> list:
    """Parse the program's printed polynomials, e.g. '1 - 2*x^2 + 1/3*x^5'."""
    cs: dict[int, Fraction] = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        match = _P_TERM.match(term)
        if not match or not (match.group(2) or match.group(3)):
            raise ValueError(f"unreadable polynomial {text!r}")
        coeff = Fraction(match.group(2) or 1) * (-1 if match.group(1) == "-" else 1)
        exp = 0 if not match.group(3) else int(match.group(4) or 1)
        cs[exp] = cs.get(exp, 0) + coeff
    return poly_trim([cs.get(i, 0) for i in range(max(cs) + 1)], p)


@lru_cache(maxsize=None)
def brute_unit_count(q: int, k: int) -> int:
    """Units of F_q[y]/(y^k), found by trying every product."""
    elements = [()]
    for _ in range(k):
        elements = [e + (v,) for e in elements for v in range(q)]
    one = (1,) + (0,) * (k - 1)

    def mul(a: tuple, b: tuple) -> tuple:
        out = [0] * k
        for i, x in enumerate(a):
            if x:
                for j in range(k - i):
                    out[i + j] += x * b[j]
        return tuple(v % q for v in out)

    return sum(1 for a in elements if any(mul(a, b) == one for b in elements))
