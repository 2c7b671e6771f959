"""Reductions, listings and counts of binary quadratic forms, kept as test oracles.

The library finds h_K without listing forms: a real field counts the classes
that class enumeration finds over Markov's window, and an imaginary field
counts its reduced definite forms as it sieves them. The full listing below,
with A up to sqrt(|disc|/3) or sqrt(disc), is the route it took before, and
reduced_form_count is a plain double loop over (B, A) with no square roots
mod 4A. Neither draws on a search budget. gauss_reduce is Gauss's loop for
definite forms, the reference for the library's reduction by rho steps.
"""

import math

from cuspidal.arith import sqrt_mods
from cuspidal.quadideal import QuadForm


def reduced_forms(disc: int) -> list[QuadForm]:
    """The reduced primitive forms of a non-square discriminant of either sign
    (Cohen, GTM 138, 5.3 and 5.6): A runs over its window, up to
    sqrt(|disc|/3) or sqrt(disc), and B over the square roots of disc mod 4A
    in (-A, A] or in the reduction window below sqrt(disc); a real form comes
    with its negative (-A, B, -C)."""
    s = math.isqrt(-disc // 3 if disc < 0 else disc)
    forms: list[QuadForm] = []
    for n, roots in sqrt_mods(disc, range(4, 4 * s + 1, 4)):
        a = n // 4
        # the roots below 2a are the residues of B mod 2a
        for r in roots[: len(roots) // 2]:
            if disc < 0:
                bs = [r if r <= a else r - 2 * a]
            else:  # |sqrt(disc) - 2a| < B < sqrt(disc)
                lo = max(2 * a - s, s - 2 * a + 1)
                bs = range(lo + (r - lo) % (2 * a), s + 1, 2 * a)
            for b in bs:
                c = (b * b - disc) // n
                if math.gcd(a, b, c) != 1:
                    continue
                if disc > 0:
                    forms += [QuadForm(a, b, c), QuadForm(-a, b, -c)]
                elif a < c or (a == c and b >= 0):
                    forms.append(QuadForm(a, b, c))
    return forms


def reduced_form_count(disc: int) -> int:
    """Number of reduced primitive forms (A, B, C) of discriminant disc < 0.

    Reduction: |B| <= A <= C with B >= 0 whenever |B| = A or A = C.
    """
    assert disc < 0 and disc % 4 in (0, 1)
    count = 0
    b = disc % 2
    while b * b <= -disc // 3:
        m4 = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m4:
            if a and m4 % a == 0:
                c = m4 // a
                if math.gcd(a, b, c) == 1:
                    count += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return count


def gauss_reduce(A: int, B: int, C: int) -> QuadForm:
    """Gauss reduction of a positive definite form: |B| <= A <= C, B >= 0 when
    |B| = A or A = C, by the loop B -> B mod 2A, (A, B, C) -> (C, -B, A)."""
    disc = B * B - 4 * A * C
    while True:
        B %= 2 * A
        if B > A:
            B -= 2 * A
        C = (B * B - disc) // (4 * A)
        if A <= C:
            break
        A, B, C = C, -B, A
    return QuadForm(A, -B, C) if A == C and B < 0 else QuadForm(A, B, C)
