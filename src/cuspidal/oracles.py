"""Exhaustive reference routes.

Each function here recomputes by plain enumeration a number that the
library obtains another way, with no shared formula, so the two can be
compared: Picard sizes against the conductor formula, imaginary class
numbers against the listing of reduced forms, cusp counts against the
divisor sum, and curve unit counts against q^(k-1) * (q - 1).
They are slow by design and serve the cross-checks of the command line,
the self-test, the tests and the demos.
"""

from __future__ import annotations

import math
from itertools import product

from .classnum import PicSize
from .curvering import _Span, _check_n
from .errors import UsageError
from .fieldpoly import CoeffField
from .genpairs import orbit_count_sl2_mod_units
from .quadideal import Order, enumerate_ideal_classes, multiplier_conductor


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
                if math.gcd(math.gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or a == b or a == c) else 2
            a += 1
        b += 2
    return count


def brute_force_pic(order: Order, bound: int | None = None) -> PicSize:
    """|Pic(O_f)| by enumerating ideal classes and keeping the invertible ones."""
    reps = enumerate_ideal_classes(order, bound=bound)
    invertible = [r for r in reps if multiplier_conductor(r) == order.f]
    return PicSize(order, len(invertible), "brute-force")


def cusp_count_direct(order: Order, bound: int | None = None) -> int:
    """Cusp count with no class-number formula: enumerate the ideal
    classes and add each class's orbit count on generating pairs."""
    reps = enumerate_ideal_classes(order, bound=bound)
    return sum(orbit_count_sl2_mod_units(rep) for rep in reps)


def curve_unit_group_brute(field: CoeffField, n: int, nu: int) -> int:
    """Same count as curve_unit_group_order, by exhausting the finite
    quotient ring.

    R/Fitt_1 has the basis x^0, x^2, ..., x^(2k-2) with k = (n-1-nu)/2, and
    an element a is a unit exactly when multiplication by a is a bijection,
    that is when its k x k matrix on that basis has full rank mod q.
    """
    _check_n(n)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    if nu % 2 or not 0 <= nu <= n - 1:
        raise UsageError(f"nu must be even in [0, {n - 1}], got {nu}")
    q, k = field.char, (n - 1 - nu) // 2
    if k == 0:
        return 1
    count = 0
    for a in product(range(q), repeat=k):
        # row j is a * x^(2j), truncated at x^(2k)
        span = _Span(field)
        for j in range(k):
            span.add([0] * j + list(a[: k - j]))
        count += len(span.rows) == k
    return count
