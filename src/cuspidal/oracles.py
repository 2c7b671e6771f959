"""Exhaustive reference routes.

Each function here recomputes by plain enumeration a number that the
library obtains another way, with no shared formula, so the two can be
compared: Picard sizes against the conductor formula, cusp counts against
the divisor sum, and curve unit counts against q^(k-1) * (q - 1), by the
determinant of each element's multiplication matrix.
They are slow by design and serve the cross-checks of the command line, the
self-test, the tests and the demos; at f = 1 in a real field they rerun the class
enumeration that gives h_K, and the tests' form oracle is the independent check.
The oracles that only the tests use live in tests/. Each function imports the
modules of its own ring family when it runs, so a curve check loads no class
numbers and a cusp check no curve ring.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import TYPE_CHECKING

from .arith import det_int
from .errors import UsageError
from .quadideal import Order, _checked_conductor, _keyed_classes

if TYPE_CHECKING:
    from .classnum import PicSize
    from .fieldpoly import CoeffField


def _class_conductors(order: Order) -> list[int]:
    """The multiplier conductor f/g of each class, g its key's content, verified."""
    return [_checked_conductor(rep, g) for (g, _), rep in _keyed_classes(order).items()]


def brute_force_pic(order: Order) -> PicSize:
    """|Pic(O_f)| by enumerating ideal classes and keeping the invertible ones."""
    from .classnum import PicSize

    return PicSize(order, _class_conductors(order).count(order.f), "brute-force")


def cusp_count_direct(order: Order) -> int:
    """Cusp count with no class-number formula: enumerate the ideal classes and
    add each class's orbit count on generating pairs, a function of f' alone."""
    from .genpairs import orbit_count_sl2_mod_units

    counts = Counter(_class_conductors(order))
    return sum(k * orbit_count_sl2_mod_units(order, f_prime) for f_prime, k in counts.items())


def curve_unit_group_brute(field: CoeffField, n: int, nu: int) -> int:
    """Same count as curve_unit_group_order, by exhausting the finite
    quotient ring.

    R/Fitt_1 has the basis x^0, x^2, ..., x^(2k-2) with k = (n-1-nu)/2, and
    an element a is a unit exactly when multiplication by a is a bijection,
    that is when its k x k matrix on that basis has full rank mod q: when the
    integer determinant of that matrix is prime to q.
    """
    from .curvering import _check_n

    _check_n(n, nu)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    q, k = field.char, (n - 1 - nu) // 2
    # row j is a * x^(2j), truncated at x^(2k)
    return sum(det_int([[0] * j + list(a[: k - j]) for j in range(k)]) % q != 0
               for a in product(range(q), repeat=k))
