"""Exhaustive reference routes.

Each function here recomputes by plain enumeration a number that the
library obtains from a closed form, with no shared formula, so the two can
be compared: Picard sizes against the conductor formula, cusp counts
against the divisor sum, and curve unit counts against q^(k-1) * (q - 1).
They are slow by design and serve the cross-checks of the command line,
the self-test, the tests and the demos.
"""

from __future__ import annotations

from .classnum import PicSize
from .curvering import _check_n
from .errors import UsageError
from .fieldpoly import CoeffField
from .genpairs import orbit_count_sl2_mod_units
from .quadideal import Order, enumerate_ideal_classes, multiplier_conductor


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
    quotient ring."""
    _check_n(n)
    if field.char == 0:
        raise UsageError("unit counts need a finite coefficient field")
    bound = n - 1 - nu
    exps = list(range(0, bound, 2))
    k = len(exps)
    if k == 0:
        return 1
    elements = [[]]
    for _ in range(k):
        elements = [e + [v] for e in elements for v in field.all_elements()]

    def mul(a: list, b: list) -> tuple:
        out = [field.zero] * k
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if exps[i] + exps[j] < bound:
                    idx = (exps[i] + exps[j]) // 2
                    out[idx] = out[idx] + ai * bj
        return tuple(out)

    one = tuple([field.one] + [field.zero] * (k - 1))
    count = 0
    for a in elements:
        if any(mul(a, b) == one for b in elements):
            count += 1
    return count
