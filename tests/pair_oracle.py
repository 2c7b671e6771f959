"""The determinant class of two generating pairs on QuadElt objects, kept as a
test oracle.

genpairs computes it on coordinate pairs (a, b) over (1, omega). The code
below is the same algorithm written with QuadElt arithmetic throughout, the
route the library took before: one reduction of the 2x4 pair system solves
both columns of A with pair @ A = other and gives the kernel over which the
class of det A is checked. It runs the same checks, so a mismatch shows in
the matrix or in the class, not in an error.
"""

import math

from cuspidal.errors import UsageError, check
from cuspidal.genpairs import DetClass, GenPair
from cuspidal.quadfield import QuadElt
from cuspidal.quadideal import _echelon2, multiplier_conductor


def _solve_in_pair(pair: GenPair, system, target: QuadElt) -> tuple[QuadElt, QuadElt]:
    """Coefficients (x, y) in the order with g1*x + g2*y = target."""
    order = pair.ideal.order
    sol = system.solve(target.a, target.b)
    check(sol is not None, "{} is not reachable from {}", target, pair.elements)
    x = order.from_coords(sol[0], sol[1])
    y = order.from_coords(sol[2], sol[3])
    check(pair.g1 * x + pair.g2 * y == target, "coefficients {} do not reach {}", (x, y), target)
    return x, y


def _det2(mat: list[list[QuadElt]]) -> QuadElt:
    return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]


def transition(pair: GenPair, other: GenPair) -> tuple[list[list[QuadElt]], DetClass]:
    """The coefficient matrix A with pair.elements @ A = other.elements and the
    class of det A in Z/(f/f'), checked over every lift A + (kernel vector)."""
    if pair.ideal != other.ideal:
        raise UsageError("pairs generate different ideals, no determinant class")
    order = pair.ideal.order
    n0 = order.f // multiplier_conductor(pair.ideal)
    gen = order.gen
    cols = [p for g in pair.elements for p in (g, g * gen)]
    system = _echelon2([p.a for p in cols], [p.b for p in cols])
    (x1, y1), (x2, y2) = (_solve_in_pair(pair, system, h) for h in other.elements)
    mat = [[x1, x2], [y1, y2]]
    cls = DetClass(order.coords(_det2(mat))[0], n0)
    check(math.gcd(cls.value, n0) == 1, "determinant residue {} mod {} not a unit", cls.value, n0)
    for kern in system.kernel:
        dx = order.from_coords(kern[0], kern[1])
        dy = order.from_coords(kern[2], kern[3])
        check(pair.g1 * dx + pair.g2 * dy == order.field.zero,
              "{} is not a relation of {}", (dx, dy), pair.elements)
        alt = [[x1 + dx, x2], [y1 + dy, y2]]
        check(order.coords(_det2(alt))[0] % n0 == cls.value,
              "determinant class depends on the lift")
    return mat, cls
