"""The determinant class and SL2 witness of two generating pairs on QuadElt
objects, kept as a test oracle.

genpairs computes both on coordinate pairs (a, b) over (1, omega). The code
below is the same algorithm written with QuadElt arithmetic throughout, the
route the library took before: one reduction of the 2x4 pair system solves
both columns of A with pair @ A = other and gives the kernel over which the
class of det A is checked; the witness corrects A by a solution of
rho*h2 - sigma*h1 = (1 - det A)*N(I) over sigma(I)^2. It runs the same checks,
so a mismatch shows in the class or in the witness entries, not in an error.
"""

import math

from cuspidal.errors import UsageError, check
from cuspidal.genpairs import DetClass, GenPair, UnimodularWitness
from cuspidal.quadfield import QuadElt
from cuspidal.quadideal import _echelon2, _fitt1, multiplier_conductor


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


def _divide_exact(elt: QuadElt, c: int) -> QuadElt:
    check(elt.a % c == 0 and elt.b % c == 0, "{} is not divisible by {}", elt, c)
    return QuadElt(elt.field, elt.a // c, elt.b // c)


def sl2_witness(pair: GenPair, other: GenPair) -> UnimodularWitness:
    """B in SL2(O_f) with pair.elements @ B = other.elements, when the class is 1."""
    if pair.ideal != other.ideal:
        raise UsageError("pairs generate different ideals")
    order = pair.ideal.order
    field = order.field
    if pair.elements == other.elements:
        return UnimodularWitness(((field.one, field.zero), (field.zero, field.one)))
    mat, cls = transition(pair, other)
    if not cls.is_one:
        raise UsageError(f"pairs are not SL2-equivalent, class {cls.value} mod {cls.modulus}")
    t = field.one - _det2(mat)
    conj = pair.ideal.conjugate()
    check(_fitt1(pair.ideal, order.f // cls.modulus, conj).contains(t),
          "1 - det A = {} is not in Fitt_1", t)

    c = pair.ideal.norm()
    scaled_t = t * c
    basis = (conj.gen1, conj.gen2)
    cols = [g * other.g2 for g in basis] + [-(g * other.g1) for g in basis]
    sol = _echelon2([p.a for p in cols], [p.b for p in cols]).solve(scaled_t.a, scaled_t.b)
    check(sol is not None, "correction equation has no solution over sigma(I)^2")
    rho = basis[0] * sol[0] + basis[1] * sol[1]
    sigma = basis[0] * sol[2] + basis[1] * sol[3]
    check(rho * other.g2 - sigma * other.g1 == scaled_t,
          "correction equation solution does not check")

    a, b = pair.elements
    n11 = _divide_exact(rho * b, c)
    n12 = _divide_exact(sigma * b, c)
    n21 = _divide_exact(rho * a, c) * (-1)
    n22 = _divide_exact(sigma * a, c) * (-1)
    entries = (
        (mat[0][0] + n11, mat[0][1] + n12),
        (mat[1][0] + n21, mat[1][1] + n22),
    )
    for row in entries:
        for e in row:
            check(order.contains(e), "witness entry {} escapes the order", e)
    witness = UnimodularWitness(entries)
    check(witness.det() == field.one, "witness determinant is not 1")
    check(witness.apply_to(pair.elements) == other.elements,
          "witness does not map the first pair to the second")
    return witness
