"""Generating pairs of an ideal: determinant classes and unimodular witnesses.

A pair (g1, g2) generating an ideal I is compared to another pair of the
same ideal through any coefficient matrix A with (g1, g2) A = (h1, h2).
The determinant of A is well defined modulo the Fitting ideal, and its
residue in Z/(f/f') is a complete invariant for the SL2(O_f) action.
Both columns of A come from one reduction of the 2x4 integer system of the
pair. Its kernel spans the relations of the pair: every call walks it to
check that each lift of A gives the same class, and the unimodular witness
of class 1 is A + N, the columns of N combinations of it. Longer generating
vectors are compressed to length two by an explicit SL_n(Z) witness: the
transform of the same 2-row reduction, applied to the coordinates of the
vector. realize_det_class reads the index of (gen1 : gen2) as a/e, a closed form.

det_pair, sl2_witness and reduce_vector run on order coordinates, the pairs
(u, v) of the elements u + v*f*omega over (1, f*omega) that quadideal uses,
multiplied by quadideal._dot with the order's (f*omega)^2 = R + S*f*omega
(Order.gen_sq); they read a QuadElt x as (x.a, x.b // f) and build only the
returned ones, with Order.from_coords.
"""

from __future__ import annotations

import math

from .arith import _element_order, det_int, euler_phi
from .errors import UsageError, check
from .quadfield import QuadElt
from .quadideal import (
    Order,
    QIdeal,
    _dot,
    _echelon2,
    _fitt1,
    ideal_from_generators,
    multiplier_conductor,
)
from .units import _power_mod, fundamental_unit
from .value import Value


class GenPair(Value, fields=("order", "g1", "g2")):
    """An ordered pair (g1, g2) of elements of an order, with the ideal it generates."""

    __slots__ = ("ideal", "g1", "g2")

    def __init__(self, order: Order, g1: QuadElt, g2: QuadElt) -> None:
        object.__setattr__(self, "ideal", ideal_from_generators(order, [g1, g2]))
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def order(self) -> Order:
        return self.ideal.order

    @property
    def elements(self) -> tuple[QuadElt, QuadElt]:
        return (self.g1, self.g2)


class GenVec(Value, fields=("order", "elements")):
    """A generating vector of length n >= 2, with the ideal it generates."""

    __slots__ = ("ideal", "elements")

    def __init__(self, order: Order, elements: tuple[QuadElt, ...] | list[QuadElt]) -> None:
        # the ideal first: a lone zero entry is refused as the zero ideal
        object.__setattr__(self, "ideal", ideal_from_generators(order, list(elements)))
        object.__setattr__(self, "elements", tuple(elements))
        if len(elements) < 2:
            raise UsageError("a generating vector needs at least two entries")

    @property
    def order(self) -> Order:
        return self.ideal.order


class DetClass(Value):
    """A residue in Z/modulus, the determinant class of a pair of pairs."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        assert modulus >= 1
        Value.__init__(self, value % modulus, modulus)

    @property
    def is_one(self) -> bool:
        return self.value == 1 % self.modulus

    def __mul__(self, other: "DetClass") -> "DetClass":
        assert self.modulus == other.modulus
        return DetClass(self.value * other.value, self.modulus)


class UnimodularWitness(Value):
    """A square matrix over the order, stored row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[QuadElt, ...], ...]) -> None:
        Value.__init__(self, entries)
        n = len(entries)
        assert all(len(row) == n for row in entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def det(self) -> QuadElt:
        """By det_int's elimination, over the maximal order."""
        return self.entries[0][0].field.one * det_int(self.entries)

    def apply_to(self, elements: tuple[QuadElt, ...]) -> tuple[QuadElt, ...]:
        """Row vector times matrix."""
        n = self.size
        assert len(elements) == n
        field = elements[0].field
        out = []
        for j in range(n):
            acc = field.zero
            for i in range(n):
                acc = acc + elements[i] * self.entries[i][j]
            out.append(acc)
        return tuple(out)


def _int_witness(order: Order, rows: list[list[int]]) -> UnimodularWitness:
    return UnimodularWitness(tuple(tuple(order.from_coords(x, 0) for x in row) for row in rows))


def _text(*elements: QuadElt) -> str:
    """Elements as the command line writes a pair or a vector: (5; 5*w)."""
    return f"({'; '.join(map(str, elements))})"


def _det2(RS: tuple[int, int], mat: list[list[tuple[int, int]]]) -> tuple[int, int]:
    (p, q), (u, v) = mat
    return _dot(RS, p, v, (-q[0], -q[1]), u)


def _split(vec: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """(x, y) of a solution or a relation (x0, x1, y0, y1) of a pair system."""
    return (vec[0], vec[1]), (vec[2], vec[3])


def _transition(pair: GenPair, other: GenPair) -> tuple[
        list[list[tuple[int, int]]], DetClass, list[tuple[tuple[int, int], tuple[int, int]]]]:
    """The coefficient matrix A with pair.elements @ A = other.elements, its entries
    as order coordinates; the class of det A: its first coordinate in Z/(f/f'), a
    unit; and the relations (dx, dy) of the pair. All three come from one
    reduction of the 2x4 system of g1*x + g2*y over the order coordinates of x
    and y: its kernel is a Z-basis of the relations, over which every lift
    A + (relation) is checked to give the same class."""
    if pair.ideal != other.ideal:
        raise UsageError("pairs generate different ideals, no determinant class")
    order = pair.order
    f, RS = order.f, order.gen_sq
    n0 = f // multiplier_conductor(pair.ideal)
    g1, g2 = ((g.a, g.b // f) for g in pair.elements)
    cols = [g1, _dot(RS, g1, (0, 1)), g2, _dot(RS, g2, (0, 1))]
    system = _echelon2([p[0] for p in cols], [p[1] for p in cols])
    sols = []
    for h in other.elements:
        sol = system.solve(h.a, h.b // f)
        check(sol is not None, "{} is not reachable from {}", h, lambda: _text(*pair.elements))
        x, y = _split(sol)
        check(_dot(RS, g1, x, g2, y) == (h.a, h.b // f), "coefficients {} do not reach {}",
              lambda: _text(order.from_coords(*x), order.from_coords(*y)), h)
        sols.append(sol)
    mat = [list(row) for row in zip(*map(_split, sols))]
    cls = DetClass(_det2(RS, mat)[0], n0)
    check(math.gcd(cls.value, n0) == 1, "determinant residue {} mod {} not a unit", cls.value, n0)
    relations = [_split(kern) for kern in system.kernel]
    for kern, (dx, dy) in zip(system.kernel, relations):
        check(_dot(RS, g1, dx, g2, dy) == (0, 0), "{} is not a relation of {}",
              lambda: _text(order.from_coords(*dx), order.from_coords(*dy)),
              lambda: _text(*pair.elements))
        x, y = _split([s + k for s, k in zip(sols[0], kern)])
        check(_det2(RS, [[x, mat[0][1]], [y, mat[1][1]]])[0] % n0 == cls.value,
              "determinant class depends on the lift", name="class-invariance-under-resolve")
    return mat, cls, relations


def det_pair(pair: GenPair, other: GenPair) -> DetClass:
    """Determinant class of the transition from pair to other.

    Both pairs must generate the same ideal. The residue lives in
    Z/(f/f') via the first order coordinate, and is a unit.
    """
    return _transition(pair, other)[1]


def sl2_witness(pair: GenPair, other: GenPair) -> UnimodularWitness:
    """Explicit B in SL2(O_f) with pair.elements @ B = other.elements.

    Exists exactly when the determinant class is 1; raises UsageError
    otherwise. B = A + N, each column of N a combination of the relations
    (dx, dy) = (z*g2, -z*g1), z in (O_f : I), of the pair: one adds z*h2 to
    det A in column 1 and -z*h1 in column 2, and two relations have
    determinant 0. So det B = 1 is an integer system, whose image
    (O_f : I)*I = Fitt_1 holds 1 - det A. B is verified before it is returned.
    """
    if pair.ideal != other.ideal:
        raise UsageError("pairs generate different ideals")
    order = pair.order
    f, RS = order.f, order.gen_sq
    if pair.elements == other.elements:
        return _int_witness(order, [[1, 0], [0, 1]])
    mat, cls, relations = _transition(pair, other)
    if not cls.is_one:
        raise UsageError(f"pairs are not SL2-equivalent, class {cls.value} mod {cls.modulus}")
    det = _det2(RS, mat)
    t = (1 - det[0], -det[1])
    fitting = _fitt1(pair.ideal, f // cls.modulus)
    check(fitting._has(*t), "1 - det A = {} is not in Fitt_1", lambda: order.from_coords(*t))

    (x1, x2), (y1, y2) = mat
    cols = ([_det2(RS, [[dx, x2], [dy, y2]]) for dx, dy in relations]
            + [_det2(RS, [[x1, dx], [y1, dy]]) for dx, dy in relations])
    sol = _echelon2([p[0] for p in cols], [p[1] for p in cols]).solve(*t)
    check(sol is not None, "the relations of {} do not reach 1 - det A = {}",
          lambda: _text(*pair.elements), lambda: order.from_coords(*t))
    ent = [list(row) for row in mat]
    for j, coeffs in enumerate((sol[: len(relations)], sol[len(relations) :])):
        for c, rel in zip(coeffs, relations):
            for i in (0, 1):  # entry + c*(relation entry)
                ent[i][j] = _dot(RS, ent[i][j], (1, 0), rel[i], (c, 0))
    check(_det2(RS, ent) == (1, 0), "witness determinant is not 1", name="determinant-is-one")
    g1, g2, h1, h2 = ((g.a, g.b // f) for g in pair.elements + other.elements)
    check([_dot(RS, g1, ent[0][j], g2, ent[1][j]) for j in (0, 1)] == [h1, h2],
          "witness does not map the first pair to the second", name="witness-maps-pair-to-pair2")
    return UnimodularWitness(tuple(tuple(order.from_coords(*e) for e in row) for row in ent))


def epsilon_subgroup(order: Order, f_prime: int) -> tuple[int, ...]:
    """Residues mod f/f' reachable as determinant classes of unit rescalings of an
    ideal of the order whose multiplier conductor is f' (multiplier_conductor)."""
    n0 = order.f // f_prime
    minus_one = fundamental_unit(order.field, f_prime).has_norm_minus_one
    return tuple(sorted({1 % n0, -1 % n0} if minus_one else {1 % n0}))


def orbit_count_sl2_mod_units(order: Order, f_prime: int) -> int:
    """Number of SL2 orbits, up to unit rescaling, on the generating pairs of an
    ideal of the order whose multiplier conductor is f' (multiplier_conductor)."""
    return euler_phi(order.f // f_prime) // len(epsilon_subgroup(order, f_prime))


def orbit_count_gl2(order: Order, f_prime: int) -> int:
    """Number of GL2 orbits on the generating pairs of an ideal of the order whose
    multiplier conductor is f' (multiplier_conductor): phi(n0), n0 = f/f', over the
    size of the units' image <-1, u> in (Z/n0)^x. u is the first coordinate of
    eps^k mod n0, or 1 in an imaginary field, whose units are +-1 once f > 1 (f = 1
    leaves n0 = 1); the image is <u>, doubled unless -1 is a power of u."""
    n0 = order.f // f_prime
    total = euler_phi(n0)
    info = fundamental_unit(order.field, order.f)
    u = 1 if info.maximal is None else _power_mod(info.maximal, info.power_in_maximal, n0)[0]
    size = _element_order(total, lambda j: pow(u, j, n0) == 1 % n0)
    if n0 > 2 and not (size % 2 == 0 and pow(u, size // 2, n0) == n0 - 1):
        size *= 2
    check(total % size == 0, "the unit image of order {} does not divide phi = {}", size, total)
    return total // size


def reduce_vector(vec: GenVec) -> tuple[GenPair, UnimodularWitness]:
    """Compress a generating vector of length n > 2 to a pair.

    Returns the pair together with an SL_n(Z) witness sigma satisfying
    vec.elements @ sigma = (h1, h2, 0, ..., 0) exactly. sigma is the
    transform of the 2-row reduction of the coordinates (y_i; x_i) of the
    entries over (1, f*omega): its columns past the (at most two) pivots are
    relations of the vector.
    """
    n = len(vec.elements)
    if n <= 2:
        raise UsageError("reduction needs a vector of length at least 3")
    order = vec.order
    xs, ys = zip(*(order.coords(v) for v in vec.elements))
    system = _echelon2(list(ys), list(xs))
    cols = system.u
    if len(system.pivots) == 2:
        # the pivot on x first, so (6; 2+2*w; 4*w) reduces to (2; 2+2*w)
        cols = [cols[1], cols[0], *cols[2:]]
    if det_int(cols) == -1:
        cols[-1] = [-x for x in cols[-1]]  # a kernel column, as n > 2
    sigma = [list(row) for row in zip(*cols)]
    check(det_int(sigma) == 1, "reduction witness is not in SL_n(Z)",
          name="witness-determinant-one")
    # the image of the vector, in coordinates over (1, f*omega): column j of sigma is cols[j]
    image = [(sum(x * k for x, k in zip(xs, col)), sum(y * k for y, k in zip(ys, col)))
             for col in cols]
    check(all(e == (0, 0) for e in image[2:]), "reduction left nonzero trailing entries",
          name="tail-entries-vanish")
    pair = GenPair(order, order.from_coords(*image[0]), order.from_coords(*image[1]))
    check(pair.ideal == vec.ideal, "the reduced pair {} generates {}, not the vector's {}",
          lambda: _text(*pair.elements), pair.ideal, vec.ideal)
    return pair, _int_witness(order, sigma)


def realize_det_class(ideal: QIdeal, residue: int) -> GenPair:
    """A generating pair whose class against the standard pair is residue.

    The standard pair is (gen1, gen2); the result is (gen1, r*gen2) with
    r chosen congruent to residue mod f/f' and coprime to the index of
    the colon ideal (gen1 : gen2), which forces generation.
    """
    order = ideal.order
    f_prime = multiplier_conductor(ideal)
    n0 = order.f // f_prime
    if math.gcd(residue, n0) != 1:
        raise UsageError(f"residue {residue} is not a unit mod {n0}")
    base = GenPair(order, ideal.gen1, ideal.gen2)
    # z -> z*gen2 maps O_f onto I/a*O_f (I = a*O_f + gen2*O_f) with kernel
    # (gen1 : gen2), so the index of the colon is [I : a*O_f] = a^2/(a*e) = a/e
    index = ideal.a // ideal.e
    r = residue if n0 > 1 else 1
    steps = 0
    while math.gcd(r, index) != 1:
        r += n0
        steps += 1
        check(steps <= index + 2, "no coprime representative found")
    pair = GenPair(order, ideal.gen1, ideal.gen2 * r)
    check(pair.ideal == ideal, "the rescaled pair {} generates {}, not {}",
          lambda: _text(*pair.elements), pair.ideal, ideal)
    cls = det_pair(base, pair)
    check(cls.value == residue % n0, "constructed pair realizes {}, wanted {}",
          cls.value, residue % n0)
    return pair
