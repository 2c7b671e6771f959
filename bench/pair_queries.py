"""Workload pair-queries: many small single queries on seeded ideals.

A fixed list of orders (m, f) with f up to 30, in imaginary and real
fields, each gets one planted ideal and ten queries: `ideal std-basis`,
`fitt1`, `inverse` and `mult-ring`, `pair det` twice, `pair equiv`,
`pair witness`, `vec reduce` and `unit`. The ideal is s*(Z*c + Z*f*w) for
a divisor c of f, so its multiplier ring is O_(f/c), given by generators
(s*c, s*(f*w + t*c)). The second and third pairs are the first pair times
planted matrices: Q = P*M and R = Q*diag(1, -1)*M' with M, M' products
of elementary matrices over O_f. The seed draws c, s, t, M, M' and the
order of the queries; the list of orders and query kinds is fixed, so a
pass does about the same work for every seed.
"""

from __future__ import annotations

import math

import oracle as O

IMAGINARY = (-1, -2, -3, -5, -6, -7, -10, -11, -14, -15, -19, -23)
REAL = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21)
CONDUCTORS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30)
CASES = 24
QUICK_CASES = 2


def _cases(count: int) -> list[tuple[int, int]]:
    fields = [m for pair in zip(IMAGINARY, REAL) for m in pair]
    return [(fields[i % len(fields)], CONDUCTORS[i % len(CONDUCTORS)]) for i in range(count)]


def _small(rng, f: int, lo: int = 0) -> tuple[int, int]:
    """A small nonzero element x + y*f*w of O_f with y >= lo."""
    while True:
        x, y = rng.randint(-4, 4), rng.randint(lo, 2)
        if x or y:
            return x, y * f


def _times_matrix(m: int, pair: tuple, mat: tuple) -> tuple:
    """Row vector times a 2x2 matrix over the order."""
    (g1, g2), ((a, b), (c, d)) = pair, mat
    return (
        O.w_add(O.w_mul(m, g1, a), O.w_mul(m, g2, c)),
        O.w_add(O.w_mul(m, g1, b), O.w_mul(m, g2, d)),
    )


def _sl2(rng, m: int, f: int) -> tuple:
    """A product of three elementary matrices over O_f, never the identity."""
    one, zero = (1, 0), (0, 0)
    mat = ((one, zero), (zero, one))
    for k in range(3):
        beta = _small(rng, f)
        step = ((one, beta), (zero, one)) if k % 2 == 0 else ((one, zero), (beta, one))
        mat = tuple(
            tuple(
                O.w_add(O.w_mul(m, mat[i][0], step[0][j]), O.w_mul(m, mat[i][1], step[1][j]))
                for j in range(2)
            )
            for i in range(2)
        )
    return mat


def _text(elements) -> str:
    return "; ".join(O.w_text(g) for g in elements)


def make_ops(rng, quick: bool) -> list[dict]:
    ops = []
    for case, (m, f) in enumerate(_cases(QUICK_CASES if quick else CASES)):
        c = rng.choice(O.divisors(f))
        s = _small(rng, f)
        t = _small(rng, f, lo=0)
        pair = (O.w_mul(m, s, (c, 0)), O.w_mul(m, s, O.w_add((0, f), O.w_mul(m, t, (c, 0)))))
        q = _times_matrix(m, pair, _sl2(rng, m, f))
        flipped = (q[0], (-q[1][0], -q[1][1]))
        r = _times_matrix(m, flipped, _sl2(rng, m, f))
        alpha, beta = _small(rng, f), _small(rng, f)
        third = O.w_add(O.w_mul(m, alpha, pair[0]), O.w_mul(m, beta, pair[1]))
        order = ["--m", str(m), "--f", str(f), "--json"]
        plant = {"case": case, "m": m, "f": f, "c": c, "pair": pair}
        gens = ["--gens", _text(pair)]
        for op in ("std-basis", "fitt1", "inverse", "mult-ring"):
            ops.append({"argv": ["ideal", op, *order, *gens], "kind": op, **plant})
        for kind, link, first, second in (("det", "PQ", pair, q), ("det", "QR", q, r),
                                          ("equiv", "PR", pair, r), ("witness", "PQ", pair, q)):
            ops.append({
                "argv": ["pair", kind, *order, "--pair", _text(first), "--pair2", _text(second)],
                "kind": kind, "link": link, "first": first, "second": second,
                "expect": 1 if link == "PQ" else -1, **plant,
            })
        ops.append({
            "argv": ["vec", "reduce", *order, "--gens", _text(pair + (third,))],
            "kind": "vec", "vec": pair + (third,), **plant,
        })
        ops.append({"argv": ["unit", *order], "kind": "unit", **plant})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checks


def _basis(res: dict) -> tuple[int, int, int]:
    return int(res["a"]), int(res["d"]), int(res["e"])


def _conductor_of(op: dict) -> tuple[tuple[int, int, int], int, int]:
    m, f = op["m"], op["f"]
    basis = O.ideal_basis(m, f, list(op["pair"]))
    fp = O.multiplier_conductor(m, f, basis)
    if fp != f // op["c"]:
        raise AssertionError("planted multiplier ring is not the computed one")
    return basis, fp, f // fp


def _unit_residues(m: int, f: int, n0: int) -> set[int]:
    gens = {-1 % n0}
    if m > 0:
        gens.add(O.unit_in_w(m, O.order_unit(m, f)[1])[0] % n0)
    group, grown = {1 % n0}, True
    while grown:
        new = {x * g % n0 for x in group for g in gens} - group
        group |= new
        grown = bool(new)
    return group


def check(op: dict, out: dict) -> list[str]:
    m, f, kind = op["m"], op["f"], op["kind"]
    res = out["result"]
    basis, fp, n0 = _conductor_of(op)
    if kind == "std-basis":
        if _basis(res) != basis or int(res["norm"]) != basis[0] * basis[2]:
            return [f"standard basis {_basis(res)} != {basis}"]
    elif kind == "fitt1":
        if _basis(res) != (n0, 0, 1):
            return [f"Fitt_1 {_basis(res)} != {(n0, 0, 1)}; |R/Fitt_1| must be f/f' = {n0}"]
    elif kind == "inverse":
        num, den = _basis(res["num"]), int(res["den"])
        conj = O.std_basis([O.coords(f, O.w_conj(m, g)) for g in O.basis_elements(f, basis)])
        norm = basis[0] * basis[2]
        g = math.gcd(*conj, norm)
        want = (tuple(v // g for v in conj), norm // g)
        if (num, den) != want:
            return [f"inverse {(num, den)} != {want}"]
        product = O.ideal_basis(
            m, f, [O.w_mul(m, x, y) for x in O.basis_elements(f, basis)
                   for y in O.basis_elements(f, num)]
        )
        if product != (den * n0, 0, den):
            return [f"I * I^-1 = {product}, not den * Fitt_1"]
    elif kind == "mult-ring":
        halved = O.has_norm_minus_one(m, fp) and n0 > 2
        eps = sorted({1 % n0, -1 % n0} if O.has_norm_minus_one(m, fp) else {1 % n0})
        want = (fp, n0, eps, O.phi(n0) // (2 if halved else 1),
                O.phi(n0) // len(_unit_residues(m, f, n0)))
        got = (int(res["f_prime"]), int(res["n0"]), [int(x) for x in res["epsilon_subgroup"]],
               int(res["sl2_orbits"]), int(res["gl2_orbits"]))
        if got != want:
            return [f"multiplier ring {got} != {want}"]
    elif kind in ("det", "equiv"):
        want = op["expect"] % n0
        if (int(res["value"]), int(res["modulus"])) != (want, n0):
            return [f"det class {res['value']} mod {res['modulus']} != {want} mod {n0}"]
        if kind == "equiv" and res["equivalent"] != (want == 1 % n0):
            return ["equivalence verdict contradicts the class"]
    elif kind == "witness":
        rows = [[O.w_parse(x) for x in row] for row in res["matrix"]["rows"]]
        det = O.w_add(O.w_mul(m, rows[0][0], rows[1][1]),
                      O.w_mul(m, (-1, 0), O.w_mul(m, rows[0][1], rows[1][0])))
        image = _times_matrix(m, op["first"], (tuple(rows[0]), tuple(rows[1])))
        if det != (1, 0) or image != op["second"]:
            return ["witness is not in SL2 or does not map pair to pair2"]
        if any(x[1] % f for row in rows for x in row):
            return ["witness entry outside the order"]
    elif kind == "vec":
        sigma = [[O.w_parse(x) for x in row] for row in res["matrix"]["rows"]]
        if any(x[1] for row in sigma for x in row):
            return ["reduction witness is not an integer matrix"]
        ints = [[x[0] for x in row] for row in sigma]
        vec = op["vec"]
        image = [
            (sum(vec[i][0] * ints[i][j] for i in range(len(vec))),
             sum(vec[i][1] * ints[i][j] for i in range(len(vec))))
            for j in range(len(vec))
        ]
        reduced = [O.w_parse(x) for x in res["pair"]]
        if O.det_int(ints) != 1 or any(v != (0, 0) for v in image[2:]):
            return ["reduction witness is not in SL_n(Z) or leaves a tail"]
        if image[:2] != reduced or O.ideal_basis(m, f, reduced) != basis:
            return ["reduced pair is not the image or does not generate the ideal"]
    elif kind == "unit":
        return _check_unit(m, f, res)
    return []


def _check_unit(m: int, f: int, res: dict) -> list[str]:
    if m < 0:
        torsion = {-1: 4, -3: 6}.get(m, 2) if f == 1 else 2
        want = (None, torsion, False, {-1: 2, -3: 3}.get(m, 1) if f > 1 else 1)
        got = (res["fundamental"], int(res["torsion_order"]), res["has_norm_minus_one"],
               int(res.get("index_in_maximal", 1)))
    else:
        k, tu, norm = O.order_unit(m, f)
        want = (O.unit_in_w(m, tu), k, norm == -1, k)
        got = (O.w_parse(res["fundamental"]), int(res["power_in_maximal"]),
               res["has_norm_minus_one"], int(res.get("index_in_maximal", 1)))
    if got != want:
        return [f"unit data {got} != {want}"]
    return []


def check_pass(ops: list[dict], outs: list) -> list[str]:
    """Determinant classes multiply: class(P, Q) * class(Q, R) = class(P, R)."""
    classes: dict[int, dict[str, tuple[int, int]]] = {}
    for op, out in zip(ops, outs):
        if out is not None and op["kind"] in ("det", "equiv"):
            res = out["result"]
            classes.setdefault(op["case"], {})[op["link"]] = (int(res["value"]),
                                                             int(res["modulus"]))
    errors = []
    for case, got in classes.items():
        if len(got) == 3:
            (pq, n0), (qr, _), (pr, _) = got["PQ"], got["QR"], got["PR"]
            if pq * qr % n0 != pr % n0:
                errors.append(f"case {case}: classes {pq} * {qr} != {pr} mod {n0}")
    return errors
