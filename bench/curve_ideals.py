"""Workload curve-ideals: `curve reduce|fitt1|mult-ring|units` on K[x^2, x^n].

Each input is planted so that its content c and its invariant nu are known:
the generators are l1*c*p and l2*c*(x^(nu+1) + h*p) with p(0) = 1, h in
K[x^2], and nonzero constants l1, l2. The ideal is c*(R*p + R*x^(nu+1)),
and since p(0) = 1 the two generators share no factor beyond c. (A unit
multiplier such as 2 + k*x^2 instead of a constant can add one.) A fixed
list of slots (field, n, nu, operation) covers Q and F_p and odd n from 5 up
to 61, mostly small n with a few large ones; the seed draws c, p, h and the
constants.
"""

from __future__ import annotations

from fractions import Fraction

import oracle as O

BASIC = ("reduce", "fitt1", "mult-ring")
# (prime or 0 for Q, n, nu, operations); units need a finite field, and the
# primes keep q^k (k = (n-1-nu)/2) either small or above the command's own
# brute-force limit of 4000, whose cost grows as q^(2k)
SLOTS = (
    *((0, n, nu, BASIC) for n, nus in ((5, (0, 2)), (7, (2, 4)), (9, (2, 6)), (11, (4, 8)),
                                        (13, (0, 10)), (15, (4, 12)), (17, (6,)))
      for nu in nus),
    *((q, n, nu, BASIC + ("units",)) for q, n, nu in (
        (3, 5, 0), (5, 5, 2), (5, 7, 2), (7, 7, 4), (3, 9, 2), (101, 9, 6), (5, 11, 4),
        (7, 11, 8), (101, 13, 0), (3, 13, 10), (101, 15, 4), (5, 15, 12), (7, 19, 8))),
    (0, 21, 6, BASIC),
    (3, 21, 4, ("reduce", "mult-ring", "units")),
    (0, 31, 10, ("reduce",)),
    (5, 31, 14, ("reduce",)),
    (0, 61, 30, ("reduce",)),
)
QUICK = ((0, 5, 2, "reduce"), (0, 9, 2, "fitt1"), (0, 9, 6, "mult-ring"),
         (5, 7, 2, "units"), (3, 11, 4, "units"), (7, 5, 0, "reduce"))
BRUTE_LIMIT = 125


def _slots() -> list[tuple[int, int, int, str]]:
    return [(q, n, nu, op) for q, n, nu, ops in SLOTS for op in ops]


def _scalar(rng, p: int, nonzero: bool = False):
    while True:
        v = rng.randint(-3, 3) if p == 0 else rng.randrange(p)
        if v or not nonzero:
            return Fraction(v) if p == 0 else v


def _poly(rng, p: int, degree: int, const) -> list:
    return O.poly_trim([const] + [_scalar(rng, p) for _ in range(degree - 1)] + [
        _scalar(rng, p, nonzero=True)], p)


def make_ops(rng, quick: bool) -> list[dict]:
    ops = []
    for p, n, nu, op in (QUICK if quick else _slots()):
        content = O.poly_trim([_scalar(rng, p), _scalar(rng, p), 1], p)
        base = _poly(rng, p, n - 2, 1)
        h = O.poly_trim([_scalar(rng, p), 0, _scalar(rng, p)], p)
        second = O.poly_add([0] * (nu + 1) + [1], O.poly_mul(h, base, p), p)
        gens = [
            O.poly_mul(O.poly_mul(content, [_scalar(rng, p, nonzero=True)], p), poly, p)
            for poly in (base, second)
        ]
        field = "rational" if p == 0 else f"f{p}"
        ops.append({
            "argv": ["curve", op, "--n", str(n), "--field", field,
                     "--gens", "; ".join(O.poly_text(g) for g in gens), "--json"],
            "kind": op, "p": p, "n": n, "nu": nu, "content": content,
        })
    rng.shuffle(ops)
    return ops


def check(op: dict, out: dict) -> list[str]:
    p, n, nu, kind = op["p"], op["n"], op["nu"], op["kind"]
    res = out["result"]
    if kind == "reduce":
        content = O.poly_parse(res["content"], p)
        pp, q = O.poly_parse(res["p"], p), O.poly_parse(res["q"], p)
        if content != op["content"] or int(res["nu"]) != nu:
            return [f"content/nu {res['content']!r}/{res['nu']} != planted {op['content']}/{nu}"]
        if pp[0] != 1 or len(pp) > n - 1 or q != O.poly_trim([0] * (nu + 1) + [1], p):
            return ["canonical pair is not (p, x^(nu+1)) with p(0) = 1"]
    elif kind == "fitt1":
        if int(res["exponent"]) != n - 1 - nu:
            return [f"Fitt_1 exponent {res['exponent']} != n-1-nu = {n - 1 - nu}"]
    elif kind == "mult-ring":
        ring = "K[x]" if nu == 0 else f"K[x^2] + x^{nu}*K[x]"
        if int(res["nu"]) != nu or res["ring"] != ring:
            return [f"multiplier ring {res['ring']!r} != {ring!r}"]
    else:
        k = (n - 1 - nu) // 2
        want = p ** (k - 1) * (p - 1) if k else 1
        if int(res["nu"]) != nu or int(res["count"]) != want:
            return [f"unit count {res['count']} != q^(k-1)(q-1) = {want}"]
        if p ** k <= BRUTE_LIMIT and O.brute_unit_count(p, k) != want:
            return [f"brute unit count {O.brute_unit_count(p, k)} != {want}"]
    return []
