"""Workload cusp-table: `cusps --m M --f F` over a fixed grid of orders.

The grid spans imaginary and real fields and conductors up to 24 and runs
in one session, so the picard_order and fundamental_unit caches carry from
cell to cell as they would when a table is computed. Cells with f <= 4 keep
the default direct cross-check (class enumeration and orbit counts); larger
f pass --no-check. A table is filled row by row: the seed fixes the order
of the fields, and each field runs its conductors in ascending order, so a
cell's Picard sizes for smaller conductors are already cached. The cells,
and so the work of a pass, are the same for every seed.
"""

from __future__ import annotations

import oracle as O

IMAGINARY = (-1, -2, -3, -5, -7, -11, -15, -23, -47, -71)
REAL = (2, 3, 5, 6, 7, 10, 79, 94, 223)
CONDUCTORS = (1, 2, 3, 4, 6, 8, 12, 16, 24)
CHECKED_UP_TO = 4
QUICK = ((-5, 1), (-5, 4), (-71, 6), (10, 1), (79, 2), (2, 12))


def make_ops(rng, quick: bool) -> list[dict]:
    fields = list(IMAGINARY + REAL)
    rng.shuffle(fields)
    cells = list(QUICK) if quick else [(m, f) for m in fields for f in CONDUCTORS]
    ops = []
    for m, f in cells:
        argv = ["cusps", "--m", str(m), "--f", str(f), "--json"]
        if f > CHECKED_UP_TO:
            argv.append("--no-check")
        ops.append({"argv": argv, "m": m, "f": f})
    return ops


def check(op: dict, out: dict) -> list[str]:
    m, f = op["m"], op["f"]
    res = out["result"]
    errors = []
    terms = res["terms"]
    if [int(t["f_prime"]) for t in terms] != O.divisors(f):
        errors.append("terms do not run over the divisors of f")
        return errors
    total = 0
    for t in terms:
        fp = int(t["f_prime"])
        n0 = f // fp
        pic = O.pic_order(m, fp)
        if m < 0:
            forms = O.reduced_form_count(fp * fp * O.disc_max(m))
            assert forms == pic, "oracle routes disagree"
        if fp == 1 and m > 0 and pic != O.REAL_CLASS_NUMBERS[m]:
            errors.append("class number differs from the table")
        halved = O.has_norm_minus_one(m, fp) and n0 > 2
        share = O.phi(n0) // (2 if halved else 1) * pic
        got = (int(t["n0"]), int(t["phi"]), t["halved"], int(t["pic"]), int(t["contribution"]))
        if got != (n0, O.phi(n0), halved, pic, share):
            errors.append(f"term f'={fp}: got {got}, expected {(n0, O.phi(n0), halved, pic, share)}")
        total += share
    if int(res["total"]) != total:
        errors.append(f"total {res['total']} != {total}")
    if f <= CHECKED_UP_TO and not any(
        a["name"] == "direct-count-agreement" and a["status"] == "pass"
        for a in out["assertions"]
    ):
        errors.append("direct route did not agree with the formula")
    return errors
