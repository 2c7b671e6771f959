"""Ideal reduction in the coordinate ring K[x^2, x^n] of a cusp curve.

Finitely generated nonzero ideals collapse, after pulling out a content
polynomial, to a canonical pair (p, q) with p(0) = 1 and q a monomial
whose exponent records the multiplier ring. The script reduces a few
ideals over Q and over F_5, prints the Fitting ideal in closed form,
and counts units of the quotient over the finite field.
"""

from cuspidal import (
    CoeffField,
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_unit_group_order,
    parse_curve_poly,
)
from cuspidal.oracles import curve_unit_group_brute


def show(field: CoeffField, n: int, texts: list[str]) -> None:
    gens = [parse_curve_poly(field, t) for t in texts]
    ideal = curve_ideal_from_generators(field, n, gens)
    print(f"I = <{'; '.join(texts)}> in {field.name}[x^2, x^{n}]")
    print(f"  content {ideal.content},  p = {ideal.p},  q = {ideal.q},  nu = {ideal.nu}")
    print(f"  multiplier ring {curve_multiplier_ring(ideal)}")
    print(f"  Fitt_1 = {curve_fitt1(ideal)}")
    print()


if __name__ == "__main__":
    q_field = CoeffField(0)
    show(q_field, 5, ["1", "x^3"])
    show(q_field, 5, ["2 + 2*x", "x^3 + x^4"])   # content (1 + x) pulled out
    show(q_field, 3, ["1 + x", "x^2"])           # invertible yet not free
    show(q_field, 7, ["1 + x^2", "x^5 + x^6"])
    show(q_field, 5, ["1 + x"])                  # one generator: content, unit ideal

    f5 = CoeffField(5)
    show(f5, 7, ["1", "x^3"])
    print("unit groups of O/Fitt_1 over F_5, formula vs exhaustion:")
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            formula = curve_unit_group_order(f5, n, nu)
            brute = curve_unit_group_brute(f5, n, nu)
            marker = "ok" if formula == brute else "MISMATCH"
            print(f"  n = {n}, nu = {nu}: {formula}  [{marker}]")
