"""Cusp counts of modular-style quotients for quadratic orders.

The count splits over the divisors f' of the conductor: each multiplier
ring O_f' contributes phi(f/f') Picard-group-many classes, halved when a
norm -1 unit folds a residue onto its negative. The script prints the
breakdown for a few orders and cross-checks the closed formula against
a direct enumeration of ideal classes and generating-pair orbits.
"""

from cuspidal import Order, QuadField, cusp_count
from cuspidal.oracles import cusp_count_direct


def show(m: int, f: int) -> None:
    order = Order(QuadField(m), f)
    breakdown = cusp_count(order)
    print(f"{order}:")
    for t in breakdown.terms:
        half = " (halved by the norm -1 unit)" if t.halved else ""
        print(
            f"  f' = {t.f_prime}:  phi({t.n0})"
            f"{'/2' if t.halved else ''} * |Pic| = {t.contribution}{half}"
        )
    direct = cusp_count_direct(order)
    tag = "agrees with" if direct == breakdown.total else "DISAGREES with"
    print(f"  total {breakdown.total}, {tag} the orbit enumeration ({direct})")
    print()


if __name__ == "__main__":
    print("imaginary fields: no halving, the count stacks Picard sizes\n")
    show(-3, 4)
    show(-1, 6)
    print("real fields: halving depends on the norm of the fundamental unit\n")
    show(5, 6)   # norm -1 exists, quotients above 2 are halved
    show(3, 8)   # norm -1 does not exist, nothing is halved
    show(10, 6)
