"""Fundamental units of quadratic orders and the norm -1 question.

For real fields the unit group of O_f is generated by torsion and one
fundamental unit, found by walking the rho-cycle of the principal binary
quadratic form. Whether some unit has norm -1 decides the halving in cusp
counts. Imaginary fields only carry torsion. The script also shows how
the fundamental unit of a suborder sits inside the maximal order's.
"""

from cuspidal import Order, QuadField, fundamental_unit, picard_order, unit_index


def show(m: int, f: int = 1) -> None:
    field = QuadField(m)
    info = fundamental_unit(field, f)
    print(f"O_{f} in Q(sqrt({m})):")
    if info.fundamental is None:
        print(f"  torsion only: {info.torsion_gen} of order {info.torsion_order}")
    else:
        eps = info.fundamental
        print(f"  fundamental unit {eps}, norm {eps.norm()}")
        if f > 1:
            print(
                f"  equals the maximal-order unit to the power {info.power_in_maximal};"
                f" unit-group index {unit_index(field, f)}"
            )
    print(f"  norm -1 unit exists: {'yes' if info.has_norm_minus_one else 'no'}")
    print(f"  |Pic(O_{f})| = {picard_order(Order(field, f)).h}")
    print()


if __name__ == "__main__":
    for m in (2, 3, 5, 6, 7, 10, 13):
        show(m)
    print("suborders: the fundamental unit climbs to a power\n")
    show(5, 6)
    show(13, 2)
    show(2, 3)
    print("imaginary fields\n")
    show(-1)
    show(-3)
    show(-5)
