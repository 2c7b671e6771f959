"""Generating pairs of an ideal under the SL2 action of the order.

Two generating pairs of the same ideal differ by a GL2 change of basis;
its determinant, read in (O_f / Fitt_1(I))^x, is a complete invariant
for the SL2 action. The script computes determinant classes, produces
explicit SL2 witnesses when the classes agree, and counts the orbits.
"""

from cuspidal import (
    GenPair,
    Order,
    QuadField,
    det_pair,
    epsilon_subgroup,
    ideal_from_generators,
    multiplier_conductor,
    orbit_count_gl2,
    orbit_count_sl2_mod_units,
    realize_det_class,
    sl2_witness,
)


def main() -> None:
    order = Order(QuadField(-1), 5)
    ideal = ideal_from_generators(
        order, [order.from_coords(5, 0), order.from_coords(0, 1)]
    )
    print(f"I = Z*{ideal.gen1} + Z*({ideal.gen2}) in {order}")
    f_prime = multiplier_conductor(ideal)
    n0 = order.f // f_prime
    print(f"multiplier conductor f' = {f_prime}, so classes live in (Z/{n0})^x\n")

    base = GenPair(order, ideal.gen1, ideal.gen2)
    rotated = GenPair(order, ideal.gen2, -ideal.gen1)
    cls = det_pair(base, rotated)
    print(f"pair (g2, -g1) against (g1, g2): det class {cls.value} mod {cls.modulus}")
    witness = sl2_witness(base, rotated)
    print("SL2 witness rows:", [tuple(str(x) for x in row) for row in witness.entries])
    moved = witness.apply_to(base.elements)
    assert moved == rotated.elements and witness.det() == order.field.one
    print("witness verified: base @ B = rotated, det B = 1\n")

    swapped = GenPair(order, ideal.gen2, ideal.gen1)
    cls = det_pair(base, swapped)
    print(f"swapped pair: det class {cls.value} mod {cls.modulus} (not the identity),")
    print("so no SL2 witness exists; the swap needs determinant -1\n")

    print("every unit residue is the class of some pair:")
    for r in (1, 2, 3, 4):
        pair = realize_det_class(ideal, r)
        cls = det_pair(base, pair)
        print(f"  residue {r}: pair ({pair.g1}; {pair.g2}) has class {cls.value}")

    eps = epsilon_subgroup(order, f_prime)
    print(f"\nepsilon subgroup (classes of multiplier-ring units): {set(eps)}")
    print(f"SL2 x units orbits: {orbit_count_sl2_mod_units(order, f_prime)}")
    print(f"GL2 orbits:        {orbit_count_gl2(order, f_prime)}")


if __name__ == "__main__":
    main()
