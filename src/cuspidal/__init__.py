"""Exact invariants of ideals in quadratic orders and odd-cusp curve rings.

The package computes standard bases, Fitting ideals, multiplier rings and
determinant classes for ideals of the orders Z + Z*f*omega in a quadratic
field, decides SL2-equivalence of generating pairs with explicit matrix
witnesses, counts cusps of the associated quotients by two independent
routes, and carries the parallel theory for the coordinate rings of the
plane curves y^2 = x^n with n odd.

Importing the package loads none of its modules: each public name is looked
up in its module on first access (PEP 562), so `from cuspidal import
det_pair` loads genpairs and the modules it imports, and nothing of the
curve rings. A module is reached as an attribute once it is imported:
`import cuspidal.genpairs`, or `from cuspidal import genpairs`.
"""

from importlib import import_module

_EXPORTS = {
    "classnum": ("PicSize", "class_number_maximal", "picard_order"),
    "curvering": ("CurveFitt", "CurveIdeal", "CurveOrder", "curve_fitt1",
                  "curve_ideal_from_generators", "curve_multiplier_ring",
                  "curve_ring_contains", "curve_unit_group_order"),
    "cusps": ("CuspBreakdown", "CuspTerm", "cusp_count"),
    "errors": ("InconclusiveError", "InternalCheckError", "UsageError", "ZeroIdealError"),
    "fieldpoly": ("CoeffField", "CurvePoly", "gcd_cofactors", "parse_curve_poly"),
    "genpairs": ("DetClass", "GenPair", "GenVec", "UnimodularWitness", "det_pair",
                 "epsilon_subgroup", "orbit_count_gl2", "orbit_count_sl2_mod_units",
                 "realize_det_class", "reduce_vector", "sl2_witness"),
    "oracles": ("brute_force_pic", "curve_unit_group_brute", "cusp_count_direct"),
    "quadfield": ("QuadElt", "QuadField", "parse_element"),
    "quadideal": ("FracIdeal", "Order", "QIdeal", "QuadForm", "associated_form", "class_key",
                  "enumerate_ideal_classes", "fitt1", "ideal_from_generators",
                  "ideal_inverse", "ideal_mul", "is_same_class", "multiplier_conductor"),
    "units": ("UnitInfo", "fundamental_unit", "unit_index"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module on first access and kept."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
