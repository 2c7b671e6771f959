"""Exact invariants of ideals in quadratic orders and odd-cusp curve rings.

The package computes standard bases, Fitting ideals, multiplier rings and
determinant classes for ideals of the orders Z + Z*f*omega in a quadratic
field, decides SL2-equivalence of generating pairs with explicit matrix
witnesses, counts cusps of the associated quotients by two independent
routes, and carries the parallel theory for the coordinate rings of the
plane curves y^2 = x^n with n odd.
"""

from .classnum import PicSize, class_number_maximal, picard_order
from .curvering import (
    CurveFitt,
    CurveIdeal,
    CurveOrder,
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_ring_contains,
    curve_unit_group_order,
)
from .cusps import CuspBreakdown, CuspTerm, cusp_count
from .errors import InconclusiveError, InternalCheckError, UsageError, ZeroIdealError
from .fieldpoly import CoeffField, CurvePoly, gcd_cofactors, parse_curve_poly
from .genpairs import (
    DetClass,
    GenPair,
    GenVec,
    UnimodularWitness,
    det_pair,
    epsilon_subgroup,
    orbit_count_gl2,
    orbit_count_sl2_mod_units,
    realize_det_class,
    reduce_vector,
    sl2_witness,
)
from .oracles import brute_force_pic, conductor_h_solver, curve_unit_group_brute, cusp_count_direct
from .quadfield import OmegaKind, QuadElt, QuadField, parse_element
from .quadideal import (
    FracIdeal,
    Order,
    QIdeal,
    QuadForm,
    associated_form,
    class_key,
    enumerate_ideal_classes,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    is_same_class,
    multiplier_conductor,
)
from .units import UnitInfo, fundamental_unit, unit_index

__all__ = [
    "CoeffField",
    "CurveFitt",
    "CurveIdeal",
    "CurveOrder",
    "CurvePoly",
    "CuspBreakdown",
    "CuspTerm",
    "DetClass",
    "FracIdeal",
    "GenPair",
    "GenVec",
    "InconclusiveError",
    "InternalCheckError",
    "OmegaKind",
    "Order",
    "PicSize",
    "QIdeal",
    "QuadElt",
    "QuadField",
    "QuadForm",
    "UnimodularWitness",
    "UnitInfo",
    "UsageError",
    "ZeroIdealError",
    "associated_form",
    "brute_force_pic",
    "class_key",
    "class_number_maximal",
    "conductor_h_solver",
    "curve_fitt1",
    "curve_ideal_from_generators",
    "curve_multiplier_ring",
    "curve_ring_contains",
    "curve_unit_group_brute",
    "curve_unit_group_order",
    "cusp_count",
    "cusp_count_direct",
    "det_pair",
    "enumerate_ideal_classes",
    "epsilon_subgroup",
    "fitt1",
    "fundamental_unit",
    "gcd_cofactors",
    "ideal_from_generators",
    "ideal_inverse",
    "ideal_mul",
    "is_same_class",
    "multiplier_conductor",
    "orbit_count_gl2",
    "orbit_count_sl2_mod_units",
    "parse_curve_poly",
    "parse_element",
    "picard_order",
    "realize_det_class",
    "reduce_vector",
    "sl2_witness",
    "unit_index",
]

__version__ = "0.1.0"
