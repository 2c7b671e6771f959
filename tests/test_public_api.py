"""The public API is the literal list below: adding, removing or renaming an
exported name shows up as a diff of this file."""

import ast
from pathlib import Path

import cuspidal

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(cuspidal.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in cuspidal.__all__ if not hasattr(cuspidal, name)]
    assert missing == []
    assert len(set(cuspidal.__all__)) == len(cuspidal.__all__)


def test_the_command_line_imports_no_underscored_name():
    """cli.py reaches the library through its public names only."""
    cli = Path(__file__).resolve().parent.parent / "src" / "cuspidal" / "cli.py"
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "cuspidal")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
