"""The public API is the literal list below: adding, removing or renaming an
exported name shows up as a diff of this file."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert set(cuspidal.__all__) <= set(dir(cuspidal))
    assert len(set(cuspidal.__all__)) == len(cuspidal.__all__)


def test_the_command_line_imports_no_underscored_name():
    """cli.py reaches the library through its public names only, at module level
    and through the modules each handler imports when it runs."""
    cli = Path(__file__).resolve().parent.parent / "src" / "cuspidal" / "cli.py"
    tree = ast.parse(cli.read_text())
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "cuspidal")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    modules = {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("cuspidal.")}
    assert modules == {"classnum", "curvering", "cusps", "fieldpoly", "genpairs", "oracles",
                       "units"}
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []


# ---------------------------------------------------------------------------
# the import boundary, each case in a fresh interpreter, so that what this
# test process has imported cannot mask a module a command loads

_CORE = {"cli", "config", "errors", "value", "arith", "quadfield", "quadideal"}
_CURVE_STACK = {"curvering", "fieldpoly"}
_CLASS_STACK = {"classnum", "cusps"}
_REPORT = "import sys; print('loaded:', *sorted(sys.modules))"


def _modules_after(code: str, *flags: str) -> set[str]:
    """The modules loaded after running code in a new interpreter started with flags."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"{code}\n{_REPORT}"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def _loaded_after(code: str) -> set[str]:
    """The submodules of cuspidal loaded after running code in a new interpreter."""
    return {m[9:] for m in _modules_after(code) if m[:9] == "cuspidal."}


def _mains(*argvs: list[str]) -> str:
    return "from cuspidal.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in argvs)


_PAIR = ["--m", "-1", "--f", "5", "--pair", "5; 5*w", "--pair2", "5*w; -5"]
_IDEAL = ["--m", "-5", "--f", "3", "--gens", "3; 3*w"]


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import cuspidal") == set()


def test_the_command_line_loads_only_the_quadratic_core():
    assert _loaded_after("import cuspidal.cli") == _CORE
    # nor typing, nor fractions with decimal and numbers, which only a coefficient
    # written with '/' needs; -S keeps out what site imports on its own
    stdlib = _modules_after("import cuspidal.cli", "-S")
    assert not stdlib & {"typing", "fractions", "decimal", "numbers"}
    # the json package only when a --json payload is written
    assert not {m for m in stdlib if m.startswith("json") or m == "_json"}
    assert "json" in _modules_after(_mains(["unit", "--m", "7", "--f", "3", "--json"]), "-S")
    assert "fractions" in _modules_after(
        "from cuspidal.quadfield import QuadField, parse_element\n"
        "parse_element(QuadField(5), '1/2+1/2*s')", "-S")


def test_a_curve_command_loads_no_quadratic_operation():
    loaded = _loaded_after(_mains(["curve", "reduce", "--n", "5", "--gens", "1; x^3"]))
    assert loaded == _CORE | _CURVE_STACK
    assert not loaded & {"genpairs", "units", "classnum", "cusps"}
    # the unit count's exhaustive check finds det_int in arith, not in genpairs
    loaded = _loaded_after(_mains(["curve", "units", "--n", "11", "--field", "f5",
                                   "--gens", "1; x^5"]))
    assert loaded == _CORE | _CURVE_STACK | {"oracles"}
    assert not loaded & {"genpairs", "units", "classnum", "cusps"}


def test_pair_vector_unit_and_ideal_commands_load_no_curve_or_class_number_code():
    loaded = _loaded_after(_mains(
        *(["pair", op, *_PAIR] for op in ("det", "equiv", "witness")),
        ["vec", "reduce", "--m", "-3", "--f", "2", "--gens", "6; 2+2*w; 4*w"],
        ["unit", "--m", "7", "--f", "3"],
        *(["ideal", op, *_IDEAL] for op in ("std-basis", "norm", "fitt1", "inverse", "mult-ring")),
    ))
    assert {"genpairs", "units"} <= loaded
    assert not loaded & (_CURVE_STACK | _CLASS_STACK)


@pytest.mark.parametrize("argv, stack", [
    (["cusps", "--m", "-5", "--f", "4"], {"classnum", "cusps", "oracles"}),
    (["pic", "--m", "-5", "--f", "3", "--brute"], {"classnum", "oracles"}),
], ids=["cusps", "pic"])
def test_a_cusp_or_picard_command_loads_no_curve_code(argv, stack):
    loaded = _loaded_after(_mains(argv))
    assert stack <= loaded
    assert not loaded & _CURVE_STACK


def test_a_star_import_binds_every_public_name():
    code = "from cuspidal import *\nassert all(n in globals() for n in " + repr(PUBLIC_NAMES) + ")"
    assert _loaded_after(code) >= _CORE - {"cli"} | _CURVE_STACK | _CLASS_STACK
