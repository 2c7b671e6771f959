import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from cuspidal import arith, classnum, cli, genpairs, quadfield, quadideal, units
from cuspidal.arith import is_prime
from cuspidal.classnum import class_number_maximal
from cuspidal.cli import main
from cuspidal.errors import InternalCheckError
from cuspidal.genpairs import GenPair
from cuspidal.quadfield import QuadField, parse_element
from cuspidal.quadideal import Order
from cuspidal.units import fundamental_unit


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _clear_memos():
    """Empty every memo of the package, as bench/run.py's reset_caches does."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspidal"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def fresh_memos():
    _clear_memos()
    yield
    _clear_memos()


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--json"])
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == {"schema", "command", "inputs", "result", "assertions"}
    assert payload["schema"] == 1
    for entry in payload["assertions"]:
        assert entry["status"] == "pass"
    return payload


def test_cusps_breakdown_real_field(capsys):
    payload = _run_json(capsys, ["cusps", "--m", "5", "--f", "6"])
    assert payload["result"]["total"] == "4"
    terms = {t["f_prime"]: t for t in payload["result"]["terms"]}
    assert terms["1"]["halved"] is True
    assert terms["3"]["halved"] is False
    assert terms["1"]["contribution"] == "1"
    assert {e["name"] for e in payload["assertions"]} == {"direct-count-agreement"}


def test_cusps_breakdown_imaginary_field(capsys):
    code, out, err = _run(capsys, ["cusps", "--m", "-3", "--f", "4"])
    assert code == 0
    assert "cusp count" in out and ": 5" in out.splitlines()[0]
    assert "[pass] direct-count-agreement" in out


def test_cusps_no_check_skips_the_cross_check(capsys):
    payload = _run_json(capsys, ["cusps", "--m", "5", "--f", "6", "--no-check"])
    assert payload["assertions"] == []


def test_pic_with_brute_force_cross_check(capsys):
    payload = _run_json(capsys, ["pic", "--m", "-5", "--f", "3", "--brute"])
    assert payload["result"]["h"] == "4"
    assert {e["name"] for e in payload["assertions"]} == {"enumeration-agreement"}


def test_unit_report(capsys):
    payload = _run_json(capsys, ["unit", "--m", "13", "--f", "2"])
    result = payload["result"]
    assert result["fundamental"] == "13+10*w"
    assert result["power_in_maximal"] == "3"
    assert result["index_in_maximal"] == "3"
    assert result["has_norm_minus_one"] is True
    assert result["torsion_order"] == "2"


def test_unit_imaginary_is_torsion_only(capsys):
    payload = _run_json(capsys, ["unit", "--m", "-1", "--f", "1"])
    assert payload["result"]["fundamental"] is None
    assert payload["result"]["torsion_order"] == "4"


def test_ideal_standard_basis(capsys):
    payload = _run_json(
        capsys, ["ideal", "std-basis", "--m", "-3", "--f", "2", "--gens", "2; 2*w"]
    )
    result = payload["result"]
    assert (result["a"], result["d"], result["e"]) == ("2", "0", "1")
    assert result["norm"] == "2"


def test_ideal_fitting_and_inverse(capsys):
    args = ["--m", "-3", "--f", "2", "--gens", "2; 2*w"]
    payload = _run_json(capsys, ["ideal", "fitt1"] + args)
    assert payload["result"]["norm"] == "2"
    payload = _run_json(capsys, ["ideal", "inverse"] + args)
    assert {e["name"] for e in payload["assertions"]} == {"product-is-fitting-ideal"}


def test_ideal_multiplier_ring_and_orbits(capsys):
    payload = _run_json(
        capsys, ["ideal", "mult-ring", "--m", "-1", "--f", "5", "--gens", "5; 5*w"]
    )
    result = payload["result"]
    assert result["f_prime"] == "1"
    assert result["n0"] == "5"
    assert result["epsilon_subgroup"] == ["1"]
    assert result["sl2_orbits"] == "4"
    assert result["gl2_orbits"] == "2"


def test_pair_det_equiv_witness(capsys):
    base = ["--m", "-1", "--f", "5", "--pair", "5; 5*w"]
    payload = _run_json(capsys, ["pair", "det"] + base + ["--pair2", "5*w; -5"])
    assert payload["result"]["value"] == "1"
    assert payload["result"]["modulus"] == "5"
    payload = _run_json(capsys, ["pair", "equiv"] + base + ["--pair2", "5*w; -5"])
    assert payload["result"]["equivalent"] is True
    payload = _run_json(capsys, ["pair", "witness"] + base + ["--pair2", "5*w; -5"])
    assert payload["result"]["matrix"]["rows"] == [["0", "-1"], ["1", "0"]]
    # the swapped pair has determinant class -1, never SL2-reachable here
    payload = _run_json(capsys, ["pair", "equiv"] + base + ["--pair2", "5*w; 5"])
    assert payload["result"]["equivalent"] is False


def test_vector_reduction(capsys):
    payload = _run_json(
        capsys, ["vec", "reduce", "--m", "-3", "--f", "2", "--gens", "6; 2+2*w; 4*w"]
    )
    assert payload["result"]["pair"] == ["2", "2+2*w"]
    rows = payload["result"]["matrix"]["rows"]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert {e["name"] for e in payload["assertions"]} == {
        "witness-determinant-one",
        "tail-entries-vanish",
    }


def test_vector_reduction_builds_the_vectors_ideal_once(capsys, monkeypatch):
    # GenVec builds the vector's ideal, and the reduced pair its own, which
    # reduce_vector checks against it; the handler builds none
    calls = []
    real = quadideal.ideal_from_generators

    def counted(order, gens):
        calls.append([str(g) for g in gens])
        return real(order, gens)

    monkeypatch.setattr(genpairs, "ideal_from_generators", counted)
    monkeypatch.setattr(cli, "ideal_from_generators", counted)
    code, out, err = _run(capsys, ["vec", "reduce", "--m", "-3", "--f", "2",
                                   "--gens", "6; 2+2*w; 4*w"])
    assert code == 0, err
    assert calls == [["6", "2+2*w", "4*w"], ["2", "2+2*w"]]


@pytest.mark.parametrize("gens,message", [
    ("2", "a generating vector needs at least two entries"),
    ("2; 1+w", "reduction needs a vector of length at least 3"),
], ids=["one-element", "two-elements"])
def test_vector_reduction_needs_three_elements(capsys, gens, message):
    code, out, err = _run(capsys, ["vec", "reduce", "--m", "-1", "--gens", gens])
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"


def test_curve_reduce_and_fitting(capsys):
    base = ["--n", "5", "--gens", "2 + 2*x; x^3 + x^4"]
    payload = _run_json(capsys, ["curve", "reduce"] + base)
    result = payload["result"]
    assert result["content"] == "1 + x"
    assert result["p"] == "1"
    assert result["q"] == "x^3"
    assert result["nu"] == "2"
    payload = _run_json(capsys, ["curve", "fitt1"] + base)
    assert payload["result"]["exponent"] == "2"
    payload = _run_json(capsys, ["curve", "mult-ring"] + base)
    assert payload["result"]["nu"] == "2"


def test_curve_unit_count_over_f5(capsys):
    payload = _run_json(
        capsys, ["curve", "units", "--n", "7", "--field", "f5", "--gens", "1; x^3"]
    )
    assert payload["result"]["count"] == "20"
    assert {e["name"] for e in payload["assertions"]} >= {"brute-force-agreement"}


# output of the Fraction/FpElt implementation, compacted: the integer storage
# of CurvePoly must print fractions, signs, contents and residues as it did
PINNED_CURVE_JSON = [
    (["reduce", "5", "rational", "1/2*x^3; -3/2"],
     '"inputs":{"n":"5","field":"rational","gens":["1/2*x^3","-3/2"]},'
     '"result":{"content":"1","p":"1","q":"x^3","nu":"2"}'),
    (["reduce", "7", "rational", "-x + 2/3*x^2; x^5"],
     '"inputs":{"n":"7","field":"rational","gens":["-x + 2/3*x^2","x^5"]},'
     '"result":{"content":"x","p":"1 - 2/3*x","q":"x^5","nu":"4"}'),
    (["reduce", "5", "rational", "2 + 2*x; x^3 + x^4"],
     '"inputs":{"n":"5","field":"rational","gens":["2 + 2*x","x^3 + x^4"]},'
     '"result":{"content":"1 + x","p":"1","q":"x^3","nu":"2"}'),
    (["reduce", "7", "rational", "3*x + 3/2; x^4 + 1/2*x^3"],
     '"inputs":{"n":"7","field":"rational","gens":["3/2 + 3*x","1/2*x^3 + x^4"]},'
     '"result":{"content":"1/2 + x","p":"1","q":"x^3","nu":"2"}'),
    (["reduce", "9", "rational", "-4/3 + 2*x^3 - 2/3*x^5; -2*x^7 + 1/5*x^8"],
     '"inputs":{"n":"9","field":"rational","gens":["-4/3 + 2*x^3 - 2/3*x^5","-2*x^7 + 1/5*x^8"]},'
     '"result":{"content":"1","p":"1 - 3/2*x^3 + 1/2*x^5","q":"x^7","nu":"6"}'),
    (["fitt1", "9", "rational", "1 - 1/2*x + x^2; x^5"],
     '"inputs":{"n":"9","field":"rational","gens":["1 - 1/2*x + x^2","x^5"]},'
     '"result":{"exponent":"4","module":"x^4*K[x^2] + x^8*K[x]"}'),
    (["mult-ring", "7", "rational", "-2/7 + x^3; 5*x^4"],
     '"inputs":{"n":"7","field":"rational","gens":["-2/7 + x^3","5*x^4"]},'
     '"result":{"nu":"6","ring":"K[x^2] + x^6*K[x]"}'),
    (["reduce", "7", "f5", "3 + 4*x + 2*x^3; x^5"],
     '"inputs":{"n":"7","field":"f5","gens":["3 + 4*x + 2*x^3","x^5"]},'
     '"result":{"content":"1","p":"1 + 3*x + 4*x^3","q":"x^5","nu":"4"}'),
    (["reduce", "9", "f7", "1/2*x + 3; x^6 - x^3"],
     '"inputs":{"n":"9","field":"f7","gens":["3 + 4*x","6*x^3 + x^6"]},'
     '"result":{"content":"6 + x","p":"1","q":"x^3","nu":"2"}'),
    (["fitt1", "11", "f101", "-1 + 50*x^2 + x^5; 2*x^7 + 3*x^9"],
     '"inputs":{"n":"11","field":"f101","gens":["100 + 50*x^2 + x^5","2*x^7 + 3*x^9"]},'
     '"result":{"exponent":"4","module":"x^4*K[x^2] + x^10*K[x]"}'),
    (["mult-ring", "5", "f3", "2*x + 1; x^2"],
     '"inputs":{"n":"5","field":"f3","gens":["1 + 2*x","x^2"]},'
     '"result":{"nu":"2","ring":"K[x^2] + x^2*K[x]"}'),
    (["units", "7", "f5", "1; x^3"],
     '"inputs":{"n":"7","field":"f5","gens":["1","x^3"]},'
     '"result":{"count":"20","nu":"2"}'),
    (["units", "9", "f3", "2 + x^2 + x^3; x^7"],
     '"inputs":{"n":"9","field":"f3","gens":["2 + x^2 + x^3","x^7"]},'
     '"result":{"count":"2","nu":"6"}'),
]


@pytest.mark.parametrize("case,expected", PINNED_CURVE_JSON,
                         ids=[f"{c[0]}-n{c[1]}-{c[2]}" for c, _ in PINNED_CURVE_JSON])
def test_curve_json_output_is_pinned(capsys, case, expected):
    op, n, field, gens = case
    payload = _run_json(capsys, ["curve", op, "--n", n, "--field", field, "--gens", gens])
    compact = json.dumps(payload, separators=(",", ":"))
    assert f'"command":"curve",{expected},"assertions"' in compact


def test_huge_exponent_is_refused_at_once(capsys):
    for gens in ("x^100000000", "1 + x^" + "9" * 5000, "x^10001"):
        start = time.monotonic()
        code, out, err = _run(capsys, ["curve", "reduce", "--n", "5", "--field", "rational",
                                       "--gens", gens])
        assert time.monotonic() - start < 1.0
        assert code == 1
        assert "usage error:" in err and "10000" in err


def test_huge_decimal_exponent_is_refused_at_once(capsys):
    for gens in ("[1e99999999]; x^3", "[0, 2.5E-1_0001]; x^3"):
        start = time.monotonic()
        code, out, err = _run(capsys, ["curve", "reduce", "--n", "5", "--gens", gens])
        assert time.monotonic() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("usage error: the exponent of ") and "limit 10000" in err


def test_huge_curve_exponent_is_refused_at_once(capsys):
    for n in ("2003", "100001", "10" * 40 + "1"):
        start = time.monotonic()
        code, out, err = _run(capsys, ["curve", "reduce", "--n", n, "--gens", "1; x^3"])
        assert time.monotonic() - start < 1.0
        assert code == 1
        assert "usage error:" in err and "2001" in err


@pytest.mark.parametrize("m", ["99999999999973", "-99999999999973"])
def test_form_window_beyond_the_budget_exits_two_at_once(capsys, m):
    start = time.monotonic()
    code, out, err = _run(capsys, ["pic", "--m", m, "--f", "1"])
    assert time.monotonic() - start < 10.0
    assert code == 2
    assert "A-window" in err and "--bound" in err and "CUSPIDAL_BOUND" in err


def test_multiplier_ring_report_computes_the_conductor_once(capsys, monkeypatch):
    import cuspidal.cli
    import cuspidal.genpairs

    calls = []

    def counted(ideal, real=cuspidal.cli.multiplier_conductor):
        calls.append(ideal)
        return real(ideal)

    monkeypatch.setattr(cuspidal.cli, "multiplier_conductor", counted)
    monkeypatch.setattr(cuspidal.genpairs, "multiplier_conductor", counted)
    payload = _run_json(capsys, ["ideal", "mult-ring", "--m", "-1", "--f", "5", "--gens", "5; 5*w"])
    assert len(calls) == 1
    # the public count takes f' and computes no conductor, and the orbit identity holds
    assert payload["result"]["sl2_orbits"] == "4"
    f_prime = int(payload["result"]["f_prime"])
    assert cuspidal.genpairs.orbit_count_sl2_mod_units(calls[0].order, f_prime) == 4
    assert len(calls) == 1
    # ideal inverse builds one conjugate, one product and one conductor
    import cuspidal.quadideal

    calls.clear()
    products, conjugates = [], []

    def mul(lhs, rhs, real=cuspidal.quadideal.ideal_mul):
        products.append((lhs, rhs))
        return real(lhs, rhs)

    def conjugate(ideal, real=cuspidal.quadideal.QIdeal.conjugate):
        conjugates.append(ideal)
        return real(ideal)

    monkeypatch.setattr(cuspidal.quadideal, "multiplier_conductor", counted)
    monkeypatch.setattr(cuspidal.quadideal, "ideal_mul", mul)
    monkeypatch.setattr(cuspidal.cli, "ideal_mul", mul)
    monkeypatch.setattr(cuspidal.quadideal.QIdeal, "conjugate", conjugate)
    payload = _run_json(capsys, ["ideal", "inverse", "--m", "-5", "--f", "3", "--gens", "3; 3*w"])
    assert payload["assertions"] == [{"name": "product-is-fitting-ideal", "status": "pass"}]
    assert (len(calls), len(products), len(conjugates)) == (1, 1, 1)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered, flags):
    """fd 1 on a pipe whose reader is closed: exit 128 + SIGPIPE, quietly."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cuspidal", "pic", "--m", "-5", *flags],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_memory_error_exits_two_with_one_line(capsys, monkeypatch, flags):
    """A search that runs out of memory ends inconclusive, like an exhausted budget:
    exit 2, one line on stderr, no report and no traceback."""

    def hungry(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "pic", (hungry, *cli._COMMANDS["pic"][1:]))
    assert _run(capsys, ["pic", "--m", "-5", *flags]) == (
        2, "", "inconclusive: the run ran out of memory\n")


def test_module_entry_point_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cuspidal", "curve", "reduce", "--n", "5", "--gens", "1; x^3",
         "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["q"] == "x^3"


def test_help_and_a_missing_command_through_the_module_entry_point():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=120)

    for argv in (["--help"], ["pair", "--help"]):
        proc = run("-m", "cuspidal", *argv)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.startswith("usage: cuspidal")
    assert all(flag in proc.stdout for flag in ("--m", "--f", "--json", "--pair ", "--pair2"))
    proc = run("-m", "cuspidal")
    assert proc.returncode == 1 and proc.stderr.startswith("usage error:")
    # the command table is the only parser: argparse is never imported
    proc = run("-c", "import cuspidal.cli, sys; print('argparse' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_squarefree_test_of_a_large_m_stops_at_its_budget(capsys, monkeypatch):
    monkeypatch.delenv("CUSPIDAL_BOUND", raising=False)
    start = time.monotonic()
    code, out, err = _run(capsys, ["ideal", "norm", "--m", "1" + "0" * 39 + "7", "--gens", "1"])
    assert time.monotonic() - start < 10
    assert code == 2 and out == ""
    assert "squarefree" in err and "2000000" in err and "CUSPIDAL_BOUND" in err


@pytest.mark.parametrize("argv", [
    ["curve", "reduce", "--n", "5", "--field", "f1" + "0" * 37 + "121", "--gens", "1; x^3"],
    ["cusps", "--m", "-1", "--f", "1" + "0" * 37 + "121"],
], ids=["prime-test", "conductor"])
def test_factorization_of_a_large_number_stops_at_its_budget(capsys, monkeypatch, argv):
    monkeypatch.delenv("CUSPIDAL_BOUND", raising=False)
    start = time.monotonic()
    code, out, err = _run(capsys, argv)
    assert time.monotonic() - start < 10
    assert code == 2 and out == ""
    assert "factorization" in err and "2000000" in err and "41-digit" in err
    assert "CUSPIDAL_BOUND" in err


def test_fitting_ideal_of_a_large_conductor_needs_no_factoring_of_f_over_f_prime(capsys):
    # the ideal P*O_1 has f' = 1, so the conductor certificate sees n0 = P
    big = "1" + "0" * 37 + "121"
    payload = _run_json(capsys, ["ideal", "fitt1", "--m", "-1", "--f", big,
                                 "--gens", f"{big}; {big}*w"])
    assert payload["result"]["norm"] == big


def test_squarefree_test_decides_a_cofactor_below_the_cube_of_the_budget(capsys, monkeypatch):
    assert is_prime(10007) and is_prime(10009)
    monkeypatch.setenv("CUSPIDAL_BOUND", "1000")
    code, out, err = _run(capsys, ["ideal", "norm", "--m", str(10007 * 10009), "--gens", "1"])
    assert code == 0 and out == "norm = 1\n", err
    code, out, err = _run(capsys, ["ideal", "norm", "--m", str(10007**2), "--gens", "1"])
    assert code == 1 and "usage error: m must be squarefree" in err


def test_selftest_passes(capsys):
    code, out, err = _run(capsys, ["selftest", "--max-f", "4"])
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("max_f", ["0", "-3"])
def test_selftest_empty_grid_is_a_usage_error(capsys, max_f):
    code, out, err = _run(capsys, ["selftest", "--max-f", max_f])
    assert code == 1
    assert "usage error: --max-f" in err
    assert "[pass]" not in out


def test_usage_errors_exit_one(capsys):
    cases = [
        ["cusps", "--m", "12", "--f", "1"],
        ["ideal", "norm", "--m", "5", "--f", "2", "--gens", "w"],  # w outside O_2
        ["pair", "witness", "--m", "-1", "--f", "5",
         "--pair", "5; 5*w", "--pair2", "5*w; 5"],
        ["curve", "units", "--n", "5", "--gens", "1; x^3"],
        ["curve", "reduce", "--n", "4", "--gens", "1"],
        ["no-such-command"],
        ["ideal", "std-basis", "--m", "5", "--f", "1", "--gens", "  "],
        ["pic", "--m", "-5", "--f", "3", "--bound", "0"],
        ["curve", "reduce", "--n", "5", "--field", "f0", "--gens", "1; x^3"],
        ["curve", "reduce", "--n", "5", "--field", "0", "--gens", "1; x^3"],
    ]
    for argv in cases:
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert "usage error:" in err


@pytest.mark.parametrize("env", ["abc", "-4"])
def test_bad_bound_environment_exits_one(capsys, monkeypatch, env):
    monkeypatch.setenv("CUSPIDAL_BOUND", env)
    code, out, err = _run(capsys, ["pic", "--m", "-5", "--f", "3"])
    assert code == 1
    assert "usage error: CUSPIDAL_BOUND" in err


def test_bound_exhaustion_exits_two(capsys):
    code, out, err = _run(capsys, ["cusps", "--m", "3", "--f", "5", "--bound", "2"])
    assert code == 2
    assert "inconclusive:" in err


def test_plain_output_has_pass_markers(capsys):
    code, out, err = _run(capsys, ["cusps", "--m", "5", "--f", "6"])
    assert code == 0
    assert "[pass] direct-count-agreement" in out
    assert "f'=1" in out


def test_bound_exhaustion_names_the_knob(capsys, fresh_memos):
    code, out, err = _run(capsys, ["pic", "--m", "7", "--f", "3", "--bound", "3"])
    assert code == 2
    assert "--bound" in err and "CUSPIDAL_BOUND" in err


# (argv, N, CUSPIDAL_BOUND beside --bound N, fields whose class number is memoised
# first, the search that runs out or None)
_ONE_BUDGET = {
    "a-window": (["pic", "--m", "-30011"], 50, None, (), "the A-window 100"),
    "enumeration": (["cusps", "--m", "-5", "--f", "12"], 20, None, (), "class enumeration"),
    "brute": (["pic", "--m", "-5", "--f", "30", "--brute"], 100, None, (), "class enumeration"),
    "rho-walk": (["cusps", "--m", "94", "--no-check"], 15, None, (94,), "the rho-cycle"),
    "conductor": (["pic", "--m", "-5", "--f", str(10007 * 10009)], 100, None, (),
                  "factorization"),
    "squarefree": (["pic", "--m", str(10007 * 10009)], 100, None, (), "squarefree test"),
    "conductor-ok": (["pic", "--m", "-5", "--f", "1000000007"], 2_000_000, "100", (), None),
    "unit-index-ok": (["pic", "--m", "5", "--f", "1000000007"], 2_000_000, "100", (), None),
    "rho-walk-ok": (["cusps", "--m", "94", "--no-check"], 2_000_000, "10", (), None),
    "cusps-ok": (["cusps", "--m", "10", "--f", "6"], 1000, "2", (), None),
    "brute-ok": (["pic", "--m", "10", "--f", "6", "--brute"], 1000, "2", (), None),
}


@pytest.mark.parametrize("argv,bound,env,warm,search", _ONE_BUDGET.values(), ids=_ONE_BUDGET)
def test_bound_flag_and_environment_are_one_budget(capsys, monkeypatch, argv, bound, env, warm,
                                                   search):
    """--bound N, whatever CUSPIDAL_BOUND holds, runs exactly as CUSPIDAL_BOUND=N."""
    runs = []
    for extra, value in ((["--bound", str(bound)], env), ([], str(bound))):
        _clear_memos()
        monkeypatch.delenv("CUSPIDAL_BOUND", raising=False)
        for m in warm:
            class_number_maximal(QuadField(m))
        if value is not None:
            monkeypatch.setenv("CUSPIDAL_BOUND", value)
        runs.append(_run(capsys, argv + extra))
    _clear_memos()
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    if search is None:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "") and err.startswith("inconclusive: " + search)
        assert err.endswith("; raise it with --bound or CUSPIDAL_BOUND\n") and str(bound) in err


def test_selftest_checks_the_class_number_of_each_maximal_order(capsys, monkeypatch, fresh_memos):
    # miss the form (2, 1, 2): h(Q(sqrt(-15))) reads 1, as does the formula's cusp count
    real = classnum._reduced_definite_count
    monkeypatch.setattr(classnum, "_reduced_definite_count",
                        lambda disc: real(disc) - (disc == -15))
    assert class_number_maximal(QuadField(-15)).h == 1
    code, out, err = _run(capsys, ["selftest", "--max-f", "1"])
    assert (code, out) == (3, "")
    assert err == ("internal check failed: the cusp count 1 of Q(sqrt(-15))"
                   " differs from the direct count 2\n")


def test_class_enumeration_refuses_a_window_past_the_budget(capsys, monkeypatch, fresh_memos):
    """The direct check of cusps at f = 1000003 would search norms up to 2,581,996,
    past the default budget: the command exits 2 before it sieves one modulus."""
    class_number_maximal(QuadField(-5))

    def sieve(*args):
        raise AssertionError("class enumeration sieved before it checked its window")

    monkeypatch.setattr(quadideal, "sqrt_mods", sieve)
    code, out, err = _run(capsys, ["cusps", "--m", "-5", "--f", "1000003"])
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: class enumeration: the A-window 2581996 of discriminant"
                          " -20000120000180 exceeds bound 2000000;")


def test_unit_walk_budget_names_the_knob(capsys, monkeypatch):
    monkeypatch.setenv("CUSPIDAL_BOUND", "100000")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["unit", "--m", "99999999999973"])
    assert time.perf_counter() - start < 10
    assert code == 2
    assert "bound 100000" in err and "CUSPIDAL_BOUND" in err


def test_unit_walk_budget_counts_rho_steps(capsys, monkeypatch):
    # sqrt(94) has a continued fraction of period 16 and a fundamental unit of
    # norm 1, so the walk closes the whole principal cycle in 16 rho-steps
    fundamental_unit.cache_clear()
    monkeypatch.setenv("CUSPIDAL_BOUND", "15")
    code, out, err = _run(capsys, ["unit", "--m", "94"])
    assert code == 2 and "bound 15" in err
    monkeypatch.setenv("CUSPIDAL_BOUND", "16")
    payload = _run_json(capsys, ["unit", "--m", "94"])
    assert payload["result"]["fundamental"] == "2143295+221064*w"


def test_bound_flag_belongs_to_the_class_searches(capsys):
    for argv in (
        ["unit", "--m", "2"],
        ["ideal", "norm", "--m", "-5", "--gens", "2; 1+w"],
        ["pair", "det", "--m", "-5", "--pair", "2; 1+w", "--pair2", "1+w; 2"],
        ["vec", "reduce", "--m", "-5", "--gens", "2; 1+w; 3"],
    ):
        assert _run(capsys, argv)[0] == 0, argv
        code, out, err = _run(capsys, argv + ["--bound", "5"])
        assert code == 1 and "unrecognized arguments: --bound 5" in err, argv


def test_large_regulator_field_is_decided(capsys):
    # a norm-equation class search needs a box of width ~3e8 here
    payload = _run_json(capsys, ["cusps", "--m", "151", "--f", "2"])
    assert payload["result"]["total"] == "2"
    assert payload["assertions"] == [{"name": "direct-count-agreement", "status": "pass"}]
    payload = _run_json(capsys, ["pic", "--m", "151", "--f", "2", "--brute"])
    assert payload["assertions"] == [{"name": "enumeration-agreement", "status": "pass"}]
    # and one of width ~4.7e122 here; h_K = 3
    payload = _run_json(capsys, ["cusps", "--m", "1000003", "--f", "2", "--no-check"])
    assert payload["result"]["total"] == "6"


def test_successive_calls_share_the_parser_but_not_state(capsys, monkeypatch):
    monkeypatch.delenv("CUSPIDAL_BOUND", raising=False)
    payload = _run_json(capsys, ["cusps", "--m", "5", "--f", "6", "--no-check"])
    assert payload["assertions"] == []
    payload = _run_json(capsys, ["cusps", "--m", "5", "--f", "6"])
    assert [e["name"] for e in payload["assertions"]] == ["direct-count-agreement"]
    assert _run(capsys, ["cusps", "--m", "3", "--f", "5", "--bound", "2"])[0] == 2
    assert _run(capsys, ["cusps", "--m", "3", "--f", "5"])[0] == 0
    payload = _run_json(capsys, ["pic", "--m", "-5", "--f", "3", "--brute"])
    assert [e["name"] for e in payload["assertions"]] == ["enumeration-agreement"]
    payload = _run_json(capsys, ["pic", "--m", "-5", "--f", "3"])
    assert payload["assertions"] == []
    # the environment is read on every call
    monkeypatch.setenv("CUSPIDAL_BOUND", "2")
    code, out, err = _run(capsys, ["cusps", "--m", "3", "--f", "7"])
    assert code == 2 and "bound 2" in err
    monkeypatch.setenv("CUSPIDAL_BOUND", "abc")
    assert _run(capsys, ["cusps", "--m", "3", "--f", "7"])[0] == 1
    monkeypatch.delenv("CUSPIDAL_BOUND")
    assert _run(capsys, ["cusps", "--m", "3", "--f", "7"])[0] == 0


def test_unit_past_the_int_print_limit_exits_two(capsys):
    # the fundamental unit of Q(sqrt(10000000019)) has 63,911 decimal digits
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for extra in ([], ["--json"]):
            start = time.perf_counter()
            code, out, err = _run(capsys, ["unit", "--m", "10000000019", *extra])
            assert time.perf_counter() - start < 10
            assert code == 2 and out == ""
            assert err.startswith("inconclusive: the fundamental unit has 63911 digits")
            assert "PYTHONINTMAXSTRDIGITS" in err and "-X int_max_str_digits" in err
        sys.set_int_max_str_digits(0)  # the knob: no limit
        payload = _run_json(capsys, ["unit", "--m", "10000000019"])
        assert len(payload["result"]["fundamental"].split("+")[0]) == 63911
    finally:
        sys.set_int_max_str_digits(limit)



def test_a_unit_power_past_the_print_limit_is_refused_before_it_is_expanded(capsys):
    # k = 100004 at f = 100003: omega^k has about 20,900 digits, which are never computed
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        start = time.perf_counter()
        code, out, err = _run(capsys, ["unit", "--m", "5", "--f", "100003"])
        assert time.perf_counter() - start < 1
        sys.set_int_max_str_digits(0)
        digits = len(str(fundamental_unit(QuadField(5), 100003).fundamental.b))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.startswith("inconclusive: the fundamental unit has at least ")
    assert 4300 < int(err.split()[7]) <= digits
    assert "PYTHONINTMAXSTRDIGITS" in err and "-X int_max_str_digits" in err


# the commands that ran unbounded while the unit index came from a power search: each
# now ends, with its answer or with exit 2 and the start of its message
_ONCE_UNBOUNDED = [
    (["pic", "--m", "5", "--f", "1000003"], 0,
     "|Pic(Order(m=5, f=1000003))| = 1  (conductor-formula)\n"),
    (["cusps", "--m", "5", "--f", "1000003", "--no-check"], 0,
     "cusp count of Order(m=5, f=1000003): 500002\n"),
    (["pic", "--m", "2", "--f", "999983"], 0,
     "|Pic(Order(m=2, f=999983))| = 1  (conductor-formula)\n"),
    (["unit", "--m", "5", "--f", "1000003"], 2, "inconclusive: the fundamental unit has at least"),
    (["ideal", "mult-ring", "--m", "5", "--f", "1000003", "--gens", "1000003; 1000003*w"], 0,
     "multiplier ring: conductor 1  (n0 = f/f' = 1000003)\n"),
    (["cusps", "--m", "-5", "--f", "1000003"], 2, "inconclusive: class enumeration"),
    (["pic", "--m", "5", "--f", "1000000000039"], 0,
     "|Pic(Order(m=5, f=1000000000039))| = 3  (conductor-formula)\n"),
    (["unit", "--m", "5", "--f", "1000000000039"], 2,
     "inconclusive: the fundamental unit has at least"),
]


@pytest.mark.parametrize("argv,code,start", _ONCE_UNBOUNDED,
                         ids=[" ".join(argv[:5]) for argv, _, _ in _ONCE_UNBOUNDED])
def test_large_conductors_end_with_the_default_budget(argv, code, start):
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("CUSPIDAL_BOUND", "PYTHONINTMAXSTRDIGITS")}
    env["PYTHONPATH"] = str(root / "src")
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cuspidal", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - begin < 5
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout if code == 0 else proc.stderr).startswith(start)
    assert proc.stderr == "" if code == 0 else proc.stdout == ""


def test_results_past_the_int_print_limit_exit_two(capsys):
    # at n = 301 the unit count 100003^148 * 100002 and the coefficient
    # (-100000)^149 of x^299 in p both pass a 640-digit limit, and so does an
    # entry of the SL2 witness between two pairs of 601-digit generators
    units = ["curve", "units", "--n", "301", "--field", "f100003", "--gens", "1; x^3"]
    reduce = ["curve", "reduce", "--n", "301", "--gens", "1 + 100000*x^2 + x; x^300"]
    a, b = 10**600 + 1, 10**600 + 3
    witness = ["pair", "witness", "--m", "-1", "--pair", f"{a}; {b}*w", "--pair2", f"{b}*w; {a}"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits = len(str(100003**148 * 100002)), len(str(100000**149))
        assert max(len(e) for row in _run_json(capsys, witness)["result"]["matrix"]["rows"]
                   for e in row) > 640
        sys.set_int_max_str_digits(640)
        for argv, what in ((units, f"the unit count has {digits[0]} digits"),
                           (reduce, f"a coefficient of p has {digits[1]} digits"),
                           (witness, "a result has")):
            for extra in ([], ["--json"]):
                code, out, err = _run(capsys, argv + extra)
                assert code == 2 and out == ""
                assert err.startswith(f"inconclusive: {what}") and "past the 640-digit limit" in err
                assert "PYTHONINTMAXSTRDIGITS" in err and "-X int_max_str_digits" in err
        sys.set_int_max_str_digits(0)  # the knob: no limit
        assert _run_json(capsys, units)["result"]["count"] == str(100003**148 * 100002)
        assert _run_json(capsys, reduce)["result"]["p"].endswith(f" - {100000**149}*x^299")
    finally:
        sys.set_int_max_str_digits(limit)


_DET_ARGV = ["pair", "det", "--m", "-1", "--f", "5", "--pair", "5; 5*w", "--pair2", "5*w; -5"]
_BAD_KERNEL = """
import sys
from cuspidal import cli, genpairs
real = genpairs._echelon2
def bad(top, bottom):
    system = real(top, bottom)
    return system._replace(u=system.u[:len(system.pivots)] + [[1, 0, 0, 0]] * len(system.kernel))
genpairs._echelon2 = bad
sys.exit(cli.main(sys.argv[1:]))
"""


def _bad_kernel(real):
    """The reduction with its particular solutions kept and its kernel replaced."""
    def bad(top, bottom):
        system = real(top, bottom)
        kernel = [[1, 0, 0, 0]] * len(system.kernel)
        return system._replace(u=system.u[: len(system.pivots)] + kernel)
    return bad


def _run_sabotaged_under_python_O(argv, script=_BAD_KERNEL):
    # python -O drops assert statements; the checks are raises and stay
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )


def test_lift_check_fails_loudly_also_under_python_O(capsys, monkeypatch):
    # (1, 0, 0, 0) is no relation of (5, 5*w): 5*1 + 5*w*0 != 0; the sabotaged
    # reduction keeps its particular solutions and replaces only its kernel
    monkeypatch.setattr(genpairs, "_echelon2", _bad_kernel(genpairs._echelon2))
    order = Order(QuadField(-1), 5)
    g = [parse_element(order.field, t) for t in ("5", "5*w", "-5")]
    pair = GenPair(order, g[0], g[1])
    other = GenPair(order, g[1], g[2])
    with pytest.raises(InternalCheckError, match="not a relation"):
        genpairs.det_pair(pair, other)
    code, out, err = _run(capsys, _DET_ARGV + ["--json"])
    assert code == 3 and out == "" and "internal check failed" in err
    proc = _run_sabotaged_under_python_O(_DET_ARGV + ["--json"])
    assert proc.returncode == 3 and proc.stdout == "", proc.stdout
    assert "internal check failed" in proc.stderr


@pytest.mark.parametrize("op", ["equiv", "witness"])
def test_every_pair_query_runs_the_lift_check(capsys, monkeypatch, op):
    # `pair det` is the test above; `equiv` and `witness` run the same check
    # through det_pair and sl2_witness
    argv = ["pair", op, *_DET_ARGV[2:], "--json"]
    monkeypatch.setattr(genpairs, "_echelon2", _bad_kernel(genpairs._echelon2))
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == "" and "is not a relation" in err
    proc = _run_sabotaged_under_python_O(argv)
    assert proc.returncode == 3 and proc.stdout == "", proc.stdout
    assert "is not a relation" in proc.stderr


_NO_SOLUTION = """
import sys, types
from cuspidal import cli, genpairs
real, calls = genpairs._echelon2, []
def bad(top, bottom):
    calls.append(None)
    return real(top, bottom) if len(calls) == 1 else types.SimpleNamespace(solve=lambda *t: None)
genpairs._echelon2 = bad
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_unsolved_witness_system_fails_loudly_also_under_python_O(capsys, monkeypatch):
    # the pair system is reduced as usual; the witness's second reduction, of the
    # determinant system over the relations, solves nothing
    real, calls = genpairs._echelon2, []

    def bad(top, bottom):
        calls.append(None)
        unsolved = types.SimpleNamespace(solve=lambda *t: None)
        return real(top, bottom) if len(calls) == 1 else unsolved

    monkeypatch.setattr(genpairs, "_echelon2", bad)
    argv = ["pair", "witness", *_DET_ARGV[2:], "--json"]
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == "" and "do not reach 1 - det A" in err
    proc = _run_sabotaged_under_python_O(argv, _NO_SOLUTION)
    assert proc.returncode == 3 and proc.stdout == "", proc.stdout
    assert "internal check failed" in proc.stderr and "do not reach 1 - det A" in proc.stderr


def _solving(solve, after=0):
    """The reduction with every system past the first `after` answered by `solve`."""
    def sabotage(real):
        calls = []

        def bad(top, bottom):
            calls.append(None)
            system = real(top, bottom)
            if len(calls) <= after:
                return system
            return types.SimpleNamespace(kernel=system.kernel, solve=solve)
        return bad
    return sabotage


@pytest.mark.parametrize("op, sabotage, message", [
    ("det", _solving(lambda *t: None), "5*w is not reachable from (5; 5*w)"),
    ("det", _solving(lambda *t: [0, 0, 0, 0]), "coefficients (0; 0) do not reach 5*w"),
    ("det", _bad_kernel, "(1; 0) is not a relation of (5; 5*w)"),
    ("witness", _solving(lambda *t: None, after=1),
     "the relations of (5; 5*w) do not reach 1 - det A = 0"),
], ids=["unreachable", "wrong-coefficients", "not-a-relation", "witness-unsolved"])
def test_failed_pair_checks_show_elements_as_the_command_line_writes_them(
        capsys, monkeypatch, op, sabotage, message):
    monkeypatch.setattr(genpairs, "_echelon2", sabotage(genpairs._echelon2))
    code, out, err = _run(capsys, ["pair", op, *_DET_ARGV[2:]])
    assert (code, out, err) == (3, "", f"internal check failed: {message}\n")


@pytest.mark.parametrize("argv, env, code", [
    (["-m", "cuspidal", "pic", "--m", "4"], {}, 1),
    (["-m", "cuspidal", "pic", "--m", "-10007"], {"CUSPIDAL_BOUND": "10"}, 2),
    (["-c", _BAD_KERNEL, *_DET_ARGV], {}, 3),
], ids=["usage-error", "inconclusive", "internal-check"])
def test_a_closed_stderr_keeps_the_exit_code(argv, env, code):
    """fd 2 on a pipe whose reader is closed: the failure line cannot be written,
    and the exit code still says which failure it was."""
    root = Path(__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=write_end,
            env=dict(os.environ, PYTHONPATH=str(root / "src"), **env), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (code, "")


def test_pair_queries_reduce_their_pair_system_once(capsys, monkeypatch):
    systems = []
    real = genpairs._echelon2

    def counted(top, bottom):
        systems.append((top, bottom))
        return real(top, bottom)

    monkeypatch.setattr(genpairs, "_echelon2", counted)
    assert _run(capsys, _DET_ARGV)[0] == 0
    assert len(systems) == 1
    systems.clear()
    # the witness adds one reduction, of its determinant system over the relations
    assert _run(capsys, ["pair", "witness", *_DET_ARGV[2:]])[0] == 0
    assert 1 <= len(systems) <= 2


@pytest.mark.parametrize("argv", [
    ["ideal", "fitt1", "--gens", "3; 6*w"],
    ["ideal", "inverse", "--gens", "3; 6*w"],
    ["pair", "det", "--pair", "3; 6*w", "--pair2", "6*w; -3"],
    ["pair", "witness", "--pair", "3; 6*w", "--pair2", "6*w; -3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_each_query_computes_the_multiplier_conductor_once(capsys, monkeypatch, argv):
    import cuspidal.cli
    import cuspidal.quadideal

    calls = []

    def counted(ideal, real=cuspidal.quadideal.multiplier_conductor):
        calls.append(ideal)
        return real(ideal)

    for module in (cuspidal.cli, genpairs, cuspidal.quadideal):
        monkeypatch.setattr(module, "multiplier_conductor", counted)
    code, out, err = _run(capsys, argv + ["--m", "-1", "--f", "6", "--json"])
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["ideal", "norm", "--m", "5", "--gens", "1/0; 2"],
    ["ideal", "norm", "--m", "5", "--gens", "9" * 5000 + "; 2"],
    ["curve", "reduce", "--n", "5", "--gens", "9" * 5000 + "*x; 1"],
], ids=["zero-denominator", "huge-element-coefficient", "huge-curve-coefficient"])
def test_bad_coefficients_are_usage_errors_with_short_messages(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err
    assert len(err) < 400


@pytest.mark.parametrize("argv, err", [
    (["curve", "reduce", "--n", "5", "--gens", "1; x^\u0663"],
     "bad polynomial term 'x^\u0663' in ' x^\u0663'"),
    (["curve", "reduce", "--n", "5", "--gens", "[\u0663, 1]"],
     "bad scalar '\u0663': Invalid literal for Fraction: '\u0663'"),
    (["curve", "reduce", "--n", "5", "--field", "f\u0663", "--gens", "1; x^3"],
     "unknown coefficient field 'f\u0663' (use 'rational' or 'f<p>')"),
    (["ideal", "std-basis", "--m", "-5", "--gens", "\u0663; \u0661+w"],
     "cannot parse term '\u0663' in '\u0663'"),
    (["curve", "reduce", "--n", "5", "--gens", "\u0663; x^3"],
     "bad polynomial term '\u0663' in '\u0663'"),
], ids=["curve-exponent", "curve-scalar", "field", "element", "curve-coefficient"])
def test_parsed_text_reads_ascii_digits_only(capsys, argv, err):
    """Arabic-Indic three and one are Unicode digits that int(), Fraction() and the
    regular expression \\d accept; the grammar of parsed text reads 0-9 alone."""
    assert _run(capsys, argv) == (1, "", f"usage error: {err}\n")


_NINES = "9" * 4300


@pytest.mark.parametrize("argv, echo", [
    (["ideal", "norm", "--m", "5", "--f", "7", "--gens", f"{_NINES}*s"],
     f"usage error: '{_NINES[:24]}' is not in Order(m=5, f=7)"),
    (["pair", "det", "--m", "5", "--pair", "1; w", "--pair2", f"{_NINES}*s; {_NINES}*s"],
     f"usage error: --pair2 '{_NINES[:24]}' does not generate the ideal of --pair"),
], ids=["element-outside-the-order", "pair-outside-the-ideal"])
def test_rejected_elements_past_the_print_limit_are_echoed_cut(capsys, argv, echo):
    # over omega the s-coefficient doubles to 4,301 digits, one past the print limit
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = _run(capsys, argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err == echo + "\n" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ideal", "norm", "--m", "5", "--gens", "1 + " + "y" * 5000 + "; 2"],
    ["ideal", "norm", "--m", "5", "--gens", "y" * 5000 + "+; 2"],
    ["curve", "reduce", "--n", "5", "--gens", "1 + " + "y" * 5000 + "; 1"],
    ["curve", "reduce", "--n", "5", "--gens", "x" * 5000 + "+; 1"],
], ids=["element-term", "element", "curve-term", "curve-polynomial"])
def test_unparsable_long_input_is_not_echoed_whole(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert "cannot parse" in err or "bad polynomial term" in err
    assert len(err) < 200


_LONG = "9" * 3000


@pytest.mark.parametrize("env, argv", [
    (None, ["curve", "reduce", "--n", "5", "--field", "f" * 3000, "--gens", "1; x^3"]),
    ("-" + _LONG, ["pic", "--m", "-5", "--f", "3"]),
    (None, ["pic", "--m", "-5", "--f", "3", "--bound", "-" + _LONG]),
    (None, ["curve", "reduce", "--n", _LONG, "--gens", "1; x^3"]),
    (None, ["ideal", "norm", "--m", "9" * 5000, "--gens", "1"]),
    (None, ["ideal", "x" * 3000, "--m", "5", "--gens", "1"]),
    (None, ["ideal", "norm", "--m", "-1", "--f", "-" + _LONG, "--gens", "1"]),
    (None, ["selftest", "--max-f", "-" + _LONG]),
    (None, ["ideal", "norm", "--m", "4" + "0" * 3999, "--gens", "1"]),
    (None, ["unit", "--m", "2", "--f=-" + _LONG]),
    (None, ["curve", "reduce", "--n", "5", "--field", f"f{2**9966}", "--gens", "1; x^3"]),
], ids=["field", "bound-env", "bound-flag", "curve-n", "argparse-int", "argparse-choice",
        "conductor", "max-f", "squarefree", "unit-conductor", "field-characteristic"])
def test_long_rejected_values_are_not_echoed_whole(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("CUSPIDAL_BOUND", env)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert len(err) < 200, err


@pytest.mark.parametrize("char", [10**3000 + 1, 10**3000 + 2], ids=["odd", "even"])
def test_a_huge_composite_characteristic_is_refused_by_miller_rabin(capsys, char):
    # a base of the Miller-Rabin rounds witnesses both; trial division stopped at the budget
    start = time.monotonic()
    code, out, err = _run(capsys, ["curve", "reduce", "--n", "5", "--field", f"f{char}",
                                   "--gens", "1; x^3"])
    assert time.monotonic() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("usage error: coefficient field characteristic 1000") and "is not prime" in err


_CURVE_ARGV = ["curve", "reduce", "--n", "7", "--gens", "2 + x; x^3"]
_BAD_SERIES = """
import sys
from cuspidal import cli, curvering
real = curvering._div
curvering._div = lambda *args: [x + 1 for x in real(*args)]
sys.exit(cli.main(sys.argv[1:]))
"""


def test_curve_certificates_fail_loudly_also_under_python_O(capsys, monkeypatch):
    # a quotient off by one in every coefficient is no beta with a_i * beta = b_i
    from cuspidal import curvering

    real = curvering._div
    monkeypatch.setattr(curvering, "_div", lambda *args: [x + 1 for x in real(*args)])
    code, out, err = _run(capsys, _CURVE_ARGV + ["--json"])
    assert code == 3 and out == "" and "internal check failed" in err
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_SERIES, *_CURVE_ARGV, "--json"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stdout
    assert "internal check failed" in proc.stderr


_BIG_PRIME = 10**12 + 39  # 10^12 + 38 = 2 * 500000000019, both factors prime


@pytest.mark.parametrize("argv", [["pic", "--m", "5"], ["cusps", "--m", "5", "--no-check"],
                                  ["cusps", "--m", "-5", "--no-check"]],
                         ids=["pic-real", "cusps-real", "cusps-imaginary"])
def test_a_session_factors_each_integer_once(fresh_memos, capsys, monkeypatch, argv):
    # the conductor factor, the unit index, the divisors and phi all ask for the
    # factors of f; the memo behind every request computes them once
    asked, memo = [], arith.factorize
    for module in (arith, units, quadideal):
        monkeypatch.setattr(module, "factorize", lambda n: asked.append(n) or memo(n))
    code, out, err = _run(capsys, argv + ["--f", str(_BIG_PRIME)])
    assert code == 0, err
    assert asked.count(_BIG_PRIME) > 1
    assert memo.cache_info().misses == len(set(asked))


def test_a_session_builds_each_field_and_order_once(fresh_memos, capsys, monkeypatch):
    # QuadField and Order are interned: the second command finds its field and its
    # orders, conductors 12 and its divisors, among those the first one built
    squarefree, orders, test, init = [], [], quadfield.is_squarefree, Order.__init__
    monkeypatch.setattr(quadfield, "is_squarefree", lambda n: squarefree.append(n) or test(n))
    monkeypatch.setattr(Order, "__init__", lambda self, *a: orders.append(a[1]) or init(self, *a))
    for f in ("24", "12"):
        code, out, err = _run(capsys, ["cusps", "--m", "223", "--f", f, "--no-check"])
        assert code == 0, err
    assert squarefree == [223]
    assert sorted(orders) == [1, 2, 3, 4, 6, 8, 12, 24]


def test_an_exhausted_factorization_is_not_kept(fresh_memos, capsys):
    # composite with no factor up to the trial limit 10^4, so no primality proof ends it
    argv = ["pic", "--m", "5", "--f", str(10007 * 10009), "--bound", "3"]
    for _ in range(2):
        assert _run(capsys, argv) == (2, "", "inconclusive: factorization: trial division"
                                      " up to 10000 leaves a 9-digit cofactor; raise it with"
                                      " --bound or CUSPIDAL_BOUND\n")


# 10^13 + 37 and 10^20 + 39 are prime, past the square and the cube of the default
# trial division bound: Miller-Rabin proves each cofactor prime, so the searches end;
# at --bound 1 the prime 37 passes the squarefree test and the A-window of class
# enumeration, which gives a real class number, stops the run,
# and 10^40 + 7 lies past the bound below which the proof is exact
_PRIME_COFACTORS = {
    "cusps": (["cusps", "--m", "5", "--f", "10000000000037", "--no-check"], 0,
              "cusp count of Order(m=5, f=10000000000037): 5000000000024\n"),
    "pic": (["pic", "--m", "-1", "--f", "10000000000037"], 0,
            "|Pic(Order(m=-1, f=10000000000037))| = 5000000000018  (conductor-formula)\n"),
    "ideal-norm": (["ideal", "norm", "--m", "100000000000000000039", "--gens", "1"], 0,
                   "norm = 1\n"),
    "a-window": (["pic", "--m", "37", "--bound", "1"], 2,
                 "inconclusive: class enumeration: the A-window 2 of discriminant 37 exceeds"
                 " bound 1; raise it with --bound or CUSPIDAL_BOUND\n"),
    "past-the-proof": (["ideal", "norm", "--m", str(10**40 + 7), "--gens", "1"], 2,
                       "inconclusive: squarefree test: trial division up to 2000000 leaves a"
                       " 33-digit cofactor; raise it with CUSPIDAL_BOUND\n"),
}


@pytest.mark.parametrize("argv,code,start", _PRIME_COFACTORS.values(), ids=_PRIME_COFACTORS)
def test_a_prime_cofactor_ends_no_search_inconclusive(fresh_memos, capsys, monkeypatch, argv,
                                                      code, start):
    monkeypatch.delenv("CUSPIDAL_BOUND", raising=False)
    got, out, err = _run(capsys, argv)
    assert got == code, err
    assert (out if code == 0 else err).startswith(start)
    assert err == "" if code == 0 else out == ""
