import json

import pytest

from cuspidal.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
