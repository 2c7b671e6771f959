"""errors.check and the ledger the command line reads its assertions from.

Every named assertion is recorded by the check that backs it: replacing one
module's `check` with a wrapper that skips that one call makes the name
disappear from --json and leaves the other names as they were."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspidal import cli, curvering, errors, genpairs, oracles, quadideal
from cuspidal.cli import main
from cuspidal.cusps import cusp_count
from cuspidal.errors import InternalCheckError, check, ledger

_CURVE = ["--n", "7", "--field", "f5", "--gens", "1; x^3"]
_PAIR = ["--m", "-5", "--f", "3", "--pair", "3; 3*w"]
_WITNESS = ["pair", "witness", *_PAIR, "--pair2", "3; 3+3*w"]
_VEC = ["vec", "reduce", "--m", "-3", "--f", "2", "--gens", "6; 2+2*w; 4*w"]

# (name, the module whose check records it, a command that reports it)
_RECORDED = [
    ("direct-count-agreement", cli, ["cusps", "--m", "5", "--f", "6"]),
    ("enumeration-agreement", cli, ["pic", "--m", "-5", "--f", "3", "--brute"]),
    ("fitting-norm-is-conductor-quotient", quadideal,
     ["ideal", "fitt1", "--m", "-5", "--f", "3", "--gens", "3; 3*w"]),
    ("fitting-norm-is-conductor-quotient", quadideal, _WITNESS),
    ("product-is-fitting-ideal", cli,
     ["ideal", "inverse", "--m", "-5", "--f", "3", "--gens", "3; 3*w"]),
    ("class-invariance-under-resolve", genpairs, ["pair", "det", *_PAIR, "--pair2", "3*w; 3"]),
    ("class-invariance-under-resolve", genpairs, ["pair", "equiv", *_PAIR, "--pair2", "3*w; 3"]),
    ("class-invariance-under-resolve", genpairs, _WITNESS),
    ("determinant-is-one", genpairs, _WITNESS),
    ("witness-maps-pair-to-pair2", genpairs, _WITNESS),
    ("witness-determinant-one", genpairs, _VEC),
    ("tail-entries-vanish", genpairs, _VEC),
    *[(name, curvering, ["curve", op, *_CURVE])
      for name in ("canonical-pair-spans-the-module", "colon-valuation-matches-nu")
      for op in ("reduce", "fitt1", "mult-ring", "units")],
    ("fitting-closed-form-verified", curvering, ["curve", "fitt1", *_CURVE]),
    ("stability-window-verified", curvering, ["curve", "mult-ring", *_CURVE]),
    ("brute-force-agreement", cli, ["curve", "units", *_CURVE]),
    *[(name, cli, ["selftest", "--max-f", "1"])
      for name in ("maximal-order-count-m=-1", "maximal-order-count-m=7",
                   "formula-vs-enumeration-grid", "curve-n=5-(1; x^3)",
                   "curve-units-n=7-nu=6")],
    *[(name, curvering, ["selftest", "--max-f", "1"])
      for name in ("canonical-pair-spans-the-module", "fitting-closed-form-verified")],
]


def _names(capsys, argv) -> list[str]:
    code = main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return [entry["name"] for entry in json.loads(out)["assertions"]]


def _skipping(target):
    """errors.check with the calls named `target` skipped."""
    def skip(ok, detail, *args, name=None):
        if name != target:
            errors.check(ok, detail, *args, name=name)
    return skip


@pytest.mark.parametrize("name,module,argv", _RECORDED,
                         ids=[f"{n}-{' '.join(a[:2])}" for n, _, a in _RECORDED])
def test_each_assertion_is_recorded_by_the_check_that_backs_it(capsys, monkeypatch,
                                                               name, module, argv):
    names = _names(capsys, argv)
    assert name in names
    monkeypatch.setattr(module, "check", _skipping(name))
    assert _names(capsys, argv) == [n for n in names if n != name]


@pytest.mark.parametrize("argv,expected", [
    (["pair", "det", *_PAIR, "--pair2", "3*w; 3"], ["class-invariance-under-resolve"]),
    (["pair", "equiv", *_PAIR, "--pair2", "3*w; 3"], ["class-invariance-under-resolve"]),
    (_WITNESS, ["class-invariance-under-resolve", "fitting-norm-is-conductor-quotient",
                "determinant-is-one", "witness-maps-pair-to-pair2"]),
    # identical pairs take the identity without solving anything, so nothing is checked
    (["pair", "witness", *_PAIR, "--pair2", "3; 3*w"], []),
    (_VEC, ["witness-determinant-one", "tail-entries-vanish"]),
    (["curve", "units", *_CURVE],
     ["canonical-pair-spans-the-module", "colon-valuation-matches-nu", "brute-force-agreement"]),
    (["unit", "--m", "7", "--f", "3"], []),
    (["ideal", "mult-ring", "--m", "-5", "--f", "3", "--gens", "3; 3*w"], []),
], ids=["det", "equiv", "witness", "witness-identical", "vec", "curve-units", "unit", "mult-ring"])
def test_reported_assertions_in_order(capsys, argv, expected):
    assert _names(capsys, argv) == expected


def test_plain_output_lists_the_ledger(capsys):
    assert main(_VEC) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["[pass] witness-determinant-one", "[pass] tail-entries-vanish"]


def test_a_failed_cross_check_exits_three_with_no_report(capsys, monkeypatch):
    # the cusps handler looks the cross-check up in oracles when it runs
    monkeypatch.setattr(oracles, "cusp_count_direct",
                        lambda order: cusp_count(order).total + 1)
    for extra in ([], ["--json"]):
        code = main(["cusps", "--m", "5", "--f", "6", *extra])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "internal check failed: the direct count 5 differs from the formula's 4\n"


def test_a_failed_library_check_exits_three_with_no_report(capsys, monkeypatch):
    def failing(ok, detail, *args, name=None):
        errors.check(ok and name != "determinant-is-one", detail, *args, name=name)
    monkeypatch.setattr(genpairs, "check", failing)
    assert main(_WITNESS + ["--json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal check failed: witness determinant is not 1\n"


def test_identity_checks_survive_python_dash_o():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def assertions(*flags, argv):
        proc = subprocess.run([sys.executable, *flags, "-m", "cuspidal", *argv, "--json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["assertions"]

    for argv, count in ((_VEC, 2), (_WITNESS, 4)):
        plain = assertions(argv=argv)
        assert len(plain) == count
        assert assertions("-O", argv=argv) == plain


def test_check_builds_its_message_only_on_failure():
    class Loud:
        def __format__(self, spec):
            raise AssertionError("formatted a passing check")

    check(True, "{}", Loud())
    with pytest.raises(InternalCheckError, match="^2 is not 3$"):
        check(False, "{} is not {}", 2, 3)


def test_the_ledger_is_open_only_inside_main():
    assert ledger.get() is None
    check(True, "unused", name="outside")  # nothing to record into
    assert ledger.get() is None
    names = {}
    token = ledger.set(names)
    try:
        for name in ("b", "a", "b"):
            check(True, "unused", name=name)
        check(True, "unused")
    finally:
        ledger.reset(token)
    assert list(names) == ["b", "a"]
    assert main(_VEC) == 0 and ledger.get() is None
