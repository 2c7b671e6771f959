"""The command table of cli against the argparse parser it replaced, and the
--json writer against json.dumps(indent=2)."""

import argparse
import contextlib
import functools
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import cli
from cuspidal.cli import (
    MAX_EXPONENT,
    MAX_N,
    _cmd_curve,
    _cmd_cusps,
    _cmd_ideal,
    _cmd_pair,
    _cmd_pic,
    _cmd_selftest,
    _cmd_unit,
    _cmd_vec,
)
from cuspidal.errors import UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        # argparse quotes a rejected value in full; echo at most 24 characters
        raise UsageError(re.sub(r"'([^']{24})[^']+'", r"'\1'", message))


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call; parse_args leaves it unchanged."""
    parser = _Parser(prog="cuspidal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def order_args(p, gens=False):
        p.add_argument("--m", type=int, required=True,
                       help="squarefree integer defining Q(sqrt(m))")
        p.add_argument("--f", type=int, default=1, help="conductor of the order")
        if gens:
            p.add_argument("--gens", required=True,
                           help="semicolon-separated elements, e.g. '2; 1+2*w'")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--bound", type=int, default=None,
                        help="budget of primitive candidate ideals in class"
                        " enumeration, and of the A-window and the reduced forms"
                        " listed for a class number; overrides CUSPIDAL_BOUND,"
                        " which alone caps the rho-steps of the unit walk")

    p = sub.add_parser("cusps", parents=[budget], help="cusp count with per-divisor breakdown")
    order_args(p)
    p.add_argument("--no-check", action="store_true",
                   help="skip the independent enumeration cross-check")
    p.set_defaults(handler=_cmd_cusps)

    p = sub.add_parser("pic", parents=[budget], help="Picard group order of Z + Z*f*omega")
    order_args(p)
    p.add_argument("--brute", action="store_true",
                   help="cross-check against plain class enumeration")
    p.set_defaults(handler=_cmd_pic)

    p = sub.add_parser("unit", help="fundamental unit and torsion of an order")
    order_args(p)
    p.set_defaults(handler=_cmd_unit)

    p = sub.add_parser("ideal", help="invariants of one ideal")
    p.add_argument("ideal_op", choices=["std-basis", "norm", "fitt1", "inverse", "mult-ring"])
    order_args(p, gens=True)
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("pair", help="compare two generating pairs of an ideal")
    p.add_argument("pair_op", choices=["det", "equiv", "witness"])
    order_args(p)
    p.add_argument("--pair", required=True, help="two elements 'g1; g2'")
    p.add_argument("--pair2", required=True, help="two elements 'h1; h2'")
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("vec", help="reduce a generating vector to a pair")
    p.add_argument("vec_op", choices=["reduce"])
    order_args(p, gens=True)
    p.set_defaults(handler=_cmd_vec)

    p = sub.add_parser("curve", help="ideals of K[x^2, x^n]")
    p.add_argument("curve_op", choices=["reduce", "fitt1", "mult-ring", "units"])
    p.add_argument("--n", type=int, required=True,
                   help=f"odd exponent of the curve ring, at most {MAX_N}")
    p.add_argument("--field", default="rational",
                   help="'rational' or a prime such as 'f5'")
    p.add_argument("--gens", required=True,
                   help="semicolon-separated polynomials, e.g. '1 + x^2; x^3',"
                        f" with exponents at most {MAX_EXPONENT}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("selftest", help="run the built-in consistency matrix")
    p.add_argument("--max-f", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _unique_prefixes(flag: str, flags) -> list[str]:
    """flag and each shorter prefix of it, past '--', that no other flag of
    the command (nor --help) starts with."""
    others = [f for f in (*flags, "--help") if f != flag]
    return [flag] + [flag[:k] for k in range(3, len(flag))
                     if not any(o.startswith(flag[:k]) for o in others)]


# values that argparse reads as one argument: no leading '-', except negative ints
_TEXT = st.text(alphabet="abwx12^*+;= ", max_size=12).filter(lambda t: not t.startswith("-"))
_INT = st.integers(-10**6, 10**6).flatmap(
    lambda n: st.sampled_from([str(n), f" {n}", f"{n} "] + ([f"+{n}"] if n >= 0 else [])))


@st.composite
def _groups(draw):
    """(command, token groups) of one command: every required flag, some
    optional ones, some repeated, in any order, by '--flag value' or
    '--flag=value' and by unique prefixes, with the operation anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, op, choices, flags = cli._COMMANDS[command]
    groups = []
    for flag, (kind, _, required, _) in flags.items():
        for _ in range(draw(st.integers(1 if required else 0, 2))):
            name = draw(st.sampled_from(_unique_prefixes(flag, flags)))
            if kind is None:
                groups.append([name])
                continue
            value = draw(_INT if kind is int else _TEXT)
            groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    groups = draw(st.permutations(groups))
    if op:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(choices))])
    return command, groups


def _argv(command, groups) -> list[str]:
    return [command] + [token for group in groups for token in group]


def _namespace(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "handler"}


@settings(max_examples=400, deadline=None)
@given(_groups())
def test_parse_agrees_with_argparse_on_accepted_argv(drawn):
    argv = _argv(*drawn)
    expected = _build_parser().parse_args(argv)
    got = cli._parse(argv)
    assert _namespace(got) == _namespace(expected)
    assert got.handler is expected.handler


_FAULTS = {
    "unknown": lambda flags: [["--zzz"], ["--zzz", "1"], ["--mm=3"], ["--no-such"]],
    "bound": lambda flags: [] if "--bound" in flags else [["--bound", "5"]],
    "ambiguous": lambda flags: [[p, "1"] for p in ("--b", "--pa", "--pai")
                                if sum(f.startswith(p) for f in flags) > 1],
    "int": lambda flags: [[f, bad] for f in flags if flags[f][0] is int
                          for bad in ("5x", "", "1.5", "w")],
}


@st.composite
def _rejected(draw):
    """An accepted argv with one fault: an unknown flag, --bound where it does
    not belong, an ambiguous prefix, a bad int, a bad choice, or a missing
    required flag or operation."""
    command, groups = draw(_groups())
    _, _, op, choices, flags = cli._COMMANDS[command]
    fault = draw(st.sampled_from([*_FAULTS, "choice", "missing"]))
    if fault in _FAULTS:
        extras = _FAULTS[fault](flags) or _FAULTS["unknown"](flags)
        groups.insert(draw(st.integers(0, len(groups))), draw(st.sampled_from(extras)))
    elif fault == "choice" and op:
        bad = draw(st.sampled_from(["nrm", "", "reduce2", "cusps"]))
        groups = [[bad] if group[0] in choices else group for group in groups]
    else:  # drop the operation or every occurrence of a required flag
        required = [op] * bool(op) + [f for f in flags if flags[f][2]]
        gone = draw(st.sampled_from(required)) if required else None
        names = choices if gone == op else _unique_prefixes(gone, flags) if gone else []
        groups = [g for g in groups if g[0].split("=", 1)[0] not in names] + [["--zzz"]] * (not gone)
    return _argv(command, groups)


@settings(max_examples=400, deadline=None)
@given(_rejected())
def test_argv_that_argparse_rejects_is_a_usage_error(argv):
    with pytest.raises(UsageError):
        _build_parser().parse_args(argv)
    with pytest.raises(UsageError):
        cli._parse(argv)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(argv) == 1
    assert err.getvalue().startswith("usage error:")


def test_a_value_may_begin_with_a_dash():
    # argparse took '-3*w' for a flag and refused it with "expected one argument"
    argv = ["ideal", "norm", "--m", "-5", "--gens", "-3*w"]
    with pytest.raises(UsageError, match="expected one argument"):
        _build_parser().parse_args(argv)
    assert cli._parse(argv).gens == "-3*w"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["ideal", "norm", "--gens", "1"], "the following arguments are required: --m"),
    (["ideal", "--m", "5"], "the following arguments are required: ideal_op, --gens"),
    (["ideal", "norm", "--m", "5x", "--gens", "1"], "argument --m: invalid int value: '5x'"),
    (["ideal", "nrm", "--m", "5", "--gens", "1"], "argument ideal_op: invalid choice: 'nrm'"),
    (["unit", "--m"], "argument --m: expected one argument"),
    (["pic", "--m", "5", "--b", "2"], "ambiguous option: --b could match --bound, --brute"),
    (["unit", "--m", "2", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
    (["unit", "--m", "2", "--bound", "5"], "unrecognized arguments: --bound 5"),
])
def test_usage_errors_keep_argparse_wording(argv, message):
    with pytest.raises(UsageError) as exc:
        _build_parser().parse_args(argv)
    assert message in str(exc.value)
    with pytest.raises(UsageError) as exc:
        cli._parse(argv)
    assert message in str(exc.value)


_LEAVES = st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text()


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=25))
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


def test_json_writer_on_empty_containers_and_escapes():
    for obj in ({}, [], {"a": [], "b": {}}, [[], {}], "é\x00\n\"\\\U0001f600", {"": [None]}):
        assert cli._json(obj) == json.dumps(obj, indent=2)


# ints small enough that every command answers at once, and short text, none of it
# digits only, so that no --m or --n reaches a large field or ring; some text reads as
# elements, polynomials or fields, so that many runs get past the usage checks
_SMALL = st.sampled_from([3, 5, 7, 2, 1, 6, -1, -3, -5, -2, 0, 4, 11, -7]).map(str)
_JUNK = st.text(alphabet="abfwx12^*+-/;=[], ", max_size=8).filter(lambda t: not t.isdigit())
_VALUE = {int: (_SMALL, _JUNK), None: (st.none(), st.none()), str: (st.sampled_from(
    ["2; 1+w", "3; 3*w", "3*w; 3", "3; 3+3*w", "6; 2+2*w; 4*w", "1; x^3", "2 + x; x^3", "f3"]),
    _JUNK)}


@st.composite
def _any_argv(draw, faulty: bool):
    """A command other than selftest with its operation and flags, valid ones with
    each required flag given; if faulty, also junk operations, junk values, missing
    flags, unknown flags, '--help' and a lone '-', in any order."""
    fault = st.booleans() if faulty else st.just(False)
    command = draw(st.sampled_from([c for c in cli._COMMANDS if c != "selftest"]))
    _, _, op, choices, flags = cli._COMMANDS[command]
    groups = [[draw(_JUNK if draw(fault) else st.sampled_from(choices))]] if op else []
    picked = [f for f, spec in flags.items() if spec[2] and not draw(fault)]
    others = [*flags, "--help", "--zzz", "-"] if faulty else [*flags]
    for flag in picked + draw(st.lists(st.sampled_from(others), max_size=3)):
        good, bad = _VALUE[flags[flag][0] if flag in flags else None]
        value = draw(bad if draw(fault) else good)
        groups.append([flag] if value is None else [f"{flag}={value}"] if draw(st.booleans())
                      else [flag, value])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=300, deadline=None)
@given(_any_argv(False) | _any_argv(True))
def test_main_only_returns_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
