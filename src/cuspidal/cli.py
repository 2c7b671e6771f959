"""Command line interface.

Every subcommand prints either plain text or, with --json, a single
object {"schema": 1, "command", "inputs", "result", "assertions"} in
which integers are rendered as decimal strings. Exit codes: 0 success,
1 usage errors, 2 search bounds or memory exhausted (one "inconclusive:"
line, no traceback), 3 a verified-on-the-spot
identity failed, 141 (128 + SIGPIPE) stdout closed before the report was
written. The assertions are the named checks (errors.check) that
passed during the run, read from the ledger that main opens; a failed check
exits 3 before any report is printed.
"""

from __future__ import annotations

import math
import os
import sys
import time
from types import SimpleNamespace

from .config import MAX_EXPONENT, MAX_N, budget, resolve_bound
from .errors import InconclusiveError, UsageError, check, ledger
from .quadfield import QuadElt, QuadField, parse_element
from .quadideal import (
    Order,
    QIdeal,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    multiplier_conductor,
)


def _s(x, what: str = "a result") -> str:
    """str(x) for an int, a CurvePoly or a QuadElt of the result; exit 2, naming the knob,
    when one of its ints is past the interpreter's limit on printing an int."""
    try:
        return str(x)
    except ValueError:
        ints = ([x] if isinstance(x, int)
                else [x.a, x.b] if isinstance(x, QuadElt) else [*x.nums, x.den])
        big = max(map(abs, ints))
        digits = int(big.bit_length() * math.log10(2)) + 1
        digits -= 10 ** (digits - 1) > big
        raise _past_print_limit(what, digits) from None


def _past_print_limit(what: str, digits: int | str) -> InconclusiveError:
    return InconclusiveError(
        f"{what} has {digits} digits, past the {sys.get_int_max_str_digits()}-digit limit"
        " on printing an int; raise it with PYTHONINTMAXSTRDIGITS or -X int_max_str_digits")


def _order_of(args: SimpleNamespace) -> Order:
    return Order(QuadField(args.m), args.f)


def _elements(order: Order, text: str) -> list:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise UsageError("no elements given")
    out = []
    for part in parts:
        elt = parse_element(order.field, part)
        if not order.contains(elt):
            raise UsageError(f"{part[:24]!r} is not in {order}")
        out.append(elt)
    return out


def _ideal_of(args: SimpleNamespace) -> tuple[Order, list, object]:
    order = _order_of(args)
    gens = _elements(order, args.gens)
    return order, gens, ideal_from_generators(order, gens)


def _ideal_dict(ideal) -> dict:
    return {
        "a": _s(ideal.a),
        "d": _s(ideal.d),
        "e": _s(ideal.e),
        "basis": [_s(ideal.gen1), _s(ideal.gen2)],
        "norm": _s(ideal.norm()),
    }


def _witness_dict(witness) -> dict:
    return {"rows": [[_s(x) for x in row] for row in witness.entries]}


def _witness_lines(witness) -> list[str]:
    return ["[" + ", ".join(_s(x) for x in row) + "]" for row in witness.entries]


# ---------------------------------------------------------------------------
# handlers: each returns (inputs, result, lines); the assertions come from the ledger.
# Each imports the modules it runs beyond the quadratic core, so a command compiles
# only its own stack; a plain import, as a from-import costs several times as much.


def _cmd_cusps(args):
    import cuspidal.cusps as cusps
    import cuspidal.oracles as oracles

    order = _order_of(args)
    breakdown = cusps.cusp_count(order)
    if not args.no_check:
        direct = oracles.cusp_count_direct(order)
        check(direct == breakdown.total, "the direct count {} differs from the formula's {}",
              direct, breakdown.total, name="direct-count-agreement")
    inputs = {"m": _s(args.m), "f": _s(args.f)}
    result = {
        "total": _s(breakdown.total),
        "terms": [
            {
                "f_prime": _s(t.f_prime),
                "n0": _s(t.n0),
                "phi": _s(t.phi),
                "halved": t.halved,
                "pic": _s(t.pic.h),
                "contribution": _s(t.contribution),
            }
            for t in breakdown.terms
        ],
    }
    lines = [f"cusp count of {order}: {breakdown.total}"]
    for t in breakdown.terms:
        half = "/2" if t.halved else ""
        lines.append(
            f"  f'={t.f_prime}: phi({t.n0}){half} * Pic = {t.phi}{half} * {t.pic.h}"
            f" = {t.contribution}"
        )
    return inputs, result, lines


def _cmd_pic(args):
    import cuspidal.classnum as classnum
    import cuspidal.oracles as oracles

    order = _order_of(args)
    pic = classnum.picard_order(order)
    if args.brute:
        other = oracles.brute_force_pic(order)
        check(other.h == pic.h, "class enumeration finds {} classes, the formula {}",
              other.h, pic.h, name="enumeration-agreement")
    inputs = {"m": _s(args.m), "f": _s(args.f)}
    result = {"h": _s(pic.h), "method": pic.method}
    lines = [f"|Pic({order})| = {pic.h}  ({pic.method})"]
    return inputs, result, lines


def _cmd_unit(args):
    import cuspidal.units as units

    field = QuadField(args.m)
    info = units.fundamental_unit(field, args.f)
    eps, k, limit = info.maximal, info.power_in_maximal, sys.get_int_max_str_digits()
    if eps is not None and k > 1 and limit:
        # eps^k = (T + U*sqrt(D))/2 has omega-coefficient U >= (eps^k - 1)/sqrt(D), a
        # lower bound on its digits before it is expanded; eps itself has U = eps.b
        disc = field.disc_max
        low = math.log10(eps.trace() * 10**6 + math.isqrt(eps.b**2 * disc * 10**12))
        digits = int(k * (low - math.log10(2 * 10**6)) - math.log10(disc) / 2 - 1)
        if digits > limit:
            raise _past_print_limit("the fundamental unit", f"at least {digits}")
    unit = None if eps is None else _s(info.fundamental, "the fundamental unit")
    inputs = {"m": _s(args.m), "f": _s(args.f)}
    result = {
        "fundamental": unit,
        "power_in_maximal": _s(k),
        "torsion_gen": _s(info.torsion_gen),
        "torsion_order": _s(info.torsion_order),
        "has_norm_minus_one": info.has_norm_minus_one,
    }
    lines = []
    if eps is None:
        lines.append(f"unit group of conductor {args.f} in Q(sqrt({args.m})) is torsion")
    else:
        norm = -1 if info.has_norm_minus_one else 1
        lines.append(f"fundamental unit: {unit}  (norm {norm})")
        lines.append(f"equals the maximal-order fundamental unit to the power {k}")
    lines.append(f"torsion: {info.torsion_gen} of order {info.torsion_order}")
    lines.append(f"norm -1 unit exists: {'yes' if info.has_norm_minus_one else 'no'}")
    if args.f > 1:
        idx = units.unit_index(field, args.f)
        result["index_in_maximal"] = _s(idx)
        lines.append(f"index of the unit group in the maximal order's: {idx}")
    return inputs, result, lines


def _cmd_ideal(args):
    order, gens, ideal = _ideal_of(args)
    inputs = {"m": _s(args.m), "f": _s(args.f), "gens": [_s(g) for g in gens]}
    if args.ideal_op == "std-basis":
        result = _ideal_dict(ideal)
        lines = [f"standard basis of <{args.gens}> in {order}:",
                 f"  Z*{ideal.gen1} + Z*({ideal.gen2})   (a={ideal.a}, d={ideal.d}, e={ideal.e})",
                 f"  norm {ideal.norm()}"]
    elif args.ideal_op == "norm":
        result = {"norm": _s(ideal.norm())}
        lines = [f"norm = {ideal.norm()}"]
    elif args.ideal_op == "fitt1":
        fitting = fitt1(ideal)
        result = _ideal_dict(fitting)
        lines = [f"Fitt_1 = I * I^(-1) = Z*{fitting.gen1} + Z*({fitting.gen2})",
                 f"  norm {fitting.norm()}"]
    elif args.ideal_op == "inverse":
        inv = ideal_inverse(ideal)
        product = ideal_mul(ideal, inv.num)
        closed = QIdeal(order, order.f // multiplier_conductor(ideal), 0, 1)  # Z*(f/f') + Z*f*w
        check(product == closed.scaled(inv.den), "I * I^(-1) = {} / {} is not Fitt_1",
              product, inv.den, name="product-is-fitting-ideal")
        result = {"num": _ideal_dict(inv.num), "den": _s(inv.den)}
        lines = [f"I^(-1) = ({inv.num.gen1}, {inv.num.gen2}) / {inv.den}"]
    else:  # mult-ring
        import cuspidal.genpairs as genpairs

        f_prime = multiplier_conductor(ideal)
        n0 = order.f // f_prime
        eps = genpairs.epsilon_subgroup(order, f_prime)
        sl2 = genpairs.orbit_count_sl2_mod_units(order, f_prime)
        gl2 = genpairs.orbit_count_gl2(order, f_prime)
        result = {
            "f_prime": _s(f_prime),
            "n0": _s(n0),
            "epsilon_subgroup": [_s(r) for r in eps],
            "sl2_orbits": _s(sl2),
            "gl2_orbits": _s(gl2),
        }
        lines = [
            f"multiplier ring: conductor {f_prime}  (n0 = f/f' = {n0})",
            f"epsilon subgroup mod n0: {{{', '.join(str(r) for r in eps)}}}",
            f"generating-pair orbits: {sl2} under SL2 x units, {gl2} under GL2",
        ]
    return inputs, result, lines


def _two_elements(order: Order, text: str, flag: str) -> list:
    gens = _elements(order, text)
    if len(gens) != 2:
        raise UsageError(f"{flag} needs exactly two elements, got {len(gens)}")
    return gens


def _cmd_pair(args):
    import cuspidal.genpairs as genpairs

    order = _order_of(args)
    pair = genpairs.GenPair(order, *_two_elements(order, args.pair, "--pair"))
    other = genpairs.GenPair(order, *_two_elements(order, args.pair2, "--pair2"))
    if other.ideal != pair.ideal:
        raise UsageError(f"--pair2 {args.pair2[:24]!r} does not generate the ideal of --pair")
    inputs = {
        "m": _s(args.m),
        "f": _s(args.f),
        "pair": [_s(g) for g in (pair.g1, pair.g2)],
        "pair2": [_s(g) for g in (other.g1, other.g2)],
    }
    if args.pair_op == "det":
        cls = genpairs.det_pair(pair, other)
        result = {"value": _s(cls.value), "modulus": _s(cls.modulus)}
        lines = [f"det class of the change of generators: {cls.value} mod {cls.modulus}"]
    elif args.pair_op == "equiv":
        cls = genpairs.det_pair(pair, other)
        result = {"equivalent": cls.is_one,
                  "value": _s(cls.value), "modulus": _s(cls.modulus)}
        verdict = "SL2-equivalent" if cls.is_one else "not SL2-equivalent"
        lines = [f"{verdict}  (det class {cls.value} mod {cls.modulus})"]
    else:  # witness
        witness = genpairs.sl2_witness(pair, other)
        result = {"matrix": _witness_dict(witness)}
        lines = ["SL2 witness (row vector convention, pair @ B = pair2):"]
        lines += ["  " + ln for ln in _witness_lines(witness)]
    return inputs, result, lines


def _cmd_vec(args):
    import cuspidal.genpairs as genpairs

    order = _order_of(args)
    vec = genpairs.GenVec(order, _elements(order, args.gens))
    pair, witness = genpairs.reduce_vector(vec)
    inputs = {"m": _s(args.m), "f": _s(args.f), "gens": [_s(g) for g in vec.elements]}
    result = {
        "pair": [_s(pair.g1), _s(pair.g2)],
        "matrix": _witness_dict(witness),
    }
    lines = [f"reduced pair: ({pair.g1}; {pair.g2})",
             "unimodular witness (vec @ sigma = (pair, 0, ..., 0)):"]
    lines += ["  " + ln for ln in _witness_lines(witness)]
    return inputs, result, lines


def _cmd_curve(args):
    import cuspidal.curvering as curvering
    import cuspidal.fieldpoly as fieldpoly

    field = fieldpoly.CoeffField.from_name(args.field)
    gens = [fieldpoly.parse_curve_poly(field, p) for p in args.gens.split(";") if p.strip()]
    ideal = curvering.curve_ideal_from_generators(field, args.n, gens)
    inputs = {"n": _s(args.n), "field": args.field, "gens": [_s(g, "a generator") for g in gens]}
    if args.curve_op == "reduce":
        result = {k: _s(getattr(ideal, k), f"a coefficient of {k}") for k in ("content", "p", "q")}
        result["nu"] = _s(ideal.nu)
        lines = [f"canonical pair: content ({result['content']}) times (p; q) with",
                 f"  p = {result['p']}",
                 f"  q = {result['q']}",
                 f"  nu = {ideal.nu}"]
    elif args.curve_op == "fitt1":
        fitting = curvering.curve_fitt1(ideal)
        result = {"exponent": _s(fitting.exponent), "module": str(fitting)}
        lines = [f"Fitt_1 = {fitting}"]
    elif args.curve_op == "mult-ring":
        ring = curvering.curve_multiplier_ring(ideal)
        result = {"nu": _s(ring.nu), "ring": str(ring)}
        lines = [f"multiplier ring: {ring}"]
    else:  # units
        if field.char == 0:
            raise UsageError("unit counts need a finite coefficient field, e.g. --field f5")
        count = curvering.curve_unit_group_order(field, args.n, ideal.nu)
        k = (args.n - 1 - ideal.nu) // 2
        result = {"count": _s(count, "the unit count"), "nu": _s(ideal.nu)}
        if field.char ** k <= 4000:
            import cuspidal.oracles as oracles

            brute = oracles.curve_unit_group_brute(field, args.n, ideal.nu)
            check(brute == count, "enumeration finds {} units, the formula {}", brute, count,
                  name="brute-force-agreement")
        lines = [f"|(R/Fitt_1)^x| over {field.name}: {result['count']}"]
    return inputs, result, lines


def _cmd_selftest(args):
    import cuspidal.curvering as curvering
    import cuspidal.cusps as cusps
    import cuspidal.fieldpoly as fieldpoly
    import cuspidal.oracles as oracles

    if args.max_f < 1:
        raise UsageError(f"--max-f must be at least 1, got {str(args.max_f)[:24]}")
    lines = []
    t0 = time.time()
    for m in (-1, -2, -3, -5, -7, -11, -15, 2, 3, 5, 6, 7):
        order = Order(QuadField(m), 1)
        total, direct = cusps.cusp_count(order).total, oracles.cusp_count_direct(order)
        check(total == direct, "the cusp count {} of Q(sqrt({})) differs from the direct count {}",
              total, m, direct, name=f"maximal-order-count-m={m}")
    t1 = time.time()
    lines.append(f"maximal orders: class number equals the direct count  [{t1 - t0:.2f}s]")
    for m in (-1, -2, -3, -5, 2, 3, 5):
        field = QuadField(m)
        for f in range(1, args.max_f + 1):
            order = Order(field, f)
            total, direct = cusps.cusp_count(order).total, oracles.cusp_count_direct(order)
            check(total == direct, "the cusp count {} of {} differs from the direct count {}",
                  total, order, direct, name="formula-vs-enumeration-grid")
    t2 = time.time()
    lines.append(
        f"formula vs direct enumeration, 7 fields x f <= {args.max_f}  [{t2 - t1:.2f}s]"
    )
    q_field = fieldpoly.CoeffField(0)
    for n, text, nu in ((5, "1; x^3", 2), (3, "1 + x; x^2", 2), (7, "1; x", 0)):
        gens = [fieldpoly.parse_curve_poly(q_field, t) for t in text.split(";")]
        ideal = curvering.curve_ideal_from_generators(q_field, n, gens)
        curvering.curve_fitt1(ideal)
        curvering.curve_multiplier_ring(ideal)
        check(ideal.nu == nu, "nu = {} for ({}) at n = {}, expected {}", ideal.nu, text, n, nu,
              name=f"curve-n={n}-({text})")
    f5 = fieldpoly.CoeffField(5)
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            count = curvering.curve_unit_group_order(f5, n, nu)
            brute = oracles.curve_unit_group_brute(f5, n, nu)
            check(count == brute, "{} units by the formula, {} by enumeration", count, brute,
                  name=f"curve-units-n={n}-nu={nu}")
    t3 = time.time()
    lines.append(f"curve ring invariants and unit counts  [{t3 - t2:.2f}s]")
    # a failed check exits 3 before any report, so every check counted here passed
    checks = len(ledger.get())
    lines.append(f"selftest: {checks}/{checks} checks passed in {t3 - t0:.2f}s")
    return {"max_f": _s(args.max_f)}, {"checks": _s(checks), "failed": []}, lines


def _cmd_help(args):
    """Usage of the program, or of args.command with its operation and flags."""
    if args.command is None:
        rows = [f"  {name:<9} {spec[1]}" for name, spec in _COMMANDS.items()]
        return None, None, ["usage: cuspidal COMMAND [--help | flags]", "commands:", *rows]
    _, text, op, choices, flags = _COMMANDS[args.command]
    lines = [f"usage: cuspidal {args.command} " + (f"{{{','.join(choices)}}} " if op else "")
             + "[--flag value | --flag=value ...]", "", text, "", "flags:"]
    for flag, (kind, default, required, about) in flags.items():
        note = " (required)" if required else f" (default {default})" if kind and default else ""
        lines.append(f"  {flag + (f' {flag[2:].upper()}' if kind else ''):<14} {about}{note}")
    return None, None, lines


# ---------------------------------------------------------------------------
# the command table: name -> (handler, help, operation positional, its choices,
# flags); a flag is name -> (type, default, required, help), where the type int
# or str takes the next token (or the text after '=') and None is a switch

_ORDER = {"--m": (int, None, True, "squarefree integer defining Q(sqrt(m))"),
          "--f": (int, 1, False, "conductor of the order")}
_GENS = {"--gens": (str, None, True, "semicolon-separated elements, e.g. '2; 1+2*w'")}
_JSON = {"--json": (None, False, False, "machine-readable output")}
_BOUND = {"--bound": (int, None, False, "budget of the run's searches; overrides CUSPIDAL_BOUND")}
_COMMANDS = {
    "cusps": (_cmd_cusps, "cusp count with per-divisor breakdown", None, (), {
        **_BOUND, **_ORDER, **_JSON,
        "--no-check": (None, False, False, "skip the independent enumeration cross-check")}),
    "pic": (_cmd_pic, "Picard group order of Z + Z*f*omega", None, (), {
        **_BOUND, **_ORDER, **_JSON,
        "--brute": (None, False, False, "cross-check against plain class enumeration")}),
    "unit": (_cmd_unit, "fundamental unit and torsion of an order", None, (), {**_ORDER, **_JSON}),
    "ideal": (_cmd_ideal, "invariants of one ideal", "ideal_op",
              ("std-basis", "norm", "fitt1", "inverse", "mult-ring"),
              {**_ORDER, **_GENS, **_JSON}),
    "pair": (_cmd_pair, "compare two generating pairs of an ideal", "pair_op",
             ("det", "equiv", "witness"), {
                 **_ORDER, **_JSON, "--pair": (str, None, True, "two elements 'g1; g2'"),
                 "--pair2": (str, None, True, "two elements 'h1; h2'")}),
    "vec": (_cmd_vec, "reduce a generating vector to a pair", "vec_op", ("reduce",),
            {**_ORDER, **_GENS, **_JSON}),
    "curve": (_cmd_curve, "ideals of K[x^2, x^n]", "curve_op",
              ("reduce", "fitt1", "mult-ring", "units"), {
                  "--n": (int, None, True, f"odd exponent of the curve ring, at most {MAX_N}"),
                  "--field": (str, "rational", False, "'rational' or a prime such as 'f5'"),
                  "--gens": (str, None, True, "semicolon-separated polynomials, e.g."
                             f" '1 + x^2; x^3', with exponents at most {MAX_EXPONENT}"), **_JSON}),
    "selftest": (_cmd_selftest, "run the built-in consistency matrix", None, (), {
        "--max-f": (int, 6, False, "largest conductor of the enumeration grid"), **_JSON}),
}


def _choice(name: str, value: str, choices) -> str:
    if value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value[:24]!r}"
                         f" (choose from {', '.join(map(repr, choices))})")
    return value


def _option(token: str, flags: dict) -> tuple[str | None, str | None]:
    """(the flag a token names by its name or a unique prefix, or None; its '=' value or None)"""
    name, eq, value = token.partition("=")
    if name not in flags and name not in ("-h", "--help"):
        hits = [f for f in (*flags, "--help") if f.startswith(name)] if name[:2] == "--" else []
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {token[:24]} could match {', '.join(hits)}")
        name = hits[0] if hits else None
    return name, value if eq else None


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv read by argparse's rules and wording; a flag takes the next token, whatever it is."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    if _option(argv[0], {}) in (("-h", None), ("--help", None)):
        return SimpleNamespace(command=None, handler=_cmd_help)
    command = _choice("command", argv[0], _COMMANDS)
    handler, _, op, choices, flags = _COMMANDS[command]
    values, extras, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        flag, value = _option(token, flags) if token[:1] == "-" else (None, None)
        kind = flags[flag][0] if flag in flags else None
        if flag is None and (token[:1] == "-" or not op or op in values):
            extras.append(token[:24])
        elif flag is None:
            values[op] = _choice(op, token, choices)
        elif kind is None and value is not None:
            raise UsageError(f"argument {flag}: ignored explicit argument {value[:24]!r}")
        elif flag not in flags:  # -h or --help
            return SimpleNamespace(command=command, handler=_cmd_help)
        elif kind is None:
            values[flag] = True
        else:
            value = next(tokens, None) if value is None else value
            if value is None:
                raise UsageError(f"argument {flag}: expected one argument")
            try:
                values[flag] = kind(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value[:24]!r}") from None
    required = [op] * bool(op) + [flag for flag, spec in flags.items() if spec[2]]
    if missing := [name for name in required if name not in values]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args = {flag[2:].replace("-", "_"): values.get(flag, spec[1]) for flag, spec in flags.items()}
    return SimpleNamespace(command=command, handler=handler, **args,
                           **({op: values[op]} if op else {}))


def _json(payload) -> str:
    """json.dumps(payload, indent=2) for the payload types: dict, list, str, bool, None,
    int. Only --json runs import the json package, once per payload. A container's loop
    writes its leaves and calls dump only for the containers in it. Loops, not
    comprehensions: on CPython 3.11 a comprehension would close over quote and dump."""
    import json.encoder  # a plain import: a from-import adds a failed __path__ lookup
    quote = json.encoder.encode_basestring_ascii

    def dump(obj, indent: str) -> str:
        keyed, inner, items = type(obj) is dict, indent + "  ", []
        for k, v in obj.items() if keyed else enumerate(obj):
            kind = type(v)
            if kind is str:
                text = quote(v)
            elif kind is dict or kind is list:
                text = dump(v, inner)
            else:  # None, a bool or an int: str(True).lower() is "true"
                text = "null" if v is None else str(v).lower()
            items.append(quote(k) + ": " + text if keyed else text)
        ends = "{}" if keyed else "[]"
        return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends

    if type(payload) is dict or type(payload) is list:
        return dump(payload, "\n")
    return json.dumps(payload)  # a lone scalar, which no command writes


def main(argv: list[str] | None = None) -> int:
    names: dict[str, None] = {}
    token, opened = ledger.set(names), budget.set(None)
    code = 0
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if hasattr(args, "bound"):  # cusps and pic: one budget for every search of the run
            if args.bound is not None and args.bound < 1:
                raise UsageError(f"bound must be positive, got {str(args.bound)[:24]}")
            budget.set(args.bound or resolve_bound())
        inputs, result, lines = args.handler(args)
    except UsageError as exc:
        code, lines = 1, [f"usage error: {exc}"]
    except InconclusiveError as exc:
        code, lines = 2, [f"inconclusive: {exc}"]
    except MemoryError:
        code, lines = 2, ["inconclusive: the run ran out of memory"]
    except AssertionError as exc:  # an InternalCheckError or a bare assert
        code, lines = 3, [f"internal check failed: {exc}"]
    else:
        if getattr(args, "json", False):
            payload = {
                "schema": 1,
                "command": args.command,
                "inputs": inputs,
                "result": result,
                "assertions": [{"name": name, "status": "pass"} for name in names],
            }
            lines = [_json(payload)]
        else:
            lines = [*lines, *(f"[pass] {name}" for name in names)]
    finally:
        ledger.reset(token)
        budget.reset(opened)
    stream = sys.stderr if code else sys.stdout
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the stream: send the unflushed rest to devnull, so the
        # interpreter's flush at exit stays quiet, and keep the exit code; a closed
        # stdout exits as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return code or 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
