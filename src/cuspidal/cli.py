"""Command line interface.

Every subcommand prints either plain text or, with --json, a single
object {"schema": 1, "command", "inputs", "result", "assertions"} in
which integers are rendered as decimal strings. Exit codes: 0 success,
1 usage errors, 2 search bounds exhausted, 3 a verified-on-the-spot
identity failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .classnum import class_number_maximal, picard_order
from .config import resolve_bound
from .cusps import cusp_count
from .curvering import (
    curve_fitt1,
    curve_ideal_from_generators,
    curve_multiplier_ring,
    curve_unit_group_order,
)
from .errors import InconclusiveError, InternalCheckError, UsageError
from .fieldpoly import CoeffField, parse_curve_poly
from .genpairs import (
    GenPair,
    GenVec,
    det_pair,
    epsilon_subgroup,
    orbit_count_gl2,
    orbit_count_sl2_mod_units,
    reduce_vector,
    sl2_witness,
)
from .oracles import brute_force_pic, curve_unit_group_brute, cusp_count_direct
from .quadfield import QuadField, parse_element
from .quadideal import (
    Order,
    fitt1,
    ideal_from_generators,
    ideal_inverse,
    ideal_mul,
    multiplier_conductor,
)
from .units import fundamental_unit, unit_index


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _s(x: int) -> str:
    return str(int(x))


def _order_of(args: argparse.Namespace) -> Order:
    return Order(QuadField(args.m), args.f)


def _elements(order: Order, text: str) -> list:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise UsageError("no elements given")
    out = []
    for part in parts:
        elt = parse_element(order.field, part)
        if not order.contains(elt):
            raise UsageError(f"{elt} is not in {order}")
        out.append(elt)
    return out


def _ideal_of(args: argparse.Namespace) -> tuple[Order, list, object]:
    order = _order_of(args)
    gens = _elements(order, args.gens)
    return order, gens, ideal_from_generators(order, gens)


def _ideal_dict(ideal) -> dict:
    return {
        "a": _s(ideal.a),
        "d": _s(ideal.d),
        "e": _s(ideal.e),
        "basis": [str(ideal.gen1), str(ideal.gen2)],
        "norm": _s(ideal.norm()),
    }


def _witness_dict(witness) -> dict:
    return {"rows": [[str(x) for x in row] for row in witness.entries]}


def _witness_lines(witness) -> list[str]:
    return ["[" + ", ".join(str(x) for x in row) + "]" for row in witness.entries]


# ---------------------------------------------------------------------------
# handlers: each returns (inputs, result, assertions, lines)


def _cmd_cusps(args):
    order = _order_of(args)
    bound = resolve_bound(args.bound)
    breakdown = cusp_count(order, bound=bound)
    assertions = []
    if not args.no_check:
        direct = cusp_count_direct(order, bound=bound)
        assertions.append(("direct-count-agreement", direct == breakdown.total))
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
    return inputs, result, assertions, lines


def _cmd_pic(args):
    order = _order_of(args)
    bound = resolve_bound(args.bound)
    pic = picard_order(order, bound=bound)
    assertions = []
    if args.brute:
        other = brute_force_pic(order, bound=bound)
        assertions.append(("enumeration-agreement", other.h == pic.h))
    inputs = {"m": _s(args.m), "f": _s(args.f)}
    result = {"h": _s(pic.h), "method": pic.method}
    lines = [f"|Pic({order})| = {pic.h}  ({pic.method})"]
    return inputs, result, assertions, lines


def _cmd_unit(args):
    field = QuadField(args.m)
    info = fundamental_unit(field, args.f)
    inputs = {"m": _s(args.m), "f": _s(args.f)}
    result = {
        "fundamental": None if info.fundamental is None else str(info.fundamental),
        "power_in_maximal": _s(info.power_in_maximal),
        "torsion_gen": str(info.torsion_gen),
        "torsion_order": _s(info.torsion_order),
        "has_norm_minus_one": info.has_norm_minus_one,
    }
    lines = []
    if info.fundamental is None:
        lines.append(f"unit group of conductor {args.f} in Q(sqrt({args.m})) is torsion")
    else:
        norm = info.fundamental.norm()
        lines.append(f"fundamental unit: {info.fundamental}  (norm {norm})")
        lines.append(
            f"equals the maximal-order fundamental unit to the power {info.power_in_maximal}"
        )
    lines.append(f"torsion: {info.torsion_gen} of order {info.torsion_order}")
    lines.append(f"norm -1 unit exists: {'yes' if info.has_norm_minus_one else 'no'}")
    if args.f > 1:
        idx = unit_index(field, args.f)
        result["index_in_maximal"] = _s(idx)
        lines.append(f"index of the unit group in the maximal order's: {idx}")
    return inputs, result, [], lines


def _cmd_ideal(args):
    order, gens, ideal = _ideal_of(args)
    inputs = {"m": _s(args.m), "f": _s(args.f), "gens": [str(g) for g in gens]}
    assertions = []
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
        f_prime = multiplier_conductor(ideal)
        assertions.append(("fitting-norm-is-conductor-quotient",
                           fitting.norm() == order.f // f_prime))
        result = _ideal_dict(fitting)
        lines = [f"Fitt_1 = I * I^(-1) = Z*{fitting.gen1} + Z*({fitting.gen2})",
                 f"  norm {fitting.norm()}"]
    elif args.ideal_op == "inverse":
        inv = ideal_inverse(ideal)
        product = ideal_mul(ideal, inv.num)
        fitting = fitt1(ideal)
        assertions.append(("product-is-fitting-ideal",
                           product == fitting.scaled(inv.den)))
        result = {"num": _ideal_dict(inv.num), "den": _s(inv.den)}
        lines = [f"I^(-1) = ({inv.num.gen1}, {inv.num.gen2}) / {inv.den}"]
    else:  # mult-ring
        f_prime = multiplier_conductor(ideal)
        n0 = order.f // f_prime
        eps = epsilon_subgroup(ideal)
        sl2 = orbit_count_sl2_mod_units(ideal)
        gl2 = orbit_count_gl2(ideal)
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
    return inputs, result, assertions, lines


def _pair_of(args, order, ideal, text: str) -> GenPair:
    gens = _elements(order, text)
    if len(gens) != 2:
        raise UsageError(f"a pair needs exactly two elements, got {len(gens)}")
    return GenPair(ideal, gens[0], gens[1])


def _cmd_pair(args):
    order = _order_of(args)
    first = _elements(order, args.pair)
    if len(first) != 2:
        raise UsageError("--pair needs exactly two elements")
    ideal = ideal_from_generators(order, first)
    pair = GenPair(ideal, first[0], first[1])
    other = _pair_of(args, order, ideal, args.pair2)
    inputs = {
        "m": _s(args.m),
        "f": _s(args.f),
        "pair": [str(g) for g in (pair.g1, pair.g2)],
        "pair2": [str(g) for g in (other.g1, other.g2)],
    }
    assertions = []
    if args.pair_op == "det":
        cls = det_pair(pair, other, check=True)
        assertions.append(("class-invariance-under-resolve", True))
        result = {"value": _s(cls.value), "modulus": _s(cls.modulus)}
        lines = [f"det class of the change of generators: {cls.value} mod {cls.modulus}"]
    elif args.pair_op == "equiv":
        cls = det_pair(pair, other)
        result = {"equivalent": cls.is_one,
                  "value": _s(cls.value), "modulus": _s(cls.modulus)}
        verdict = "SL2-equivalent" if cls.is_one else "not SL2-equivalent"
        lines = [f"{verdict}  (det class {cls.value} mod {cls.modulus})"]
    else:  # witness
        witness = sl2_witness(pair, other)
        assertions.append(("determinant-is-one", True))
        assertions.append(("witness-maps-pair-to-pair2", True))
        result = {"matrix": _witness_dict(witness)}
        lines = ["SL2 witness (row vector convention, pair @ B = pair2):"]
        lines += ["  " + ln for ln in _witness_lines(witness)]
    return inputs, result, assertions, lines


def _cmd_vec(args):
    order = _order_of(args)
    gens = _elements(order, args.gens)
    if len(gens) < 2:
        raise UsageError("vector reduction needs at least two elements")
    ideal = ideal_from_generators(order, gens)
    vec = GenVec(ideal, tuple(gens))
    pair, witness = reduce_vector(vec)
    inputs = {"m": _s(args.m), "f": _s(args.f), "gens": [str(g) for g in gens]}
    result = {
        "pair": [str(pair.g1), str(pair.g2)],
        "matrix": _witness_dict(witness),
    }
    assertions = [("witness-determinant-one", True),
                  ("tail-entries-vanish", True)]
    lines = [f"reduced pair: ({pair.g1}; {pair.g2})",
             "unimodular witness (vec @ sigma = (pair, 0, ..., 0)):"]
    lines += ["  " + ln for ln in _witness_lines(witness)]
    return inputs, result, assertions, lines


def _curve_inputs(args, gens) -> dict:
    return {"n": _s(args.n), "field": args.field, "gens": [str(g) for g in gens]}


def _cmd_curve(args):
    field = CoeffField.from_name(args.field)
    parts = [p.strip() for p in args.gens.split(";") if p.strip()]
    gens = [parse_curve_poly(field, p) for p in parts]
    ideal = curve_ideal_from_generators(field, args.n, gens)
    inputs = _curve_inputs(args, gens)
    assertions = [("canonical-pair-spans-the-module", True),
                  ("colon-valuation-matches-nu", True)]
    if args.curve_op == "reduce":
        result = {
            "content": str(ideal.content),
            "p": str(ideal.p),
            "q": str(ideal.q),
            "nu": _s(ideal.nu),
        }
        lines = [f"canonical pair: content ({ideal.content}) times (p; q) with",
                 f"  p = {ideal.p}",
                 f"  q = {ideal.q}",
                 f"  nu = {ideal.nu}"]
    elif args.curve_op == "fitt1":
        fitting = curve_fitt1(ideal)
        assertions.append(("fitting-closed-form-verified", True))
        result = {"exponent": _s(fitting.exponent), "module": str(fitting)}
        lines = [f"Fitt_1 = {fitting}"]
    elif args.curve_op == "mult-ring":
        ring = curve_multiplier_ring(ideal)
        assertions.append(("stability-window-verified", True))
        result = {"nu": _s(ring.nu), "ring": str(ring)}
        lines = [f"multiplier ring: {ring}"]
    else:  # units
        if field.char == 0:
            raise UsageError("unit counts need a finite coefficient field, e.g. --field f5")
        count = curve_unit_group_order(field, args.n, ideal.nu)
        k = (args.n - 1 - ideal.nu) // 2
        result = {"count": _s(count), "nu": _s(ideal.nu)}
        if field.char ** k <= 4000:
            brute = curve_unit_group_brute(field, args.n, ideal.nu)
            assertions.append(("brute-force-agreement", brute == count))
        lines = [f"|(R/Fitt_1)^x| over {field.name}: {count}"]
    return inputs, result, assertions, lines


def _cmd_selftest(args):
    if args.max_f < 1:
        raise UsageError(f"--max-f must be at least 1, got {args.max_f}")
    lines = []
    checks = []
    t0 = time.time()
    for m in (-1, -2, -3, -5, -7, -11, -15, 2, 3, 5, 6, 7):
        field = QuadField(m)
        h = class_number_maximal(field).h
        total = cusp_count(Order(field, 1)).total
        checks.append((f"maximal-order-count-m={m}", total == h))
    t1 = time.time()
    lines.append(f"maximal orders: cusp count equals class number  [{t1 - t0:.2f}s]")
    grid_ok = True
    for m in (-1, -2, -3, -5, 2, 3, 5):
        field = QuadField(m)
        for f in range(1, args.max_f + 1):
            order = Order(field, f)
            if cusp_count(order).total != cusp_count_direct(order):
                grid_ok = False
                checks.append((f"grid-m={m}-f={f}", False))
    checks.append(("formula-vs-enumeration-grid", grid_ok))
    t2 = time.time()
    lines.append(
        f"formula vs direct enumeration, 7 fields x f <= {args.max_f}  [{t2 - t1:.2f}s]"
    )
    q_field = CoeffField(0)
    for n, text, nu in ((5, "1; x^3", 2), (3, "1 + x; x^2", 2), (7, "1; x", 0)):
        gens = [parse_curve_poly(q_field, t) for t in text.split(";")]
        ideal = curve_ideal_from_generators(q_field, n, gens)
        curve_fitt1(ideal)
        curve_multiplier_ring(ideal)
        checks.append((f"curve-n={n}-({text})", ideal.nu == nu))
    f5 = CoeffField(5)
    for n in (3, 5, 7):
        for nu in range(0, n, 2):
            ok = curve_unit_group_order(f5, n, nu) == curve_unit_group_brute(f5, n, nu)
            checks.append((f"curve-units-n={n}-nu={nu}", ok))
    t3 = time.time()
    lines.append(f"curve ring invariants and unit counts  [{t3 - t2:.2f}s]")
    failed = [name for name, ok in checks if not ok]
    lines.append(
        f"selftest: {len(checks) - len(failed)}/{len(checks)} checks passed"
        f" in {t3 - t0:.2f}s"
    )
    return {"max_f": _s(args.max_f)}, {"checks": _s(len(checks)),
                                       "failed": [n for n in failed]}, checks, lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuspidal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def order_args(p, gens=False):
        p.add_argument("--m", type=int, required=True,
                       help="squarefree integer defining Q(sqrt(m))")
        p.add_argument("--f", type=int, default=1, help="conductor of the order")
        if gens:
            p.add_argument("--gens", required=True,
                           help="semicolon-separated elements, e.g. '2; 1+2*w'")
        p.add_argument("--bound", type=int, default=None,
                       help="search cap; overrides CUSPIDAL_BOUND")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("cusps", help="cusp count with per-divisor breakdown")
    order_args(p)
    p.add_argument("--no-check", action="store_true",
                   help="skip the independent enumeration cross-check")
    p.set_defaults(handler=_cmd_cusps)

    p = sub.add_parser("pic", help="Picard group order of Z + Z*f*omega")
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
    p.add_argument("--n", type=int, required=True, help="odd exponent of the curve ring")
    p.add_argument("--field", default="rational",
                   help="'rational' or a prime such as 'f5'")
    p.add_argument("--gens", required=True,
                   help="semicolon-separated polynomials, e.g. '1 + x^2; x^3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("selftest", help="run the built-in consistency matrix")
    p.add_argument("--max-f", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        inputs, result, assertions, lines = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "json", False):
        payload = {
            "schema": 1,
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "assertions": [
                {"name": name, "status": "pass" if ok else "fail"}
                for name, ok in assertions
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
        for name, ok in assertions:
            print(f"[{'pass' if ok else 'FAIL'}] {name}")
    return 0 if all(ok for _, ok in assertions) else 3


if __name__ == "__main__":
    raise SystemExit(main())
