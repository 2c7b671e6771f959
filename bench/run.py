#!/usr/bin/env python3
"""Benchmark of the cuspidal command line, run in-process through cli.main.

    python3 bench/run.py --workload cusp-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick          # every workload, a few inputs, all checks

Each run imports cuspidal from src/ next to this directory, builds the
workload's inputs from the seed, and answers the whole input set again and
again (one pass per round, caches emptied between passes) until --seconds
have gone by. Every call is bracketed by the calibration loop of calib.py
and reported at the reference speed. Outputs of the first pass are checked
against the benchmark's own arithmetic (oracle.py); later passes must repeat
them exactly. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of layers.py with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import curve_ideals  # noqa: E402
import cusp_table  # noqa: E402
import layers  # noqa: E402
import pair_queries  # noqa: E402

WORKLOADS = {
    "cusp-table": cusp_table,
    "pair-queries": pair_queries,
    "curve-ideals": curve_ideals,
}
SETUPS = 9


class Missing(Exception):
    """The program's source tree is not where the benchmark expects it."""


def fresh_cli():
    """Import cuspidal.cli from src/ anew, dropping any copy imported before."""
    if not os.path.isfile(os.path.join(SRC, "cuspidal", "cli.py")):
        raise Missing(f"no cuspidal package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "cuspidal" or n.startswith("cuspidal.")]:
        del sys.modules[name]
    cli = importlib.import_module("cuspidal.cli")
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise Missing(f"cuspidal was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, quick: bool):
    return fresh_cli(), workload.make_ops(random.Random(seed), quick)


def reset_caches() -> None:
    """Empty every memo of the program, so each pass starts a fresh session."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspidal"):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def call(cli, argv: list[str]) -> tuple[object, str]:
    """(exit code or a traceback string, stdout) of one command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # any escape from the exit-code contract is a failed input
        code = traceback.format_exc(limit=3)
    return code, out.getvalue()


def run_pass(cli, ops: list[dict], clock: calib.Clock):
    reset_caches()
    results, raw, scaled = [], [], []
    for op in ops:
        result, wall, rescaled = clock.time(call, cli, op["argv"])
        results.append(result)
        raw.append(wall)
        scaled.append(rescaled)
    return results, raw, scaled


def traced_pass(cli, ops: list[dict]):
    """One pass under cProfile, rescaled by loops before and after it."""
    reset_caches()
    profiler = cProfile.Profile()
    before = calib.calibration_point()
    wall = 0.0
    for op in ops:
        start = time.perf_counter()
        profiler.enable()
        call(cli, op["argv"])
        profiler.disable()
        wall += time.perf_counter() - start
    scale = calib.REFERENCE_LOOP_S * 2 / (before + calib.calibration_point())
    caches = layers.cache_counts()
    profiler.create_stats()
    return profiler, layers.layer_figures(profiler.stats, SRC, caches, scale), wall * scale


def check(workload, ops: list[dict], first: list) -> list[str]:
    """Independent checks of the first pass's outputs."""
    errors = []
    outs = []
    for op, (code, text) in zip(ops, first):
        if code != 0:
            outs.append(None)
            continue
        try:
            out = json.loads(text)
            problems = workload.check(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out, problems = None, [f"unreadable output: {exc!r}"]
        outs.append(out)
        errors += [f"{' '.join(op['argv'])}: {p}" for p in problems]
    check_pass = getattr(workload, "check_pass", None)
    if check_pass is not None:
        errors += check_pass(ops, outs)
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    workload = WORKLOADS[name]
    clock = calib.Clock()
    setup_times = []
    for _ in range(SETUPS):
        (cli, ops), raw, scaled = clock.time(setup, workload, seed, quick)
        setup_times.append((raw, scaled))

    # only the first pass's outputs are kept, so memory does not grow with
    # the number of passes a run fits in
    passes, traced, start = [], [], time.perf_counter()
    first, repeated, failed, failures = None, True, 0, set()
    while not passes or time.perf_counter() - start < seconds:
        results, raw, scaled = run_pass(cli, ops, clock)
        passes.append((raw, scaled))
        for op, (code, _) in zip(ops, results):
            if code != 0:
                failed += 1
                failures.add(f"{' '.join(op['argv'])}: {code}")
        if first is None:
            first = results
        elif results != first:
            repeated = False
        if trace:
            traced.append(traced_pass(cli, ops))

    errors = check(workload, ops, first)
    if not repeated:
        errors.append("a later pass gave different output from the first")

    per_op = [statistics.median(p[1][i] for p in passes) for i in range(len(ops))]
    per_op_raw = [statistics.median(p[0][i] for p in passes) for i in range(len(ops))]

    def figures(k: int) -> dict:
        """Mean pass time, and percentiles over every input answered in the run."""
        pooled = [t for p in passes for t in p[k]]
        return {
            "pass_s": statistics.fmean(sum(p[k]) for p in passes),
            "op_p50_ms": statistics.median(pooled) * 1e3,
            "op_p90_ms": statistics.quantiles(pooled, n=10)[8] * 1e3,
        }

    report = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
        "inputs": len(ops), "attempted": len(passes) * len(ops), "failed": failed,
        "correct": not errors, "errors": errors[:20], "failures": sorted(failures)[:20],
        "raw": {**figures(0), "setup_s": statistics.median(r for r, _ in setup_times)},
        "end_to_end": {
            **figures(1),
            "setup_s": statistics.median(s for _, s in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "per_op": [{"argv": op["argv"], "ms": t * 1e3, "raw_ms": r * 1e3,
                    "samples_ms": [p[1][i] * 1e3 for p in passes]}
                   for i, (op, t, r) in enumerate(zip(ops, per_op, per_op_raw))],
    }
    if trace:
        per_layer = {key: statistics.median(t[1][key] for t in traced) for key in traced[0][1]}
        per_layer["trace.overhead_ratio"] = statistics.median(
            t[2] / sum(p[1]) for t, p in zip(traced, passes))
        report["per_layer"] = per_layer
        traced[-1][0].dump_stats(os.path.join(RESULTS, f"{name}-seed{seed}.pstats"))
    return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {k: {"value": v, "unit": layers.unit_of(k)}
                   for k, v in report["per_layer"].items()}
    else:
        units = {"pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["end_to_end"].items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def describe(report: dict) -> None:
    print(f"{report['workload']}: seed {report['seed']}, {report['inputs']} inputs x "
          f"{report['passes']} passes = {report['attempted']} attempted, "
          f"{report['failed']} failed, correct={report['correct']}")
    for key, value in report["end_to_end"].items():
        raw = report["raw"].get(key)
        extra = f"   (raw wall {raw:.6g})" if raw is not None else ""
        print(f"  {key:<12} {value:.6g}{extra}")
    for line in report["errors"] + report["failures"]:
        print(f"  ! {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload (or the one named) once on a few inputs")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    os.makedirs(RESULTS, exist_ok=True)
    try:
        if args.quick:
            names = [args.workload] if args.workload else list(WORKLOADS)
            reports = [measure(n, args.seed, 0, True, True) for n in names]
            for report in reports:
                describe(report)
            ok = all(r["correct"] and not r["failed"] for r in reports)
            print(json.dumps({"quick": True, "correct": ok}))
            return 0 if ok else 1
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except Missing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    describe(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
