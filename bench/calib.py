"""Calibration loop and rescaled timing.

The host's speed drifts by 20-30% over seconds, so a raw wall time says as
much about the host as about the program. Every timed call is bracketed by
a fixed loop of standard-library arithmetic, timed just before and just
after it, and its wall time is rescaled to the speed at which the loop
takes REFERENCE_LOOP_S:

    rescaled = wall * REFERENCE_LOOP_S / mean(loop before, loop after)

Each loop time is the median of three back-to-back runs of the loop, which
halves the noise that a single interrupted run adds on the pair-queries and
curve-ideals workloads. The loop builds a small argparse parser and runs
json and re besides its arithmetic: a neighbour that thrashes the shared
caches slows such wide code far more than a tight arithmetic loop, and with
arithmetic alone the rescaled pair-queries times still swung by 27% over
four minutes in which the raw times swung by 2x (12-18% with the mix).

The loop never imports cuspidal and keeps nothing alive, and the cyclic
garbage collector is paused while it runs, so the program's heap cannot
slow it down.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# The loop's time on the 2-vCPU reference host at a typical speed.
# Fixed once; changing it rescales every reported time.
REFERENCE_LOOP_S = 1.5e-3

_BIG = 3 ** 160 + 7


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def times(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a + 5 * self.b * other.b, self.a * other.b + self.b * other.a)


def _loop() -> int:
    """The mix the program runs on: argparse, json and re as in one command
    line call; small and big integers, tuples, lists, dicts, Fraction, small
    frozen dataclasses and method calls."""
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma"):
        p = sub.add_parser(name, help=name)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--f", type=int, default=1)
        p.add_argument("--gens", default="")
        p.add_argument("--json", action="store_true")
    args = parser.parse_args(["beta", "--m", "-5", "--f", "3", "--gens", "1+2*w; 3", "--json"])
    text = json.dumps({"a": [str(i) for i in range(40)], "b": {"c": args.gens}}, indent=2)
    acc = len(json.loads(text)["a"]) + len(re.findall(r"[+-]?[^+-]+", "1+2*w-3*w+4" * 5))
    for i in range(10):
        frac = Fraction(0)
        for j in range(1, 25):
            t = (i, j, i * j % 97)
            acc += t[0] * t[1] - t[2]
            acc ^= (_BIG * j) % (_BIG // (j + 1) + i + 1)
            if j % 3 == 0:
                frac = frac + Fraction(j, i + 2) - Fraction(1, j)
    x, seen = _Pair(1, 1), {}
    for i in range(60):
        x = x.times(_Pair(i % 7 - 3, i % 5 + 1))
        if abs(x.a) > 10 ** 30:
            x = _Pair(x.a % 1009, x.b % 1013)
        row = [i * j % 11 for j in range(8)]
        acc += sum(row) + math.gcd(i * 12, 30)
        seen[(i % 13, i % 7)] = seen.get((i % 13, i % 7), 0) + 1
        acc += len((str(i) + "+" + str(3 * i)).split("+"))
    return acc


def loop_time() -> float:
    """Wall time of one calibration loop, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_point() -> float:
    """One reading of the host's speed: the median of three loop times."""
    return statistics.median(loop_time() for _ in range(3))


class Clock:
    """Times calls between calibration points; adjacent calls share a point."""

    def __init__(self) -> None:
        self._last = calibration_point()

    def time(self, fn, *args):
        """Return (fn's result, raw wall seconds, rescaled seconds)."""
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        before, self._last = self._last, calibration_point()
        return result, raw, raw * REFERENCE_LOOP_S * 2 / (before + self._last)
