#!/usr/bin/env python3
"""Print the cProfile top-10 cumulative entries of each workload's slowest input.

    python3 bench/profile_slowest.py [--seed 1]

For every workload it times one untraced pass, picks the input that took
longest, runs it once more under cProfile with fresh caches, and prints the
ten entries with the largest cumulative time, with paths relative to the
repository. Times are raw wall seconds; the profiled run is slower.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import random
import time

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name, workload in run.WORKLOADS.items():
        cli = run.fresh_cli()
        ops = workload.make_ops(random.Random(args.seed), False)
        run.reset_caches()
        walls = []
        for op in ops:
            start = time.perf_counter()
            run.call(cli, op["argv"])
            walls.append(time.perf_counter() - start)
        slowest = max(range(len(ops)), key=walls.__getitem__)
        argv = ops[slowest]["argv"]
        run.reset_caches()
        profiler = cProfile.Profile()
        profiler.runcall(run.call, cli, argv)
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumulative").print_stats(10)
        shown = " ".join(a if len(a) < 60 else a[:57] + "..." for a in argv)
        print(f"== {name}: slowest input {shown} ({walls[slowest]:.3f} s untraced)")
        body = text.getvalue()
        body = body.replace(run.ROOT + os.sep, "").replace(os.path.dirname(os.__file__), "<stdlib>")
        print(body[body.index("   ncalls"):].rstrip())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
