"""Scaling rows for `curve reduce`: wall time per input at growing n.

    PYTHONPATH=src python tests/scaling_curves.py

The inputs are the planted ideals of test_curvering._planted_generators with
nu = (n-1)/2, over Q at n = 241, 481, 961, 2001 and over F_101 at n = 2001,
and the non-monic pair '1 + 100000*x^2 + x; x^(n-1)' over Q at n = 1001, 2001.
Each row runs `curve reduce ... --json` once through cli.main in this process,
with no limit on printing an int (p's coefficients reach 5,000 digits at
n = 2001), and prints the seconds and the exit code; the script exits 1 when
any row does not exit 0. Point PYTHONPATH at the src/ of another checkout to
time that one on the same inputs.
"""

import contextlib
import io
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_curvering import _planted_generators  # noqa: E402

from cuspidal.cli import main  # noqa: E402
from cuspidal.fieldpoly import CoeffField  # noqa: E402


def rows():
    for name, n in (("rational", 241), ("rational", 481), ("rational", 961), ("rational", 2001),
                    ("f101", 2001)):
        field = CoeffField.from_name(name)
        _, gens = _planted_generators(field, n, (n - 1) // 2, random.Random(n))
        yield f"planted {name} n={n}", n, name, "; ".join(map(str, gens))
    for n in (1001, 2001):
        yield f"non-monic rational n={n}", n, "rational", f"1 + 100000*x^2 + x; x^{n - 1}"


def main_rows() -> int:
    sys.set_int_max_str_digits(0)
    failed = 0
    for label, n, field, gens in rows():
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["curve", "reduce", "--n", str(n), "--field", field, "--gens", gens,
                         "--json"])
        elapsed = time.perf_counter() - start
        print(f"{label:<28} {elapsed:8.2f} s  exit {code}", flush=True)
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_rows())
