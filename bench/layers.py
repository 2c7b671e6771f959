"""Per-layer figures from a cProfile run, aggregated from outside the program.

A layer is a module of src/cuspidal/, plus three standard-library modules
the program leans on. A layer's self time is the tottime of its functions
plus the time of the built-in functions they call. Function figures are
read from the live modules' code objects, so a function that a later
version removes or renames reads 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import os
import sys

LAYERS = ("cli", "cusps", "classnum", "units", "genpairs", "quadideal", "zlinalg",
          "quadfield", "arith", "curvering", "fieldpoly")
STDLIB = ("fractions", "argparse", "json")

# metric prefix, attribute path inside the cuspidal module, figures wanted
FUNCTIONS = (
    ("classnum.picard_order", ("classnum", "picard_order"), ("calls", "s", "cache_hits")),
    ("classnum.class_number_maximal", ("classnum", "class_number_maximal"), ("s",)),
    ("units.fundamental_unit", ("units", "fundamental_unit"), ("cache_hits", "cache_misses")),
    ("quadideal.enumerate_ideal_classes", ("quadideal", "enumerate_ideal_classes"), ("s",)),
    ("quadideal.is_same_class", ("quadideal", "is_same_class"), ("calls", "s")),
    ("cusps.cusp_count", ("cusps", "cusp_count"), ("s",)),
    ("cusps.cusp_count_direct", ("cusps", "cusp_count_direct"), ("s",)),
    ("zlinalg.hnf_columns", ("zlinalg", "hnf_columns"), ("calls", "s")),
    ("zlinalg.kernel_int", ("zlinalg", "kernel_int"), ("calls",)),
    ("zlinalg.solve_int", ("zlinalg", "solve_int"), ("calls",)),
    ("quadfield.QuadElt.mul", ("quadfield", "QuadElt", "__mul__"), ("calls",)),
    ("quadideal.ideal_from_generators", ("quadideal", "ideal_from_generators"), ("calls",)),
    ("quadideal.multiplier_conductor", ("quadideal", "multiplier_conductor"), ("calls",)),
    ("quadideal.fitt1", ("quadideal", "fitt1"), ("s",)),
    ("genpairs.det_pair", ("genpairs", "det_pair"), ("s",)),
    ("genpairs.sl2_witness", ("genpairs", "sl2_witness"), ("s",)),
    ("genpairs.reduce_vector", ("genpairs", "reduce_vector"), ("s",)),
    ("cli.main", ("cli", "main"), ("calls",)),
    ("curvering.curve_ideal_from_generators", ("curvering", "curve_ideal_from_generators"),
     ("s",)),
    ("curvering.curve_fitt1", ("curvering", "curve_fitt1"), ("s",)),
    ("curvering.curve_multiplier_ring", ("curvering", "curve_multiplier_ring"), ("s",)),
)
FRACTION_OPS = ("_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
                "__neg__", "__pos__", "__abs__", "__pow__", "__rpow__")
FPELT_OPS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__")

COUNT_FIGURES = ("calls", "cache_hits", "cache_misses")


def metric_names() -> list[str]:
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [f"stdlib.{mod}.self_s" for mod in STDLIB]
    names += [f"{prefix}.{fig}" for prefix, _, figs in FUNCTIONS for fig in figs]
    names += ["stdlib.fractions.ops", "fieldpoly.FpElt.ops", "trace.overhead_ratio"]
    return names


def unit_of(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith(".ops") or name.rsplit(".", 1)[1] in COUNT_FIGURES:
        return "count"
    return "s"


def _resolve(path: tuple[str, ...]):
    obj = sys.modules.get("cuspidal." + path[0])
    for attr in path[1:]:
        obj = getattr(obj, attr, None)
    return obj


def _normal(key: tuple) -> tuple:
    """A profile key (file, line, name) with the file's real path."""
    return (key[0] if key[0] == "~" else os.path.realpath(key[0]),) + tuple(key[1:])


def _code_key(fn):
    fn = getattr(fn, "__wrapped__", fn)
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return _normal((code.co_filename, code.co_firstlineno, code.co_name))


def _layer_of(filename: str, src_dir: str) -> str | None:
    if filename.startswith(src_dir):
        return os.path.splitext(os.path.basename(filename))[0]
    norm = filename.replace(os.sep, "/")
    if norm.endswith("/fractions.py"):
        return "stdlib.fractions"
    if norm.endswith("/argparse.py"):
        return "stdlib.argparse"
    if "/json/" in norm:
        return "stdlib.json"
    return None


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of the program's memoised functions, by metric prefix."""
    out = {}
    for prefix, path, _ in FUNCTIONS:
        info = getattr(_resolve(path), "cache_info", None)
        if info is not None:
            stats = info()
            out[prefix] = (stats.hits, stats.misses)
    return out


def layer_figures(stats: dict, src_dir: str, caches: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are multiplied by scale."""
    src_dir = os.path.join(os.path.realpath(src_dir), "")
    figures = {name: 0.0 for name in metric_names() if name != "trace.overhead_ratio"}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        if filename == "~":
            # a built-in: charge its time to the layers of its callers
            shares = [(_normal(caller)[0], s[2]) for caller, s in callers.items()]
        else:
            shares = [(os.path.realpath(filename), tottime)]
        for caller_file, seconds in shares:
            name = f"{_layer_of(caller_file, src_dir)}.self_s"
            if name in figures:
                figures[name] += seconds * scale

    stats_by_code = {_normal(key): value for key, value in stats.items()}

    def entry_of(fn):
        key = _code_key(fn)
        return None if key is None else stats_by_code.get(key)

    for prefix, path, figs in FUNCTIONS:
        entry = entry_of(_resolve(path))
        hits, misses = caches.get(prefix, (0, entry[1] if entry else 0))
        for fig in figs:
            if fig == "calls":
                value = hits + misses
            elif fig == "cache_hits":
                value = hits
            elif fig == "cache_misses":
                value = misses
            else:
                value = entry[3] * scale if entry else 0.0
            figures[f"{prefix}.{fig}"] = value

    figures["stdlib.fractions.ops"] = sum(
        entry[1] for (filename, _, name), entry in stats_by_code.items()
        if name in FRACTION_OPS and _layer_of(filename, src_dir) == "stdlib.fractions"
    )
    fpelt = _resolve(("fieldpoly", "FpElt"))
    fp_entries = {_code_key(getattr(fpelt, op, None)) for op in FPELT_OPS} - {None}
    figures["fieldpoly.FpElt.ops"] = sum(
        stats_by_code[key][1] for key in fp_entries if key in stats_by_code
    )
    return figures
