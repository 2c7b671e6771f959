"""Golden transcripts: every input of the three benchmark workloads through cli.main.

    PYTHONPATH=src python tests/golden_transcripts.py

regenerates the corpus, tests/golden_transcripts.txt, from the tree on
PYTHONPATH; test_golden_transcripts.py replays it. The argv are those of
bench/<workload>.py's make_ops at seeds 1 and 7, read as they are, each run
once as text (without --json) and once with --json. The corpus holds one line
per run: workload, seed, index, mode, exit code, and the first 16 hex digits
of the sha256 of stdout and of stderr. A change that alters output on purpose
regenerates it and lists the changed argv in CHANGES.md.
"""

import contextlib
import hashlib
import importlib
import io
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
CORPUS = HERE / "golden_transcripts.txt"
WORKLOADS = ("cusp-table", "pair-queries", "curve-ideals")
SEEDS = (1, 7)


def runs():
    """(key, argv) for every run, key = 'workload seed index mode'."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))  # the workloads import bench/oracle.py
    for workload in WORKLOADS:
        module = importlib.import_module(workload.replace("-", "_"))
        for seed in SEEDS:
            for index, op in enumerate(module.make_ops(random.Random(seed), False)):
                argv = op["argv"]
                yield f"{workload} {seed} {index} text", [a for a in argv if a != "--json"]
                yield f"{workload} {seed} {index} json", argv


def empty_memos() -> None:
    """Empty every memo and intern table of the program: each has a cache_clear."""
    for name, module in list(sys.modules.items()):
        if name == "cuspidal" or name.startswith("cuspidal."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def replay(fresh: bool) -> list[tuple[str, list[str]]]:
    """(corpus line, argv) for every run: in one session that starts with empty memos,
    or with fresh=True with the memos emptied before each run."""
    from cuspidal.cli import main

    empty_memos()
    lines = []
    for key, argv in runs():
        if fresh:
            empty_memos()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append((f"{key} {code} {_digest(out.getvalue())} {_digest(err.getvalue())}", argv))
    return lines


def read_corpus() -> list[str]:
    return CORPUS.read_text().splitlines()


if __name__ == "__main__":
    CORPUS.write_text("".join(line + "\n" for line, _ in replay(fresh=True)))
    print(f"wrote {CORPUS}")
