"""The command-line examples of README.md, run through cli.main.

Each `$ cuspidal ...` line of the "Command line" block is run in-process.
The lines shown under it must be the first lines of the real output, up to
a line reading `...`, after which the output is free.
"""

import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from cuspidal import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[list[str], list[str]]]:
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for chunk in block.split("$ cuspidal ")[1:]:
        command, *rest = chunk.split("\n")
        shown = []
        for line in rest:
            if not line.strip() or line.strip() == "...":
                break
            shown.append(line)
        examples.append((shlex.split(command), shown))
    return examples


EXAMPLES = _examples()


def test_the_readme_block_has_the_vec_example():
    assert len(EXAMPLES) >= 5
    assert ["vec", "reduce"] in [argv[:2] for argv, _ in EXAMPLES]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES,
    ids=[" ".join(takewhile(lambda a: not a.startswith("--"), argv)) for argv, _ in EXAMPLES],
)
def test_readme_example_output(capsys, argv, shown):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[: len(shown)] == shown
