"""The README's CLI examples: each `$ barkfib ...` line, run through
cli.main, prints the lines shown after it."""

import shlex
from pathlib import Path

import pytest

from barkfib.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    """(command, shown output lines) for each `$ barkfib` line of the
    README's CLI section."""
    text = README.read_text()
    start = text.index("```sh\n", text.index("## CLI")) + len("```sh\n")
    block = text[start:text.index("\n```", start)]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def _collapse(lines):
    return [" ".join(line.split()) for line in lines]


EXAMPLES = cli_examples()


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_cli_example(capsys, command, shown):
    command, _, pipe = command.partition(" | ")
    argv = shlex.split(command)
    assert argv[0] == "barkfib"
    main(argv[1:])
    out = capsys.readouterr().out.splitlines()
    if pipe:
        tool, count = pipe.split()
        n = int(count.lstrip("-"))
        out = {"head": out[:n], "tail": out[-n:]}[tool]
    assert _collapse(out) == _collapse(shown)
