"""The README's examples run, or parse, against the package as it is."""

import pathlib
import re
import shlex

from maxgap.cli import parse_args

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_examples_parse():
    # Every maxgap command of the sh blocks, continuations joined, names
    # only subcommands and flags the parser knows.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("maxgap ")]
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line)[1:]
        assert parse_args(argv).command == argv[0]
