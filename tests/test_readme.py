"""The README's examples run, or parse, against the package as it is."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import maxgap
from maxgap import experiments
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


def test_module_references_resolve():
    # Every backticked `module.name` whose head is a maxgap module names
    # something that module has.
    modules = {m.name for m in pkgutil.iter_modules(maxgap.__path__)}
    refs = [(mod, path) for mod, path in re.findall(r"`(\w+)\.([\w.]+)`", README.read_text())
            if mod in modules]
    assert refs
    for mod, path in refs:
        obj = importlib.import_module(f"maxgap.{mod}")
        for name in path.split("."):
            assert hasattr(obj, name), f"README names `{mod}.{path}`, which does not resolve"
            obj = getattr(obj, name)


def test_csv_column_table():
    # The README's table of each command's CSV columns is the drivers' tuples.
    rows = re.findall(r"^\| `([a-z-]+)` \| (`.*`) \|$", README.read_text(), re.M)
    table = {command: tuple(re.findall(r"`(\w+)`", cells)) for command, cells in rows
             if command in ("levy", "bounds-compare", "scaling")}
    assert table == {"levy": experiments.LEVY_COLUMNS,
                     "bounds-compare": experiments.COMPARE_COLUMNS,
                     "scaling": experiments.SCALING_COLUMNS}
