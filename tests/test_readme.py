"""README's table of public entry points must name functions and classes
that exist, and its command-line section must name exactly the options the
parser defines, or either drifts once a name is renamed or deleted."""
import argparse
import importlib
import re
from pathlib import Path

import pytest

from darkstate.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_points():
    """(module, name) for each name in the entry-point column of README's
    module table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| module | holds | public entry points |")
    pairs = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        modules, _, names = line.strip("|").split("|")
        names = re.findall(r"`(\w+)`", names)
        if names:
            (module,) = re.findall(r"`([\w.]+)`", modules)
            pairs += [(module, name) for name in names]
    return pairs


def test_table_lists_entry_points():
    assert len(_entry_points()) > 30


@pytest.mark.parametrize("module,name", _entry_points())
def test_entry_point_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def _readme_options():
    """Every --option named in README's "## Command line" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))


def _parser_options():
    """Every --option build_parser() defines, at the top level or in a
    subcommand, but --help."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {option for p in (parser, *sub.choices.values())
            for action in p._actions for option in action.option_strings
            if option.startswith("--")} - {"--help"}


def test_command_line_section_names_every_option():
    readme, parser = _readme_options(), _parser_options()
    assert readme - parser == set(), "named in README, not defined"
    assert parser - readme == set(), "defined, not named in README"
