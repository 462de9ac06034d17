"""README's table of public entry points must name functions and classes
that exist, or it drifts once one is renamed or deleted."""
import importlib
import re
from pathlib import Path

import pytest

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
