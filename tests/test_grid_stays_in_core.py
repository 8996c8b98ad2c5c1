"""Guard: no module of the library outside ``core`` reads the integer grid.

``core.LCNumber`` keeps its terms and horizon on a private integer grid
(the slots ``_den``, ``_iterms`` and ``_h``) and builds every number
through ``_number`` and ``_from_grid``.  Every other module uses the
number's API, so a change to the representation is a change to ``core``
alone.  The guard also keeps out ``_hq`` and ``_view``, the names of the
rational views a number once cached, so that no module comes to rely on
them again.
"""

import ast
from pathlib import Path

import pytest

import levicivita

#: Slots of the grid, and core's grid builders and helpers.
GRID_SLOTS = {"_den", "_iterms", "_h", "_hq", "_view"}
GRID_HELPERS = {"_on_grid", "_number", "_from_grid", "_monomial_mul"}

PACKAGE = Path(levicivita.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")


def grid_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each grid slot or helper the source reads or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in GRID_SLOTS | GRID_HELPERS:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in GRID_HELPERS:
                    found.add((node.lineno, alias.name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_outside_core_reads_the_grid(path):
    reads = grid_reads(path.read_text())
    assert not reads, f"{path.name} reads core's integer grid: {reads}"


def test_guard_finds_each_form():
    source = "\n".join([
        "n = x._den",
        "t = x._iterms[0]",
        "h = x._h",
        "q = x._hq",
        "v = x._view",
        "from .core import LCNumber, _on_grid",
        "from .core import _number as make",
        "from levicivita.core import _from_grid",
        "y = acc._monomial_mul(1.0, 0, 1, None)",
        "z = core._number(1, None, ())",
        "w = x.horizon + x._unit_part(q).terms[0][0]",  # the number's API
    ])
    assert grid_reads(source) == [
        (1, "_den"), (2, "_iterms"), (3, "_h"), (4, "_hq"), (5, "_view"),
        (6, "_on_grid"), (7, "_number"), (8, "_from_grid"),
        (9, "_monomial_mul"), (10, "_number"),
    ]
