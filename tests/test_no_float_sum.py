"""Guard: the library sums floats only with explicit left-to-right loops.

From Python 3.12 the builtin ``sum`` adds floats with compensation, so
``sum([1e100, 1.0, -1e100])`` is 1.0 there and 0.0 on 3.10 and 3.11;
``math.fsum`` and ``math.sumprod`` round differently from a loop on every
version.  Any of them on coefficients would move output bits between Python
versions.  The guard rejects every ``fsum`` and ``sumprod`` call, and every
``sum`` call but one over a single bare name: those sum the integer orders
of a multi-index, and a new one is read by hand.
"""

import ast
from pathlib import Path

import pytest

import levicivita

PACKAGE = Path(levicivita.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def float_sums(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call the guard rejects."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("fsum", "sumprod"):
            found.append((node.lineno, name))
        elif isinstance(func, ast.Name) and name == "sum":
            bare = len(node.args) == 1 and isinstance(node.args[0], ast.Name)
            if not bare or node.keywords:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_sums_floats_outside_a_loop(path):
    calls = float_sums(path.read_text())
    assert not calls, f"{path.name} calls a float sum: {calls}"


def test_guard_finds_each_form():
    source = "\n".join([
        "s = sum(c for c in xs)",
        "t = math.fsum(xs)",
        "u = math.sumprod(xs, ys)",
        "v = sum([a, b])",
        "w = sum(xs, 0.0)",
        "from math import fsum",
        "y = fsum(xs)",
        "j = sum(alpha)",  # a multi-index's order
        "z = x.sum",
    ])
    assert float_sums(source) == [
        (1, "sum"), (2, "fsum"), (3, "sumprod"), (4, "sum"), (5, "sum"),
        (7, "fsum"),
    ]
