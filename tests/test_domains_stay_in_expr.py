"""Guard: the binary64 and LC number domains are defined in ``expr`` alone.

``expr._Domain`` is the record of a number type's scalar hooks, and
``expr._REAL`` and ``expr._LC`` are its two instances, which ``eval_lc``
and the jets of ``calculus`` both walk.  No other module builds a record,
and ``calculus`` and ``wlud`` name neither the binary64 hooks
(``expr._float_*``) nor the LC functions that ``_LC`` dispatches to, so a
new domain, or a change to one, is a change to ``expr`` alone.
"""

import ast
from pathlib import Path

import pytest

import levicivita

PACKAGE = Path(levicivita.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "expr.py")
WALKERS = [PACKAGE / "calculus.py", PACKAGE / "wlud.py"]

#: The series functions behind _LC's hooks.
LC_FUNCTIONS = {"exp", "ln", "_sin_cos", "nth_root"}


def domain_builds(source: str) -> list[int]:
    """The lines that define or call a ``_Domain``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "_Domain":
            found.add(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_Domain":
                found.add(node.lineno)
    return sorted(found)


def hook_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_float_*`` name and each series function of
    LC_FUNCTIONS that the source imports or reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            from_series = (node.module or "").split(".")[-1] == "series"
            for alias in node.names:
                if alias.name.startswith("_float_") or (
                    from_series and alias.name in LC_FUNCTIONS
                ):
                    found.add((node.lineno, alias.name))
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_float_") or (
                node.attr in LC_FUNCTIONS
                and isinstance(node.value, ast.Name)
                and node.value.id == "series"
            ):
                found.add((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_outside_expr_builds_a_domain(path):
    lines = domain_builds(path.read_text())
    assert not lines, f"{path.name} builds a _Domain at lines {lines}"


@pytest.mark.parametrize("path", WALKERS, ids=lambda p: p.name)
def test_walkers_take_their_hooks_from_the_records(path):
    names = hook_names(path.read_text())
    assert not names, f"{path.name} names a domain's hooks: {names}"


def test_expr_holds_the_two_records():
    source = (PACKAGE / "expr.py").read_text()
    assert len(domain_builds(source)) == 3  # the class and its two instances


def test_guard_finds_each_form():
    source = "\n".join([
        "class _Domain(NamedTuple): pass",
        "REAL = _Domain(0.0, 1.0)",
        "LC = expr._Domain(ZERO, ONE)",
        "from .expr import _FLOAT_WALK_ERRORS, _float_inv",
        "from levicivita.expr import _float_apply as apply",
        "f = expr._float_power",
        "from .series import PowerSeries, _sin_cos, nth_root",
        "from . import series",
        "e = series.exp(x) + series.ln(x)",
        "r = _LC.apply('exp', x) + math.exp(1.0) + core.ln",  # not series'
    ])
    assert domain_builds(source) == [1, 2, 3]
    assert hook_names(source) == [
        (4, "_float_inv"), (5, "_float_apply"), (6, "_float_power"),
        (7, "_sin_cos"), (7, "nth_root"), (9, "exp"), (9, "ln"),
    ]
