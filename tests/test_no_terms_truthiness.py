"""Guard: the hot modules test LCNumber emptiness with bool(x), not x.terms.

``LCNumber.terms`` builds a ``Fraction`` per term on first use, so a
truthiness test on it costs a tuple of Fractions where ``bool(x)`` reads
the integer grid.  In a 2-D certificate that was 1.8M Fraction
constructions.
"""

import ast
from pathlib import Path

import pytest

from levicivita import calculus, series, wlud


def truthiness_operands(tree: ast.AST):
    """Expressions whose truth value is taken: if/while/ternary/comprehension
    conditions, operands of ``not``, and operands of ``and``/``or``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            yield from node.values


def terms_truthiness_lines(source: str) -> list[int]:
    return sorted(
        {
            node.lineno
            for node in truthiness_operands(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "terms"
        }
    )


@pytest.mark.parametrize("module", [calculus, wlud, series], ids=lambda m: m.__name__)
def test_no_terms_truthiness(module):
    path = Path(module.__file__)
    lines = terms_truthiness_lines(path.read_text())
    assert not lines, (
        f"{path.name} tests emptiness with .terms on lines {lines}; "
        "use bool(x) or x.is_zero"
    )


def test_guard_finds_each_form():
    source = "\n".join([
        "if x.terms: pass",
        "while not y.terms: pass",
        "ok = a[i].terms and b.terms",
        "z = [t for t in s if t.terms]",
        "w = 1 if v.terms else 0",
        "n = len(x.terms) + x.terms[0][1]",  # not a truth test
    ])
    assert terms_truthiness_lines(source) == [1, 2, 3, 4, 5]
