"""A third number type needs one ``expr._Domain`` record and nothing else.

The plan walk ``evaluate`` and the jet loops of ``calculus`` read their
scalar hooks from the record alone, so a record over ``Fraction`` runs
both walks in exact rational arithmetic.  On polynomials and rational
functions no elementary function is applied, and every jet coefficient
must be the exact Taylor coefficient.
"""

import math
from fractions import Fraction

import pytest

from levicivita import Ordering, parse_expr
from levicivita.calculus import _layout, _walk
from levicivita.expr import _Domain, evaluate

from _corpus import BASE_POINTS, CORPUS_30


def exact_sign(y: Fraction) -> Ordering:
    if y > 0:
        return Ordering.GREATER
    if y < 0:
        return Ordering.LESS
    return Ordering.EQUAL_AT_HORIZON


def no_function(*args):
    raise AssertionError(f"an elementary function was applied: {args!r}")


EXACT = _Domain(
    lift=Fraction, apply=no_function, inv=lambda y: 1 / y, power=pow,
    zero=Fraction(0), one=Fraction(1), sign=exact_sign, sin_cos=no_function,
)

#: CORPUS_30's integer polynomials, as {degree: coefficient}.
POLYNOMIALS = {
    "x^2": {2: 1},
    "x^3 - 2*x": {3: 1, 1: -2},
    "x^8 - 3*x^5 + 2*x^2 - 7*x + 1": {8: 1, 5: -3, 2: 2, 1: -7, 0: 1},
    "5*x^4 + x": {4: 5, 1: 1},
    "x^6 - x": {6: 1, 1: -1},
}
ORDER = 8


def taylor_coefficients(poly: dict, x0: Fraction, k: int) -> list[Fraction]:
    """p^(j)(x0)/j! for j = 0..k: sum of a_n * C(n, j) * x0^(n - j)."""
    return [
        sum((a * math.comb(n, j) * x0 ** (n - j) for n, a in poly.items() if n >= j),
            Fraction(0))
        for j in range(k + 1)
    ]


def test_the_polynomials_are_corpus_entries():
    assert set(POLYNOMIALS) <= set(CORPUS_30)


@pytest.mark.parametrize("text", POLYNOMIALS)
def test_polynomial_walks_are_exact(text):
    f = parse_expr(text)
    layout = _layout(1, ORDER)
    for x0 in BASE_POINTS:
        want = taylor_coefficients(POLYNOMIALS[text], x0, ORDER)
        assert evaluate(f, {"x": x0}, *EXACT[:4]) == want[0]
        got = _walk(f, ["x"], [x0], layout, EXACT)
        assert all(type(c) is Fraction for c in got)
        assert got == want


def test_one_value_in_full():
    f = parse_expr("x^8 - 3*x^5 + 2*x^2 - 7*x + 1")
    assert evaluate(f, {"x": Fraction(-1, 4)}, *EXACT[:4]) == Fraction(188609, 65536)


def test_two_variable_rational_function_is_exact():
    # x*y^2 - 1/(1+x) at (a, b): the table entry at (i, j) is the product
    # of [i <= 1] a^(1-i) and [j <= 2] C(2, j) b^(2-j), minus, at j = 0,
    # the i-th coefficient (-1)^i / (1+a)^(i+1) of 1/(1+a+s)
    f = parse_expr("x*y^2 - 1/(1+x)")
    a, b = Fraction(1, 2), Fraction(3)
    layout = _layout(2, ORDER)
    want = []
    for i, j in layout.indices:
        c = a ** (1 - i) * math.comb(2, j) * b ** (2 - j) if i <= 1 and j <= 2 else 0
        if j == 0:
            c -= Fraction((-1) ** i) / (1 + a) ** (i + 1)
        want.append(c)
    assert evaluate(f, {"x": a, "y": b}, *EXACT[:4]) == Fraction(23, 6) == want[0]
    assert _walk(f, ["x", "y"], [a, b], layout, EXACT) == want
