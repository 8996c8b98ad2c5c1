import math
import random
import sys
from fractions import Fraction

import pytest

from levicivita import (
    Add,
    Apply,
    D,
    Div,
    IntPow,
    LCNumber,
    Mul,
    ONE,
    RationalConst,
    Sub,
    Variable,
    ZERO,
    approx_equal,
    diff_symbolic,
    eval_lc,
    monomial,
    parse_expr,
    parse_lc,
    print_expr,
    variables,
)
from levicivita.errors import (
    LCSyntaxError,
    NotDifferentiableError,
    UnboundVariableError,
)

F = Fraction
X = Variable("x")


# -- expression parsing ----------------------------------------------------------


def test_parse_structure_pow_and_apply():
    e = parse_expr("x^2 + sin(x)")
    assert e == Add(IntPow(X, 2), Apply("sin", X))


def test_parse_structure_div():
    e = parse_expr("1/(1-x)")
    assert e == Div(RationalConst(F(1)), Sub(RationalConst(F(1)), X))


def test_parse_precedence():
    assert parse_expr("2*x + 3*y") == Add(
        Mul(RationalConst(F(2)), X), Mul(RationalConst(F(3)), Variable("y"))
    )
    # ^ binds tighter than unary minus
    e = parse_expr("-x^2")
    assert e == Sub(RationalConst(F(0)), IntPow(X, 2))


def test_parse_pow_right_assoc_constant_fold():
    assert parse_expr("x^2^3") == IntPow(X, 8)
    assert parse_expr("2^-1") == RationalConst(F(1, 2))


def test_parse_error_offset():
    with pytest.raises(LCSyntaxError) as err:
        parse_expr("d^^2")
    assert err.value.offset == 2


def test_parse_error_unknown_function():
    with pytest.raises(LCSyntaxError):
        parse_expr("tan(x)")


def test_parse_error_non_integer_exponent():
    with pytest.raises(LCSyntaxError):
        parse_expr("x^y")


def test_constant_folding():
    assert parse_expr("7/2") == RationalConst(F(7, 2))
    assert parse_expr("-3.5") == RationalConst(F(-7, 2))
    assert parse_expr("2*3 + 1") == RationalConst(F(7))


def test_print_parse_round_trip():
    samples = [
        "x^2 + sin(x)",
        "1/(1-x)",
        "exp(x^2) - cos(x)*x",
        "(x + 1)*(x - 2)",
        "x/(1 + x^2)",
        "sqrt(1 + x^2)",
        "abs(x) + 2",
        "x - (1 - x) - 2",
        "x^-2 + x",
    ]
    for text in samples:
        e = parse_expr(text)
        assert parse_expr(print_expr(e)) == e


def test_variables():
    assert variables(parse_expr("x*y + sin(z) - 2")) == {"x", "y", "z"}


def test_variables_of_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    assert variables(parse_expr("x" + "+x" * 3000)) == {"x"}


# -- LC literal parsing ------------------------------------------------------------


def test_parse_lc_example():
    x = parse_lc("2 + 3d^(1/2) - d^2")
    assert x.terms == ((F(0), 2.0), (F(1, 2), 3.0), (F(2), -1.0))
    assert x.horizon == 32


def test_parse_lc_zero():
    zero = parse_lc("0")
    assert zero.is_zero
    assert zero.horizon == float("inf")


def test_parse_lc_pure_real_is_exact():
    # real literals carry no truncated expansion: infinite horizon
    assert parse_lc("3").horizon == float("inf")
    assert parse_lc("-7/2").horizon == float("inf")
    assert parse_lc("d").horizon == 32


def test_parse_lc_negative_exponent():
    assert parse_lc("d^-1").terms == ((F(-1), 1.0),)


def test_parse_lc_fraction_coefficient():
    assert parse_lc("7/2").terms == ((F(0), 3.5),)
    assert parse_lc("7/2d^2").terms == ((F(2), 3.5),)


def test_parse_lc_decimal_exponent():
    assert parse_lc("d^1.5").terms == ((F(3, 2), 1.0),)
    assert parse_lc("d^(-1/2)").terms == ((F(-1, 2), 1.0),)


def test_parse_lc_leading_sign():
    assert parse_lc("-d").terms == ((F(1), -1.0),)
    assert parse_lc("-3.5 + d").terms == ((F(0), -3.5), (F(1), 1.0))


def test_parse_lc_errors():
    for bad in ("", "d^", "2 +", "1//2", "q"):
        with pytest.raises(LCSyntaxError):
            parse_lc(bad)


def test_format_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 6)):
            den = rng.randint(1, 6)
            num = rng.randint(-12, 12)
            c = rng.choice([rng.uniform(-3, 3), float(rng.randint(-5, 5))])
            if c:
                terms.append((F(num, den), c))
        x = LCNumber(terms, F(32))
        back = parse_lc(str(x))
        assert back.terms == x.terms


# -- evaluation ----------------------------------------------------------------------


def test_eval_square_at_shifted_point():
    v = eval_lc(parse_expr("x^2"), {"x": 3 + D})
    assert v.terms == ((F(0), 9.0), (F(1), 6.0), (F(2), 1.0))


def test_eval_reciprocal_of_d():
    assert eval_lc(parse_expr("1/x"), {"x": D}).terms == ((F(-1), 1.0),)


def test_eval_ln_round_trip():
    from levicivita import exp as lc_exp

    v = eval_lc(parse_expr("ln(x)"), {"x": 1 + D})
    assert approx_equal(lc_exp(v), 1 + D)


def test_eval_abs_and_sqrt():
    assert eval_lc(parse_expr("abs(x)"), {"x": -D}) == D
    r = eval_lc(parse_expr("sqrt(x)"), {"x": monomial(2)})
    assert r == monomial(1)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_lc(parse_expr("x + y"), {"x": ONE})


def test_eval_zero_division():
    with pytest.raises(ZeroDivisionError):
        eval_lc(parse_expr("1/x"), {"x": ZERO})


def test_eval_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    f = parse_expr("x" + "+x" * 3000)
    assert eval_lc(f, {"x": ONE}) == LCNumber.from_real(3001)


def test_eval_deeply_nested_calls():
    f = X
    for _ in range(2 * sys.getrecursionlimit()):
        f = Apply("abs", f)
    assert eval_lc(f, {"x": LCNumber.from_real(2)}) == LCNumber.from_real(2)


def test_eval_none_operand_raises():
    # a None value is an operand like any other, not a missing result
    with pytest.raises(TypeError):
        eval_lc(parse_expr("x + 1"), {"x": None})


def test_eval_variable_free_matches_binary64():
    cases = ["exp(1) + sin(1/2)", "ln(2)*cos(3/4)", "2^10/3 - sqrt(2)"]
    refs = [
        math.exp(1) + math.sin(0.5),
        math.log(2) * math.cos(0.75),
        2**10 / 3 - math.sqrt(2),
    ]
    for text, ref in zip(cases, refs):
        v = eval_lc(parse_expr(text), {})
        assert v.real_part() == pytest.approx(ref, rel=1e-14)


# -- symbolic differentiation ----------------------------------------------------------


def test_diff_power_rule():
    d = diff_symbolic(parse_expr("x^2"), "x")
    assert eval_lc(d, {"x": LCNumber.from_real(5)}).real_part() == 10.0


def test_diff_sin():
    assert diff_symbolic(parse_expr("sin(x)"), "x") == Apply("cos", X)


def test_diff_chain_rule():
    d = diff_symbolic(parse_expr("exp(x^2)"), "x")
    # semantically 2x * exp(x^2)
    at2 = eval_lc(d, {"x": LCNumber.from_real(2)}).real_part()
    assert at2 == pytest.approx(4 * math.exp(4), rel=1e-14)


def test_diff_quotient_and_sqrt():
    d = diff_symbolic(parse_expr("1/(1+x)"), "x")
    assert eval_lc(d, {"x": ZERO}).real_part() == -1.0
    d = diff_symbolic(parse_expr("sqrt(x)"), "x")
    assert eval_lc(d, {"x": LCNumber.from_real(4)}).real_part() == pytest.approx(0.25)


def test_diff_abs_rejected():
    with pytest.raises(NotDifferentiableError):
        diff_symbolic(parse_expr("abs(x)"), "x")


def test_diff_matches_first_jet_coefficient():
    # order-1 coefficient of f(x0 + d) equals eval of the symbolic derivative
    rng = random.Random(5)
    corpus = ["x^3 - 2*x", "exp(x)*sin(x)", "ln(1+x^2)", "cos(x)/(2+x)"]
    for text in corpus:
        f = parse_expr(text)
        df = diff_symbolic(f, "x")
        for _ in range(3):
            x0 = LCNumber.from_real(rng.uniform(-0.8, 0.8))
            shifted = eval_lc(f, {"x": x0 + D})
            ref = eval_lc(df, {"x": x0}).real_part()
            assert shifted.coefficient(1) == pytest.approx(ref, rel=1e-10, abs=1e-12)
