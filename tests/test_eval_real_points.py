"""eval_lc at exactly-known real points runs in binary64.

Every value it returns there must be the LCNumber the LC walk gives, and
every error the LC walk's error, so these tests run the LC domain of
``expr.evaluate`` beside ``eval_lc`` and compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D,
    LCNumber,
    apply_elementary,
    diff_symbolic,
    eval_lc,
    parse_expr,
)
from levicivita.expr import evaluate

from _corpus import BASE_POINTS, CORPUS_30


def lc_walk(e, env):
    return evaluate(e, env, LCNumber.from_real, apply_elementary)


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("text", CORPUS_30)
def test_corpus_chains_bit_identical_to_lc_walk(text):
    chain = [parse_expr(text)]
    for _ in range(8):
        chain.append(diff_symbolic(chain[-1], "x"))
    for pt in BASE_POINTS:
        env = {"x": LCNumber.from_real(pt)}
        for g in chain:
            assert eval_lc(g, env) == lc_walk(g, env)


EDGE_EXPRS = [parse_expr(t) for t in (
    "ln(x)", "sqrt(x)", "1/x", "x^-3", "exp(x)", "x*x", "(x*x - x*x)*exp(x)",
    # LC raises on the reciprocal of a subnormal, binary64 gets inf and then 0
    "1/(1/x)",
    # at large x, (x - x)*(x*x) is an exact zero in LC and nan in binary64
    "exp((x - x)*(x*x) + 1000)^0",
    # at large x, LC raises on ln and sqrt of x*x = inf, binary64 gets 1/inf
    "1/ln(x*x)", "1/sqrt(x*x)",
    # LC's reciprocal of inf is a term with coefficient 0, not the zero
    "(x*x)^-1",
)]
EDGE_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 710.0, 5e-324, -5e-324]),
    st.floats(max_value=-0.0, allow_infinity=False),  # negatives
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=300)
@given(e=st.sampled_from(EDGE_EXPRS), x=EDGE_POINTS)
def test_edges_match_lc_walk(e, x):
    env = {"x": LCNumber.from_real(x)}
    assert outcome(eval_lc, e, env) == outcome(lc_walk, e, env)


def test_finite_horizon_real_takes_lc_walk():
    env = {"x": LCNumber.from_real(0.5, 10)}
    value = eval_lc(parse_expr("x*x + 1/x"), env)
    assert value == LCNumber.from_real(2.25, 10)  # binary64 would drop the horizon
    assert value == lc_walk(parse_expr("x*x + 1/x"), env)


def test_multi_term_point_takes_lc_walk():
    env = {"x": 1 + D}
    value = eval_lc(parse_expr("1/x"), env)
    assert value == LCNumber([(j, (-1.0) ** j) for j in range(32)], 32)
    assert value == lc_walk(parse_expr("1/x"), env)
