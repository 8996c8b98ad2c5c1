"""Jets at exactly-known real points run in binary64.

Every jet ``taylor_jet`` and ``partial_jet`` return there must be the one
the LC walk gives, coefficient for coefficient, and every error the LC
walk's error, so these tests run the LC domain of the jet walk beside them
and compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import LCNumber, parse_expr, partial_jet, taylor_jet
from levicivita.calculus import _layout, _walk
from levicivita.expr import _LC

from _corpus import BASE_POINTS, CORPUS_30


def lc_jet(f, names, center, k):
    """The coefficients of the LC walk, in the graded order of _layout."""
    center = [LCNumber.from_real(c) for c in center]
    return _walk(f, names, center, _layout(len(names), k), _LC)


def outcome(f, *args):
    """The exact bits of the coefficients f returns, or the type and message
    of what it raised.  Past an overflow LC may hold a nan, which is not
    equal to itself, so coefficients compare by their hex strings."""
    try:
        coeffs = f(*args)
    except Exception as exc:
        return (type(exc), str(exc))
    return [(c._den, [(e, v.hex()) for e, v in c._iterms], c._h) for c in coeffs]


def real_jet(f, x, k):
    return list(taylor_jet(f, "x", LCNumber.from_real(x), k).coeffs)


def real_partials(f, point, k):
    return list(partial_jet(f, ["x", "y"], point, k).table.values())


@pytest.mark.parametrize("text", CORPUS_30)
def test_corpus_jets_bit_identical_to_lc_walk(text):
    f = parse_expr(text)
    for pt in BASE_POINTS:
        assert outcome(real_jet, f, pt, 8) == outcome(lc_jet, f, ["x"], [pt], 8)


EDGE_EXPRS = [parse_expr(t) for t in (
    "ln(x)", "sqrt(x)", "1/x", "x^-3", "abs(x)",
    # LC raises on the reciprocal of a subnormal, binary64 gets inf and then 0
    "1/(1/x)",
    # at large x, x*x overflows to inf in both domains, and LC's reciprocal
    # of inf is a term with coefficient 0, which only a product with 1 drops
    "1/(x*x)", "(x*x)^-1",
    # at large x, (x - x)*(x*x) is an exact zero in LC and nan in binary64
    "exp((x - x)*(x*x) + 1000)^0",
)]
EDGE_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 710.0, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=300)
@given(e=st.sampled_from(EDGE_EXPRS), x=EDGE_POINTS, k=st.integers(0, 8))
def test_edges_match_lc_walk(e, x, k):
    assert outcome(real_jet, e, x, k) == outcome(lc_jet, e, ["x"], [x], k)


PAIR_EXPRS = [parse_expr(t) for t in (
    "exp(x+y)", "x*y/(1+x*x+y*y)", "sin(x)*cos(y)", "ln(1+x*y)",
    "sqrt(x*x+y*y)", "1/(x-y)", "abs(x)*y", "exp(x)*ln(2+y)/(3+x*y)",
)]
PAIR_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0, 1e200, 710.0, 5e-324]),
    st.floats(-4.0, 4.0),
)


@settings(deadline=None, max_examples=200)
@given(
    e=st.sampled_from(PAIR_EXPRS),
    point=st.tuples(PAIR_COORDS, PAIR_COORDS),
    k=st.integers(0, 4),
)
def test_partial_jets_at_real_pairs_match_lc_walk(e, point, k):
    got = outcome(real_partials, e, point, k)
    assert got == outcome(lc_jet, e, ["x", "y"], point, k)
