"""Property tests for the horizon algebra kept on the integer grid.

Each property is checked against a reference computed with plain
``Fraction`` arithmetic.  Coefficients are small integers, so every sum and
product of them is exact in binary64 and the references compare exactly.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import INF, LCNumber
from levicivita.core import _ceil_bound

#: Run times on a shared machine vary too much for a per-example deadline.
props = settings(deadline=None, max_examples=300)

exponents = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6])
)
coefficients = st.integers(-8, 8).filter(bool).map(float)
finite_horizons = st.builds(
    Fraction, st.integers(-30, 40), st.sampled_from([1, 2, 3, 5, 12])
)
horizons = st.one_of(st.just(INF), finite_horizons)


@st.composite
def numbers(draw, horizon=horizons):
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=5))
    return LCNumber(terms, draw(horizon))


def reference(pairs, horizon):
    """Merged, zero-free, clipped terms of a sum of (exponent, coeff) pairs."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0.0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c and e < horizon))


@props
@given(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    st.integers(1, 10**4),
)
def test_ceil_bound_is_ceiling(h, den):
    assert _ceil_bound(h, den) == math.ceil(Fraction(h) * den)


@props
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_ceil_bound_of_integer_horizon(n, den):
    assert _ceil_bound(Fraction(n), den) == n * den


def test_ceil_bound_of_inf():
    assert _ceil_bound(INF, 6) is None


@props
@given(
    st.sampled_from(["finite/finite", "finite/inf", "inf/inf"]).flatmap(
        lambda mix: st.tuples(
            numbers(finite_horizons if mix != "inf/inf" else st.just(INF)),
            numbers(finite_horizons if mix == "finite/finite" else st.just(INF)),
        )
    ),
    st.booleans(),
)
def test_product_horizon_and_terms(pair, swap):
    x, y = pair[::-1] if swap else pair
    p = x * y
    # a factor with no visible terms has valuation at least its horizon
    lam_x = x.valuation() if x else x.horizon
    lam_y = y.valuation() if y else y.horizon
    want = min(x.horizon + lam_y, y.horizon + lam_x)
    assert p.horizon == want
    assert type(p.horizon) is (float if want == INF else Fraction)
    products = [(ex + ey, cx * cy) for ex, cx in x.terms for ey, cy in y.terms]
    assert p.terms == (reference(products, want) if x and y else ())


@props
@given(numbers(), numbers())
def test_sum_horizon_and_terms(x, y):
    s = x + y
    want = min(x.horizon, y.horizon)
    assert s.horizon == want
    assert s.terms == reference(x.terms + y.terms, want)


@props
@given(numbers(), coefficients, exponents, st.integers(1, 6), horizons)
def test_monomial_mul_takes_unreduced_shift(x, coeff, shift, k, horizon):
    reduced = x._monomial_mul(coeff, shift.numerator, shift.denominator, horizon)
    scaled = x._monomial_mul(
        coeff, k * shift.numerator, k * shift.denominator, horizon
    )
    assert reduced == scaled
    assert reduced.terms == reference(
        [(e + shift, c * coeff) for e, c in x.terms], horizon
    )
