"""The exact zero is one object: every result with no terms and an infinite
horizon is ``ZERO`` itself, and an empty number with a finite horizon never
is.  So ``x is ZERO`` is the exact-zero test the rest of the library uses.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import D, INF, LCNumber, ONE, ZERO

props = settings(deadline=None, max_examples=300)

exponents = st.builds(Fraction, st.integers(-6, 8), st.sampled_from([1, 2, 3]))
#: Small dyadics, and magnitudes whose products underflow to 0.0.
coefficients = st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0, 1e-200, -1e-200, 2.0**-600])
horizons = st.one_of(
    st.just(INF), st.builds(Fraction, st.integers(-6, 12), st.sampled_from([1, 2, 5]))
)


@st.composite
def numbers(draw, horizon=horizons):
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=4))
    return LCNumber(terms, draw(horizon))


def assert_one_zero(r):
    exact_zero = not r.terms and r.horizon == INF
    assert (r is ZERO) == exact_zero, (r, r.horizon)


def results(x, y, cap):
    yield from (x - x, x + (-x), -x + x, x.__add__(x, True), -(x - x))
    yield from (x + y, x - y, y - x, x * y, y * x, x * ZERO, ZERO * x, x * 0, 0 * x)
    yield from (x.__mul__(y, cap), x.__mul__(ZERO, cap), x.truncate(cap))
    yield from (-x, abs(x), x.infinitesimal_part(), x.without_small(1.0))
    yield from (x.without_small(INF), pickle.loads(pickle.dumps(x)), copy.copy(x))


@props
@given(numbers(), numbers(), st.builds(Fraction, st.integers(-12, 24), st.sampled_from([1, 7])))
def test_every_exact_zero_is_ZERO(x, y, cap):
    for r in results(x, y, cap):
        assert_one_zero(r)


@props
@given(numbers(horizon=st.just(INF)))
def test_exact_difference_with_itself_is_ZERO(x):
    assert x - x is ZERO and x + (-x) is ZERO


@props
@given(numbers(horizon=st.builds(Fraction, st.integers(-6, 12), st.sampled_from([1, 2]))))
def test_finite_horizon_empty_is_never_ZERO(x):
    for r in (x - x, x.without_small(INF), x.__mul__(ZERO, x.horizon)):
        assert not r and r is not ZERO and r.horizon == x.horizon


@pytest.mark.parametrize(
    "make",
    [
        lambda: LCNumber(()),
        lambda: LCNumber([], INF),
        lambda: LCNumber([(1, 1.0), (1, -1.0)]),
        lambda: LCNumber.from_real(0.0),
        lambda: LCNumber.from_real(-0.0),
        lambda: LCNumber.from_real(0),
        lambda: -ZERO,
        lambda: LCNumber.from_real(3).infinitesimal_part(),
        lambda: (1 + D - D * D).without_small(5.0),
        lambda: (1 + D) - (1 + D),
        lambda: (1 - D) + (D - 1),
        lambda: (1e-200 + 1e-200 * D) * (1e-200 - D * 1e-300),
        lambda: (1e-200 * D) * (1e-200 * D),
        lambda: ONE - 1,
        lambda: pickle.loads(pickle.dumps(ZERO)),
        lambda: copy.deepcopy(ZERO),
    ],
)
def test_zero_from_each_path_is_ZERO(make):
    assert make() is ZERO
