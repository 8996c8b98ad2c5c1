"""Property tests for the field laws, the three-valued order and the literal
round trip.

Numbers have at most four terms, exponents in [-3, 6] with denominators up
to 4 and dyadic coefficients k/64 with 0 < |k| <= 128.  Every sum and every
product of up to three such numbers is then exact in binary64, so the laws
hold structurally (same terms, same horizon) and ``==`` checks them.

The laws are also checked on coefficients that round (k/q * 10^s with q
not a power of two).  There the two sides agree up to binary64 rounding:
per exponent below the common horizon, within ROUNDING_REL_TOL of the
largest coefficient that either side could form.  Addition still commutes
exactly.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    INF,
    LCNumber,
    Ordering,
    compare,
    default_horizon,
    format_lc,
    parse_lc,
)

#: Run times on a shared machine vary too much for a per-example deadline.
props = settings(deadline=None, max_examples=300)


def rationals(lo: int, hi: int):
    """Fractions in [lo, hi] with denominators up to 4."""
    return st.integers(1, 4).flatmap(
        lambda den: st.integers(lo * den, hi * den).map(lambda n: Fraction(n, den))
    )


exponents = rationals(-3, 6)
coefficients = st.integers(-128, 128).filter(bool).map(lambda k: k / 64)
horizons = st.one_of(st.just(INF), rationals(1, 12))


@st.composite
def numbers(draw, horizon=horizons):
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=4))
    return LCNumber(terms, draw(horizon))


@props
@given(numbers(), numbers())
def test_addition_commutes(x, y):
    assert x + y == y + x


@props
@given(numbers(), numbers())
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@props
@given(numbers(), numbers(), numbers())
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@props
@given(numbers(), numbers(), numbers())
def test_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


ROUNDING_REL_TOL = 1e-12

rounding_coefficients = st.builds(
    lambda k, q, s: k / q * 10.0**s,
    st.integers(-1000, 1000).filter(bool),
    st.sampled_from((3, 5, 7, 10)),
    st.integers(-3, 3),
)


@st.composite
def rounding_numbers(draw):
    terms = draw(st.lists(st.tuples(exponents, rounding_coefficients), max_size=4))
    return LCNumber(terms, draw(horizons))


def assert_close(a, b, scale):
    h = min(a.horizon, b.horizon)
    for e in {e for e, _ in a.terms + b.terms if e < h}:
        assert abs(a.coefficient(e) - b.coefficient(e)) <= ROUNDING_REL_TOL * scale, e


def largest(*xs):
    return max(x.max_abs_coefficient() for x in xs)


@props
@given(rounding_numbers(), rounding_numbers())
def test_addition_commutes_exactly_on_rounding_coefficients(x, y):
    assert x + y == y + x


@props
@given(rounding_numbers(), rounding_numbers(), rounding_numbers())
def test_addition_associates_up_to_rounding(x, y, z):
    assert_close((x + y) + z, x + (y + z), largest(x, y, z))


@props
@given(rounding_numbers(), rounding_numbers(), rounding_numbers())
def test_multiplication_associates_up_to_rounding(x, y, z):
    scale = largest(x) * largest(y) * largest(z)
    assert_close((x * y) * z, x * (y * z), scale)


@props
@given(rounding_numbers(), rounding_numbers(), rounding_numbers())
def test_multiplication_distributes_up_to_rounding(x, y, z):
    scale = largest(x) * largest(y, z)
    assert_close(x * (y + z), x * y + x * z, scale)


_MIRROR = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.GREATER: Ordering.LESS,
    Ordering.EQUAL_AT_HORIZON: Ordering.EQUAL_AT_HORIZON,
}


@props
@given(numbers(), numbers())
def test_compare_is_antisymmetric(x, y):
    assert compare(y, x) is _MIRROR[compare(x, y)]


@st.composite
def literals(draw):
    """Numbers as parse_lc makes them: pure reals are exact, others carry
    the default horizon."""
    x = draw(numbers(st.just(INF)))
    if any(e != 0 for e, _ in x.terms):
        return LCNumber(x.terms, default_horizon())
    return x


@props
@given(literals())
def test_format_parse_round_trip(x):
    assert parse_lc(format_lc(x)) == x
