"""Property tests for the horizon algebra kept on the integer grid.

Each property is checked against a reference computed with plain
``Fraction`` arithmetic.  Coefficients are small integers, so every sum and
product of them is exact in binary64 and the references compare exactly.
"""

import cProfile
import math
import pstats
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import levicivita
from levicivita import INF, LCNumber, parse_expr, partial_jet
from levicivita.calculus import _Jet, _layout, partial_taylor_sums
from levicivita.core import _horizon_pair, _on_grid
from levicivita.expr import _LC

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
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(1, 10**4))
def test_on_grid_is_the_least_grid_holding_the_rational(num, qd, den):
    grid, n = _on_grid(num, qd, den)
    assert grid == math.lcm(den, qd)
    assert Fraction(n, grid) == Fraction(num, qd)


@props
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_on_grid_keeps_a_grid_that_holds_the_rational(n, den):
    assert _on_grid(n, 1, den) == (den, n * den)


def test_infinite_horizon_is_none_on_the_grid():
    assert _horizon_pair(INF) is None
    assert LCNumber([(Fraction(1, 2), 1.0)], INF)._h is None
    assert _horizon_pair(Fraction(5, 2)) == (5, 2)
    assert _horizon_pair(2.5) == (5, 2)


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
    # self * coeff * d^shift cut at horizon, on the least grid and on one
    # k times finer
    grid = math.lcm(x._den, shift.denominator)
    if horizon != INF:
        grid = math.lcm(grid, horizon.denominator)
    off = shift.numerator * (grid // shift.denominator)
    h = None if horizon == INF else horizon.numerator * (grid // horizon.denominator)
    reduced = x._monomial_mul(coeff, off, grid, h)
    scaled = x._monomial_mul(coeff, k * off, k * grid, None if h is None else k * h)
    assert reduced == scaled
    assert reduced.horizon == horizon
    assert reduced.terms == reference(
        [(e + shift, c * coeff) for e, c in x.terms], horizon
    )


@props
@given(numbers(), coefficients, exponents)
def test_scaled_moves_terms_and_horizon_by_the_shift(x, coeff, shift):
    r = x._scaled(coeff, shift)
    assert r.horizon == x.horizon + shift
    assert r.terms == reference([(e + shift, c * coeff) for e, c in x.terms], INF)
    assert_canonical(r)


# -- the grid invariant ------------------------------------------------------------

#: Denominators of the operands' grids, and of caps on neither of them.
grid_exponents = st.builds(Fraction, st.integers(-6, 9), st.sampled_from([1, 2, 3, 4]))
grid_horizons = st.one_of(
    st.just(INF), st.builds(Fraction, st.integers(-6, 12), st.sampled_from([1, 2, 3, 5]))
)
off_grid_caps = st.builds(Fraction, st.integers(-40, 90), st.sampled_from([7, 11]))


@st.composite
def grid_numbers(draw):
    terms = draw(st.lists(st.tuples(grid_exponents, coefficients), max_size=4))
    return LCNumber(terms, draw(grid_horizons))


def assert_canonical(x):
    exps = [e for e, _ in x._iterms]
    g = x._den if x._h is None else math.gcd(x._den, x._h)
    for e in exps:
        g = math.gcd(g, e)
    assert g == 1
    assert exps == sorted(set(exps))
    assert all(c != 0.0 for _, c in x._iterms)
    assert x._h is None or all(e < x._h for e in exps)
    assert x.horizon == (INF if x._h is None else Fraction(x._h, x._den))
    same = LCNumber(x.terms, x.horizon)
    assert x == same and hash(x) == hash(same)


@settings(deadline=None, max_examples=150)
@given(grid_numbers(), grid_numbers(), st.one_of(off_grid_caps, finite_horizons))
def test_results_stay_canonical_on_their_grid(x, y, cap):
    results = [
        x + y,
        x - y,
        x * y,
        x.__mul__(y, cap),
        x.truncate(cap),
        x.infinitesimal_part(),
        x.without_small(2.5),
    ]
    if x:
        # the unit part is known up to h(x) - lambda(x) at most
        limit = min(cap, x.horizon - x.valuation())
        results.append(x._unit_part(limit))
        with levicivita.horizon(Fraction(9, 2)):
            results.append(x.inv())
    for r in results:
        assert_canonical(r)


# -- int-only arithmetic -----------------------------------------------------------


def _fractions_built(fn) -> int:
    """Fractions constructed while fn runs, counted with cProfile."""
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return sum(
        row[1]
        for key, row in pstats.Stats(profile).stats.items()
        if Path(key[0]).name == "fractions.py"
        and key[2] in ("__new__", "_from_coprime_ints")
    )


def test_arithmetic_on_the_grid_builds_no_fraction():
    F = Fraction
    x = LCNumber([(F(1, 2), 1.5), (F(1), -2.0), (F(7, 3), 0.5)], F(41, 6))
    y = LCNumber([(F(-1, 3), 2.0), (F(1, 4), 1.0), (F(5, 2), 3.0)], F(29, 4))
    cap, cut = F(33, 7), F(13, 5)

    def work():
        x + y
        x - y
        x * y
        x.__mul__(y, cap)
        x.compare(y)
        y.compare(x)
        x.truncate(cut)
        x.inv()

    assert _fractions_built(work) == 0


def test_capped_sums_build_no_fraction():
    # a sum hands itself to the product it adds as the cap, so no finite
    # horizon is read as a Fraction on the way
    F = Fraction
    x0 = LCNumber([(0, 1.0), (F(1, 2), 0.5), (F(3, 2), -2.0)], F(19, 2))
    y0 = LCNumber([(0, 2.0), (F(1, 3), -1.5)], F(28, 3))
    pj = partial_jet(parse_expr("exp(x)*y/(1+x*y)"), ["x", "y"], [x0, y0], 4)
    v = [LCNumber([(F(3, 2), 1.0), (2, 0.25)], 9), LCNumber([(F(5, 3), -1.0)], 9)]
    assert _fractions_built(lambda: partial_taylor_sums(pj, v, [2, 4])) == 0

    layout = _layout(2, 3)
    coeffs = [
        LCNumber([(F(j, 2), 1.0 + j), (F(j + 3, 3), -0.5)], F(40 - j, 4))
        for j in range(len(layout.indices))
    ]
    jet = _Jet(layout, coeffs, _LC)
    other = _Jet(layout, coeffs[::-1], _LC)
    assert _fractions_built(lambda: jet * other) == 0
    # core's own inv of the multi-term constant term builds none either
    assert _fractions_built(jet.inv) == 0
