"""Property tests for the arithmetic that skips discarded work.

``x.__mul__(y, cap)`` must be ``(x * y).truncate(cap)``, the one-pass
subtraction must be ``x + (-y)``, ``compare`` must read the sign of the
leading term of ``x + (-y)``, ``core.power`` must equal the
square-and-multiply loop that starts from the unit, and ``core.powers``
must equal ``core.power``.  ``core.leading_difference`` must be the leading
term of ``(x - y).without_small(tol)``, and ``core.compare_lead`` must be
``compare`` and the valuation gap wherever the leading terms differ, and
``core.power_leads`` must be the leading term of ``c * powers(x, ns, ONE)[n]``
with that product's horizon, or None exactly where the float chain of the
leading coefficients reaches 0.0 or a value that is not finite.  Each is
compared bit for bit: the grid, the coefficients' binary64 bits and the
horizon with its type.  Coefficients include values that round and values
whose products underflow, exponents sit on unequal grids, and numbers may
be empty with a finite horizon.  Sums and products of one-term numbers, exact or with a
finite horizon, take the same merge and product as any other operands and
must equal the number built from the exact reference terms.  A number
passed as the cap stands for its horizon.
"""

import cProfile
import math
import pstats
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D, INF, LCNumber, ONE, Ordering, ZERO, diff_symbolic, eval_lc, parse_expr,
    monomial, taylor_jet,
)
from levicivita.calculus import _Jet, _layout
from levicivita.core import (
    compare_lead, gap_exceeds, gap_value, leading_difference, power, power_leads, powers,
)
from levicivita.expr import _LC, _float_inv

#: Run times on a shared machine vary too much for a per-example deadline.
props = settings(deadline=None, max_examples=300)

exponents = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 7])
)
coefficients = st.one_of(
    st.integers(-8, 8).filter(bool).map(float),
    st.floats(-1e3, 1e3, allow_nan=False).filter(bool),
    st.sampled_from([1 / 3, -0.1, 2.0**-1074, -3e-320, 1e-200, -1e150]),
)
finite_horizons = st.builds(
    Fraction, st.integers(-30, 40), st.sampled_from([1, 2, 3, 5, 12])
)
horizons = st.one_of(st.just(INF), finite_horizons)


@st.composite
def numbers(draw, horizon=horizons, max_terms=5):
    terms = draw(
        st.lists(st.tuples(exponents, coefficients), max_size=max_terms)
    )
    return LCNumber(terms, draw(horizon))


def bits(x: LCNumber) -> tuple:
    """Everything a number holds, with each coefficient's exact bits."""
    return (
        x._den,
        tuple((e, c.hex()) for e, c in x._iterms),
        x.horizon,
        type(x.horizon),
    )


#: Caps also come as floats, exact (n/8) or not, as ``truncate`` takes them.
float_caps = st.integers(-240, 320).map(lambda n: n / 8) | st.floats(-30, 40)


#: A number cap stands for its horizon: the exact zero, empty numbers with a
#: finite horizon, and numbers whose grids the operands need not share
#: (exponents and horizon on one grid, or the horizon on one of its own).
number_caps = st.one_of(
    st.just(ZERO),
    finite_horizons.map(lambda h: LCNumber([], h)),
    numbers(),
    numbers(st.builds(Fraction, st.integers(-40, 90), st.sampled_from([7, 11]))),
)


@props
@given(numbers(), numbers(), horizons | float_caps, number_caps)
def test_capped_product_is_the_truncated_product(x, y, cap, s):
    assert bits(x.__mul__(y, cap)) == bits((x * y).truncate(cap))
    got, want = x.__mul__(y, s), x.__mul__(y, s.horizon)
    assert bits(got) == bits(want)
    assert hash(got) == hash(want)


@props
@given(numbers(), numbers())
def test_uncapped_product_is_the_product(x, y):
    assert bits(x.__mul__(y, INF)) == bits(x * y)


def test_float_cap_cuts_the_product():
    x = 1 + D
    got = x.__mul__(x, 1.5)
    assert bits(got) == bits((x**2).truncate(1.5))
    assert bits(got) == bits(LCNumber([(0, 1.0), (1, 2.0)], Fraction(3, 2)))


@props
@given(numbers(), st.one_of(numbers(), coefficients))
def test_subtraction_is_adding_the_negation(x, y):
    assert bits(x - y) == bits(x + (-LCNumber._coerce(y)))


@props
@given(st.one_of(numbers(), coefficients), numbers())
def test_reflected_subtraction_is_adding_the_negation(x, y):
    want = bits(LCNumber._coerce(x) + (-y))
    assert bits(y.__rsub__(x)) == want
    assert bits(x - y) == want


@props
@given(numbers(), st.one_of(numbers(), coefficients))
def test_compare_is_the_sign_of_the_leading_difference(x, y):
    diff = x + (-LCNumber._coerce(y))
    if not diff:
        want = Ordering.EQUAL_AT_HORIZON
    else:
        want = Ordering.GREATER if diff._iterms[0][1] > 0 else Ordering.LESS
    assert x.compare(y) is want


#: Noise floors: none, sizes that cut some coefficients, and one above all.
floors = st.sampled_from([0.0, 1e-300, 0.5, 3.0, 1e3])


@props
@given(numbers(), numbers(), floors)
def test_leading_difference_is_the_leading_term_of_the_filtered_difference(x, y, tol):
    full = (x - y).without_small(tol)
    lead = leading_difference(x, y, tol)
    assert lead.horizon == full.horizon and type(lead.horizon) is type(full.horizon)
    assert [(e, c.hex()) for e, c in lead.terms] == [
        (e, c.hex()) for e, c in full.terms[:1]
    ]


@props
@given(numbers(max_terms=1), numbers(), st.booleans())
def test_compare_lead_reads_the_two_leading_terms(lhs, rhs, tie):
    if tie and lhs and rhs:  # lhs takes rhs's leading term
        lhs = LCNumber(rhs.terms[:1], lhs.horizon)
    order, gap = compare_lead(lhs, rhs)
    want = (
        -INF if not lhs else INF if not rhs
        else rhs.valuation() - lhs.valuation()
    )
    assert gap_value(gap) == want
    if lhs and rhs and lhs.terms[0] == rhs.terms[0]:
        assert order is None
    else:
        assert order is lhs.compare(rhs)


#: Gaps on unequal grids, both signs, zero and the two infinities.
gaps = st.one_of(
    st.tuples(st.integers(-30, 30), st.integers(1, 12)),
    st.sampled_from([(1, 0), (-1, 0)]),
)


@props
@given(gaps, gaps)
def test_gap_exceeds_orders_the_gap_values(a, b):
    assert gap_exceeds(a, b) is (gap_value(a) > gap_value(b))


def unit_started_power(x, n, one, inv):
    """The square-and-multiply loop whose first product is one * x."""
    if n < 0:
        x, n = inv(x), -n
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def outcome(fn):
    try:
        return "value", fn()
    except ArithmeticError as exc:
        return "raised", type(exc)


@props
@given(numbers(max_terms=3), st.integers(0, 9))
def test_power_of_lc_numbers(x, n):
    want = unit_started_power(x, n, ONE, LCNumber.inv)
    assert bits(power(x, n, ONE)) == bits(want)
    # the square chain forms each x^m as power does, for every m at once
    chain = powers(x, range(17), ONE)
    for m in range(17):
        assert bits(chain[m]) == bits(power(x, m, ONE)), m


def leading_term(x: LCNumber) -> LCNumber:
    """x's first visible term, as a number with x's horizon."""
    return LCNumber(x.terms[:1], x.horizon)


def float_chain_fails(c: LCNumber, x: LCNumber, ns) -> bool:
    """Whether a leading coefficient of the chain c * x^n is 0.0 or not
    finite (or c or x has none)."""
    if not c or not x:
        return True
    chain = powers(x.terms[0][1], ns, 1.0)
    values = list(chain.values()) + [c.terms[0][1] * chain[n] for n in ns]
    return any(p == 0.0 or not math.isfinite(p) for p in values)


@props
@given(
    numbers(max_terms=4),
    numbers(max_terms=3),
    st.sets(st.integers(0, 8), min_size=1).map(sorted),
)
def test_power_leads_are_the_leading_terms_of_the_scaled_powers(x, eps, ns):
    got = power_leads(eps, x, ns)
    assert (got is None) is float_chain_fails(eps, x, ns)
    if got is None:
        return
    chain = powers(x, ns, ONE)
    assert sorted(got) == ns
    for n in ns:
        assert bits(got[n]) == bits(leading_term(eps * chain[n])), n


def test_power_leads_refuse_a_chain_that_underflows_or_overflows():
    tiny, huge = monomial(1, 1e-200), LCNumber.from_real(1e200)
    assert power_leads(ONE, tiny, [2]) is None
    assert not tiny * tiny  # the product's lead underflowed and went
    assert power_leads(ONE, huge, [2]) is None
    assert (huge * huge).terms[0][1] == math.inf
    assert power_leads(huge, huge, [0]) is not None
    assert power_leads(huge, huge, [0, 1]) is None  # only the last product overflows
    assert power_leads(ZERO, D, [1]) is None
    assert power_leads(ONE, LCNumber([], 3), [1]) is None


def test_power_leads_at_order_0_keep_the_horizon_of_c():
    # c * x^0 is c * ONE, of horizon h(c) = 5; the product rule's second
    # term h(x) + (n-1)*lambda(x) + lambda(c) would read 3 - 1 + 0 = 2.
    x = LCNumber([(1, 2.0), (2, 1.0)], Fraction(3))
    c = LCNumber([(0, 1.5), (1, 1.0)], Fraction(5))
    got = power_leads(c, x, [0, 1, 3])
    assert got[0].horizon == 5 and got[0].terms == ((0, 1.5),)
    for n in (0, 1, 3):
        assert bits(got[n]) == bits(leading_term(c * power(x, n, ONE))), n


@props
@given(
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 2.0**-1074, 1e200, -1e-200]),
    st.integers(-40, 40),
)
def test_power_of_floats(x, n):
    def hexed(result):
        kind, value = result
        return kind, value.hex() if kind == "value" else value

    got = outcome(lambda: power(x, n, 1.0, _float_inv))
    want = outcome(lambda: unit_started_power(x, n, 1.0, _float_inv))
    assert hexed(got) == hexed(want)


@props
@given(
    st.sampled_from([(1, 3), (2, 2), (3, 1)]).flatmap(
        lambda nk: st.tuples(
            st.just(nk),
            st.lists(
                numbers(max_terms=2),
                min_size=len(_layout(*nk).indices),
                max_size=len(_layout(*nk).indices),
            ),
        )
    ),
    st.integers(0, 5),
)
def test_power_of_jets(shape_coeffs, n):
    (nvars, k), coeffs = shape_coeffs
    layout = _layout(nvars, k)
    jet = _Jet(layout, coeffs, _LC)
    unit = _Jet.constant(ONE, layout, _LC)
    got = power(jet, n, unit)
    want = unit_started_power(jet, n, unit, _Jet.inv)
    assert [bits(c) for c in got.c] == [bits(c) for c in want.c]


# -- one-term operands ---------------------------------------------------------

grid_exponents = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6])
)
#: Adds coefficients whose products underflow to 0.0 or -0.0.
one_term_coefficients = st.one_of(
    coefficients, st.sampled_from([1e-200, -1e-200, 2.0**-1074, -3e-320])
)
#: How far past its exponent a one-term number's finite horizon lies.
offsets = st.builds(Fraction, st.integers(1, 20), st.sampled_from([1, 2, 3, 6]))


def assert_is(got: LCNumber, want: LCNumber):
    assert (got._den, got._h, got._iterms) == (want._den, want._h, want._iterms)
    assert bits(got) == bits(want)
    assert hash(got) == hash(want)


@props
@given(
    grid_exponents,
    one_term_coefficients,
    grid_exponents,
    one_term_coefficients,
    st.one_of(st.just(ZERO), numbers(st.just(INF))),
)
def test_exact_one_term_product_is_the_exact_monomial(ea, ca, eb, cb, s):
    # an exact number cap is an infinite cap, and leaves the product whole
    x, y = LCNumber([(ea, ca)]), LCNumber([(eb, cb)])
    want = LCNumber([(ea + eb, ca * cb)])
    assert_is(x * y, want)
    assert_is(x.__mul__(y, s), want)


@props
@given(
    grid_exponents,
    one_term_coefficients,
    grid_exponents,
    one_term_coefficients,
    st.booleans(),
)
def test_exact_one_term_sum_is_the_exact_sum(ea, ca, eb, cb, neg):
    # on one exponent the reference sums 0.0 + ca + (+-cb), which is ca +- cb
    x, y = LCNumber([(ea, ca)]), LCNumber([(eb, cb)])
    got = x - y if neg else x + y
    assert_is(got, LCNumber([(ea, ca), (eb, -cb if neg else cb)]))


@props
@given(grid_exponents, one_term_coefficients)
def test_exact_one_term_difference_with_itself_is_zero(e, c):
    x = LCNumber([(e, c)])
    assert_is(x - x, ZERO)
    assert_is(x + (-x), ZERO)


@props
@given(
    grid_exponents,
    one_term_coefficients,
    offsets,
    grid_exponents,
    one_term_coefficients,
    st.one_of(st.just(None), offsets),
    st.booleans(),
)
def test_one_term_operands_with_a_finite_horizon(ea, ca, oa, eb, cb, ob, swap):
    ha, hb = ea + oa, INF if ob is None else eb + ob
    x, y = LCNumber([(ea, ca)], ha), LCNumber([(eb, cb)], hb)
    if swap:
        x, y = y, x
    # h(x * y) = min(h(x) + lambda(y), h(y) + lambda(x)); an underflowed
    # product is an empty number with that horizon, not ZERO
    assert_is(x * y, LCNumber([(ea + eb, ca * cb)], min(ha + eb, hb + ea)))
    s = LCNumber([(ea, ca), (eb, cb)], min(ha, hb))
    assert_is(x + y, s)
    assert_is(x - x, LCNumber([], x.horizon))


def test_real_point_jets_make_no_lc_product_sum_or_inverse():
    # at an exactly-known real point the jet and eval_lc of the derivative
    # chain run in binary64: LCNumber only holds the point and the results
    chains = []
    for text in ("exp(x)*sin(x)", "ln(1+x)/(2+x)"):
        chain = [parse_expr(text)]
        for _ in range(8):
            chain.append(diff_symbolic(chain[-1], "x"))
        chains.append(chain)
    profile = cProfile.Profile()
    profile.enable()
    for chain in chains:
        for x0 in (0, Fraction(3, 8)):
            taylor_jet(chain[0], "x", x0, 8)
            for g in chain:
                eval_lc(g, {"x": x0})
    profile.disable()
    calls = {
        key[2]: row[1]
        for key, row in pstats.Stats(profile).stats.items()
        if Path(key[0]).name == "core.py"
    }
    names = ("__mul__", "__add__", "inv", "compare")
    assert [calls.get(name, 0) for name in names] == [0, 0, 0, 0]
