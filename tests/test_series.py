import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D,
    LCNumber,
    ONE,
    PowerSeries,
    Verdict,
    ZERO,
    apply_elementary,
    approx_equal,
    converges_at,
    cos,
    default_horizon,
    differentiate_termwise,
    exp,
    horizon,
    lambda0_estimate,
    ln,
    monomial,
    nth_root,
    parse_expr,
    parse_lc,
    recenter,
    sin,
    sum_at,
    taylor_jet,
    diff_symbolic,
)
from levicivita.series import _taylor_sum
from levicivita.errors import (
    DomainError,
    EmptySeriesError,
    NotConvergentError,
    NotInRadiusError,
    NotPositiveError,
    OrderTooHighError,
)

F = Fraction


def real(v):
    return LCNumber.from_real(v)


def series_of(*coeffs, center=ZERO):
    return PowerSeries(center, tuple(coeffs))


# -- lambda0 ------------------------------------------------------------------------


def test_lambda0_growing_coefficients():
    s = series_of(*[monomial(-j) for j in range(13)])
    for window in (1, 3, 6, 12):
        assert lambda0_estimate(s, window) == 1


def test_lambda0_constant_coefficients():
    s = series_of(*[ONE] * 13)
    assert lambda0_estimate(s) == 0


def test_lambda0_polynomial_tail_is_neg_inf():
    s = series_of(real(1), real(2), real(1), *[ZERO] * 10)
    assert lambda0_estimate(s) == -math.inf


def test_lambda0_requires_tail():
    with pytest.raises(EmptySeriesError):
        lambda0_estimate(series_of(ONE))
    with pytest.raises(ValueError):
        lambda0_estimate(series_of(ONE, ONE), window=5)


def test_lambda0_exact_for_linear_growth():
    for c in (F(1, 2), F(2), F(5, 3)):
        s = series_of(ONE, *[monomial(-c * j) for j in range(1, 11)])
        for window in (1, 4, 10):
            assert lambda0_estimate(s, window) == c


# -- convergence --------------------------------------------------------------------


def test_converges_at_classification():
    s = series_of(*[monomial(-j) for j in range(13)])
    expected = {
        F(1, 2): Verdict.DIVERGES,
        F(1): Verdict.BOUNDARY,
        F(3, 2): Verdict.CONVERGES,
        F(2): Verdict.CONVERGES,
    }
    for lam, verdict in expected.items():
        v = converges_at(s, monomial(lam))
        assert v.verdict is verdict
        assert v.gap == lam - 1


def test_converges_at_center():
    s = series_of(*[monomial(-j) for j in range(13)])
    assert converges_at(s, ZERO).verdict is Verdict.CONVERGES


# -- summation ----------------------------------------------------------------------


def test_sum_polynomial_jet_exact():
    # jet of x^2 at 0 evaluated at 1 + d; trailing zeros let the window
    # estimate see that the coefficients terminate
    s = series_of(ZERO, ZERO, ONE, ZERO, ZERO, ZERO)
    y = 1 + D
    assert sum_at(s, y) == y * y


def test_sum_without_trailing_zeros_is_boundary():
    # with jmax == degree the finite-sample estimate cannot rule out a
    # geometric-like tail, so a finite point sits on the boundary
    s = series_of(ZERO, ZERO, ONE)
    with pytest.raises(NotConvergentError):
        sum_at(s, 1 + D)


def test_sum_geometric_inverse_check():
    s = series_of(*[ONE] * 40)
    x = parse_lc("d")  # default horizon 32
    total = sum_at(s, x)
    assert (total * (1 - x)).terms == ((F(0), 1.0),)


def test_sum_at_center_returns_a0():
    s = series_of(real(7), real(3), real(9))
    assert sum_at(s, ZERO) == real(7)


def test_sum_requires_convergence():
    s = series_of(*[monomial(-j) for j in range(13)])
    with pytest.raises(NotConvergentError):
        sum_at(s, monomial(F(1, 2)))


# -- term-by-term differentiation ---------------------------------------------------


def test_termwise_derivative_of_cubic():
    s = series_of(ZERO, ZERO, ZERO, ONE)  # x^3
    ds = differentiate_termwise(s, 1)
    assert ds.coeffs == (ZERO, ZERO, real(3))


def test_termwise_derivative_of_exp_jet():
    coeffs = tuple(real(1 / math.factorial(j)) for j in range(10))
    ds = differentiate_termwise(PowerSeries(ZERO, coeffs), 1)
    for j, c in enumerate(ds.coeffs):
        assert c.real_part() == pytest.approx(1 / math.factorial(j), rel=1e-12)


@pytest.mark.parametrize(
    "text", ["x^4 - 2*x^2 + x", "exp(x)", "sin(x)", "cos(x)", "x*sin(x)", "exp(x)*cos(x)"]
)
def test_termwise_matches_symbolic_oracle(text):
    f = parse_expr(text)
    jet = taylor_jet(f, "x", ZERO, 9)
    termwise = differentiate_termwise(jet.to_power_series(), 1)
    oracle = taylor_jet(diff_symbolic(f, "x"), "x", ZERO, 8)
    for mine, ref in zip(termwise.coeffs, oracle.coeffs):
        assert mine.real_part() == pytest.approx(ref.real_part(), rel=1e-10, abs=1e-12)


def test_termwise_order_too_high():
    with pytest.raises(OrderTooHighError):
        differentiate_termwise(series_of(ONE, ONE), 5)


# -- recentering ---------------------------------------------------------------------


def test_recenter_square_to_one():
    s = series_of(ZERO, ZERO, ONE, ZERO, ZERO)  # x^2 around 0
    r = recenter(s, ONE)
    assert r.coeffs[:3] == (ONE, real(2), ONE)
    assert all(c.is_zero for c in r.coeffs[3:])


def test_recenter_by_zero_is_identity():
    s = series_of(real(3), real(1), real(4))
    r = recenter(s, ZERO)
    assert r.coeffs == s.coeffs


def test_recenter_exp_jet_at_d_scales_by_exp():
    jmax = 11
    coeffs = tuple(real(1 / math.factorial(j)) for j in range(jmax + 1))
    s = PowerSeries(ZERO, coeffs)
    r = recenter(s, D)
    scale = exp(D)
    for j, (a, ra) in enumerate(zip(coeffs, r.coeffs)):
        # c_j is the truncation of a_j*exp(d) at order jmax - j
        ref = (a * scale).truncate(F(jmax - j) + 1)
        assert approx_equal(ra, ref, rel_tol=1e-12)
    # sampled evaluations agree where both converge
    for probe in (monomial(2), monomial(3, 0.5)):
        lhs = sum_at(s, D + probe)
        rhs = sum_at(r, D + probe)
        assert approx_equal(lhs, rhs, rel_tol=1e-10)


def test_recenter_commutes_with_termwise_diff_on_polynomials():
    s = series_of(real(1), real(-3), ZERO, real(2), real(5), ZERO, ZERO, ZERO, ZERO)
    a = differentiate_termwise(recenter(s, ONE), 1)
    b = recenter(differentiate_termwise(s, 1), ONE)
    assert a.coeffs == b.coeffs


def test_recenter_outside_radius_raises():
    s = series_of(*[monomial(-j) for j in range(13)])  # lambda0 = 1
    with pytest.raises(NotInRadiusError):
        recenter(s, monomial(F(1, 2)))


# -- elementary functions -------------------------------------------------------------


def test_exp_of_zero():
    assert exp(ZERO) == ONE
    assert exp(0) == ONE


def test_exp_of_d_round_trip():
    e = exp(D)
    assert e.coefficient(0) == 1.0
    assert e.coefficient(1) == 1.0
    assert e.coefficient(2) == 0.5
    assert approx_equal(e * exp(-D), ONE)


def test_exp_addition_law():
    x = monomial(1, 0.5)
    y = monomial(F(3, 2), -1.25)
    assert approx_equal(exp(x + y), exp(x) * exp(y), rel_tol=1e-12)


def test_exp_rejects_infinite_argument():
    with pytest.raises(DomainError):
        exp(monomial(-1))


def test_ln_round_trip():
    l = ln(1 + D)
    assert l.coefficient(1) == 1.0
    assert l.coefficient(2) == -0.5
    assert approx_equal(exp(l), 1 + D)


def test_ln_domain_errors():
    with pytest.raises(DomainError):
        ln(D)  # infinitesimal
    with pytest.raises(DomainError):
        ln(-1 + D)  # negative real part
    with pytest.raises(DomainError):
        ln(ZERO)


def test_sin_cos_pythagoras():
    for x in (D, monomial(1, 0.5) + monomial(2, -2.0), LCNumber.from_real(0.7) + D):
        assert approx_equal(sin(x) ** 2 + cos(x) ** 2, ONE, rel_tol=1e-12)


def test_sin_cos_at_real_points():
    x = LCNumber.from_real(0.3)
    assert sin(x).real_part() == pytest.approx(math.sin(0.3), rel=1e-15)
    assert cos(x).real_part() == pytest.approx(math.cos(0.3), rel=1e-15)


def test_apply_elementary_dispatch():
    assert apply_elementary("exp", ZERO) == ONE
    x = 2 + D
    assert apply_elementary("sqrt", x) == nth_root(x, 2)
    assert apply_elementary("abs", -x) == x
    with pytest.raises(ValueError):
        apply_elementary("tan", ZERO)


# -- nth_root -------------------------------------------------------------------------


def test_nth_root_examples():
    assert nth_root(monomial(2), 2) == monomial(1)
    assert nth_root(4, 2) == LCNumber.from_real(2)
    r = nth_root(1 + D, 2)
    assert r.coefficient(0) == 1.0
    assert r.coefficient(1) == 0.5
    assert r.coefficient(2) == -0.125
    assert approx_equal(r * r, 1 + D)


def test_nth_root_round_trip_cube():
    x = 8 + D
    r = nth_root(x, 3)
    assert approx_equal(r * r * r, x, rel_tol=1e-12)


def test_nth_root_fractional_leading_exponent():
    x = monomial(F(1, 2), 4.0)
    r = nth_root(x, 2)
    assert r.terms == ((F(1, 4), 2.0),)


def test_nth_root_requires_positive():
    with pytest.raises(NotPositiveError):
        nth_root(-D, 2)
    with pytest.raises(NotPositiveError):
        nth_root(ZERO, 2)
    with pytest.raises(ValueError):
        nth_root(ONE, 0)


# -- horizon behavior -----------------------------------------------------------------


def test_elementary_respects_finite_horizon():
    x = LCNumber(((F(1), 1.0),), horizon=F(5))
    e = exp(x)
    assert e.horizon == 5
    assert all(eexp < 5 for eexp, _ in e.terms)


def test_series_printing_round_trips_header():
    s = series_of(real(1), real(2))
    assert "(x-(0))" in str(s)


# -- every series ends at its first empty term --------------------------------------
#
# The reference sums a fixed ceil(limit / lambda(u)) + 2 terms, enough to reach
# past the working horizon, with no cut of the terms and no stop rule.  Each
# product is taken in the same order as the library's, so the sums must agree
# bit for bit.


def _limit(x):
    return x.horizon if x.horizon != math.inf else default_horizon()


def _count(u, limit):
    return math.ceil(limit / u.valuation()) + 2 if u else 0


def _ref_terms(u, ratio, count):
    term, out = ONE, []
    for j in range(1, count + 1):
        term = term * u * ratio(j)
        out.append(term)
    return out


def _ref_exp(x):
    r, limit = x.real_part(), _limit(x)
    i = x.infinitesimal_part().truncate(limit)
    acc = ONE.truncate(limit)
    for term in _ref_terms(i, lambda j: 1.0 / j, _count(i, limit)):
        acc = acc + term
    return acc * math.exp(r) if r != 0.0 else acc


def _ref_ln(x):
    a0, limit = x.terms[0][1], _limit(x)
    u = LCNumber([(e, c / a0) for e, c in x.terms[1:]], limit)
    acc = LCNumber.from_real(math.log(a0), limit)
    power = ONE
    for j in range(1, _count(u, limit) + 1):
        power = power * u
        acc = acc + power * ((1.0 if j % 2 else -1.0) / j)
    return acc


def _ref_sin_cos(x):
    r, limit = x.real_part(), _limit(x)
    i = x.infinitesimal_part().truncate(limit)
    sin_i, cos_i = ZERO, ONE.truncate(limit)
    for k, term in enumerate(_ref_terms(i, lambda j: 1.0 / j, _count(i, limit)), 1):
        signed = term if (k // 2) % 2 == 0 else -term
        if k % 2:
            sin_i = sin_i + signed
        else:
            cos_i = cos_i + signed
    sr, cr = math.sin(r), math.cos(r)
    return cos_i * sr + sin_i * cr, cos_i * cr - sin_i * sr


def _ref_nth_root(x, n):
    (q, a), limit = x.terms[0], _limit(x) - x.terms[0][0]
    u = LCNumber([(e - q, c / a) for e, c in x.terms[1:]], limit)
    alpha = 1.0 / n
    acc = ONE.truncate(limit)
    for term in _ref_terms(u, lambda j: (alpha - (j - 1)) / j, _count(u, limit)):
        acc = acc + term
    lead = math.sqrt(a) if n == 2 else a ** (1.0 / n)
    return acc._monomial_mul(lead, q.numerator, q.denominator * n, limit + q / n)


_exponents = st.builds(F, st.integers(1, 10), st.integers(1, 6))
_coefficients = st.floats(-2, 2).filter(bool)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.25, 3),
    st.lists(st.tuples(_exponents, _coefficients), min_size=1, max_size=4),
    st.one_of(st.just(math.inf), st.builds(F, st.integers(1, 24), st.integers(1, 3))),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)
def test_elementary_series_equal_an_unstopped_reference(lead, tail, h, q):
    with horizon(6):
        x = LCNumber([(0, lead)] + tail, h)
        if len(x.terms) < 2:
            return  # a lone real takes the closed-form path
        i = x.infinitesimal_part()
        for arg in (x, i, -x):
            assert exp(arg) == _ref_exp(arg)
            assert (sin(arg), cos(arg)) == _ref_sin_cos(arg)
        assert ln(x) == _ref_ln(x)
        shifted = LCNumber([(e + q, c) for e, c in x.terms], h + q)
        for n in (2, 3):
            assert nth_root(x, n) == _ref_nth_root(x, n)
            assert nth_root(shifted, n) == _ref_nth_root(shifted, n)


def _ref_taylor_sum(coeffs, delta):
    acc, power = ZERO, ONE
    for j, a in enumerate(coeffs):
        if j:
            power = power * delta
        term = a * power
        if term and term.valuation() < acc.horizon:
            acc = acc + term
    return acc


_terms = st.lists(
    st.tuples(st.builds(F, st.integers(-12, 18), st.sampled_from([1, 2, 3, 6])),
              _coefficients),
    max_size=4,
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(_terms, min_size=1, max_size=16),
    _terms,
    st.one_of(st.just(math.inf), st.builds(F, st.integers(4, 40), st.integers(1, 3))),
)
def test_taylor_sum_equals_a_sum_of_every_term(coeffs, delta, h):
    # the sum ends early only where no later term can be visible; a delta of
    # negative valuation has falling valuations and sums every term
    coeffs = [LCNumber(t, h) for t in coeffs]
    delta = LCNumber(delta, h)
    assert _taylor_sum(coeffs, delta) == _ref_taylor_sum(coeffs, delta)


def test_taylor_sum_with_falling_valuations_sums_past_an_invisible_term():
    # lambda(delta) < 0: the powers' valuations fall, so the invisible d^4
    # of j = 1 does not end the sum before the visible d^3 of j = 2
    coeffs = [LCNumber([(0, 1.0)], 4), monomial(5), monomial(5)]
    assert _taylor_sum(coeffs, monomial(-1)) == LCNumber([(0, 1.0), (3, 1.0)], 4)


def test_elementary_multiplication_counts(monkeypatch):
    # exp/ln/sin/sqrt of 1 + d at horizon 32 return 32 terms, and each
    # series stops at its first empty term
    calls = 0
    mul = LCNumber.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    with horizon(32):
        x = parse_lc("1+d")
        monkeypatch.setattr(LCNumber, "__mul__", counting)
        for fn, most in [
            (exp, 65), (ln, 63), (sin, 68), (lambda v: nth_root(v, 2), 64)
        ]:
            calls = 0
            fn(x)
            assert calls <= most
