import math
import random
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
    taylor_jet,
    diff_symbolic,
)
from levicivita.series import growth_window
from _corpus import close, general_invertible_number
from levicivita.errors import (
    DomainError,
    EmptySeriesError,
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
    termwise = differentiate_termwise(jet, 1)
    oracle = taylor_jet(diff_symbolic(f, "x"), "x", ZERO, 8)
    for mine, ref in zip(termwise.coeffs, oracle.coeffs):
        assert mine.real_part() == pytest.approx(ref.real_part(), rel=1e-10, abs=1e-12)


def test_taylor_jet_is_its_power_series():
    x0 = parse_lc("d")
    jet = taylor_jet(parse_expr("1/(1-x)"), "x", x0, 8)
    assert type(jet) is PowerSeries
    assert jet.jmax == 8
    assert converges_at(jet, x0 + monomial(2, 0.5)).verdict is Verdict.CONVERGES


def test_growth_window_default_is_the_last_half():
    assert [growth_window(jmax, None) for jmax in (1, 2, 7, 8)] == [1, 1, 3, 4]
    assert growth_window(8, 8) == 8
    for window in (0, 9):
        with pytest.raises(ValueError, match=f"window must be in 1..8, got {window}"):
            growth_window(8, window)


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
    assert close(e * exp(-D), ONE)


def test_exp_addition_law():
    x = monomial(1, 0.5)
    y = monomial(F(3, 2), -1.25)
    assert close(exp(x + y), exp(x) * exp(y), rel_tol=1e-12)


def test_exp_rejects_infinite_argument():
    with pytest.raises(DomainError):
        exp(monomial(-1))


def test_ln_round_trip():
    l = ln(1 + D)
    assert l.coefficient(1) == 1.0
    assert l.coefficient(2) == -0.5
    assert close(exp(l), 1 + D)


def test_ln_domain_errors():
    with pytest.raises(DomainError):
        ln(D)  # infinitesimal
    with pytest.raises(DomainError):
        ln(-1 + D)  # negative real part
    with pytest.raises(DomainError):
        ln(ZERO)


def test_sin_cos_pythagoras():
    for x in (D, monomial(1, 0.5) + monomial(2, -2.0), LCNumber.from_real(0.7) + D):
        assert close(sin(x) ** 2 + cos(x) ** 2, ONE, rel_tol=1e-12)


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
    assert close(r * r, 1 + D)


def test_nth_root_round_trip_cube():
    x = 8 + D
    r = nth_root(x, 3)
    assert close(r * r * r, x, rel_tol=1e-12)


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


# -- every series against an exact rational reference --------------------------------
#
# The reference sums coef(j) * u^j for j = 0, 1, ... in exact rationals, every
# power cut at the working horizon, until a power has no term below it.  It
# shares no step with the library's one-pass recurrence.  The real parts and
# leading factors are the library's binary64 values, read as exact rationals.
# Each coefficient must lie within 1e-13 of the largest exact one, and the
# horizons must be equal.


def _limit(x):
    return x.horizon if x.horizon != math.inf else default_horizon()


def _exact_series(u, limit, *coefs):
    """{exponent: sum(coef(j) * u^j)} per coef, for u as [(exponent, coefficient)].

    u^j is an integer polynomial over den^j, so only the final sums build
    Fractions.
    """
    grid = math.lcm(limit.denominator, *(e.denominator for e, _ in u))
    den = math.lcm(*(F(c).denominator for _, c in u))
    top = limit * grid
    rows = [(int(e * grid), int(F(c) * den)) for e, c in u if e < limit]
    powers = [{0: 1}]
    while powers[-1]:
        step = {}
        for e, c in powers[-1].items():
            for k, uk in rows:
                if e + k < top:
                    step[e + k] = step.get(e + k, 0) + c * uk
        powers.append(step)
    out = []
    for coef in coefs:
        weights = [F(coef(j)) / den**j for j in range(len(powers))]
        common = math.lcm(*(w.denominator for w in weights))
        total = {}
        for w, power in zip(weights, powers):
            w = w.numerator * (common // w.denominator)
            for e, n in power.items():
                total[e] = total.get(e, 0) + w * n
        out.append({F(e, grid): F(n, common) for e, n in total.items()})
    return out


def _scaled(series, factor, shift=0):
    return {e + shift: c * F(factor) for e, c in series.items()}


def _plus(p, q):
    return {e: p.get(e, 0) + q.get(e, 0) for e in p.keys() | q.keys()}


def _assert_matches(got, want, horizon):
    assert got.horizon == horizon
    scale = max((abs(c) for c in want.values()), default=0)
    for e in want.keys() | {e for e, _ in got.terms}:
        assert e < horizon
        assert abs(F(got.coefficient(e)) - want.get(e, 0)) <= scale / 10**13, e


def _exp_coef(j):
    return F(1, math.factorial(j))


def _sin_coef(j):
    return F((-1) ** (j // 2), math.factorial(j)) if j % 2 else 0


def _cos_coef(j):
    return 0 if j % 2 else F((-1) ** (j // 2), math.factorial(j))


def _ln_coef(j):
    return F((-1) ** (j + 1), j) if j else 0


def _binomial(alpha):
    return lambda j: math.prod((alpha - i for i in range(j)), start=F(1)) / math.factorial(j)


def _check_exp_sin_cos(x):
    r, limit = x.real_part(), _limit(x)
    i = x.infinitesimal_part().terms
    e, s, c = _exact_series(i, limit, _exp_coef, _sin_coef, _cos_coef)
    sr, cr = math.sin(r), math.cos(r)
    _assert_matches(exp(x), _scaled(e, math.exp(r)) if r else e, limit)
    _assert_matches(sin(x), _plus(_scaled(c, sr), _scaled(s, cr)), limit)
    _assert_matches(cos(x), _plus(_scaled(c, cr), _scaled(s, -sr)), limit)


def _unit(x):
    """u of x = a*d^q*(1 + u), exactly, with q and a."""
    (q, a), rest = x.terms[0], x.terms[1:]
    return [(e - q, F(c) / F(a)) for e, c in rest], q, a


def _check_ln(x):
    limit = _limit(x)
    u, _, a = _unit(x)
    (series,) = _exact_series(u, limit, _ln_coef)
    want = _plus(series, {F(0): F(math.log(a))})
    _assert_matches(ln(x), want, limit)


def _check_nth_root(x, n):
    u, q, a = _unit(x)
    limit = _limit(x) - q
    lead = math.sqrt(a) if n == 2 else a ** (1.0 / n)
    (series,) = _exact_series(u, limit, _binomial(F(1, n)))
    want = _scaled(series, lead, q / n)
    _assert_matches(nth_root(x, n), want, limit + q / n)


def _check_inv(x):
    u, q, a = _unit(x)
    target = x.horizon - 2 * q if x.horizon != math.inf else default_horizon()
    (series,) = _exact_series(u, target + q, lambda j: (-1) ** j)
    want = _scaled(series, 1 / F(a), -q)
    _assert_matches(x.inv(), want, target)


_exponents = st.builds(F, st.integers(1, 10), st.integers(1, 6))
_coefficients = st.floats(-2, 2).filter(bool)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.25, 3),
    st.lists(st.tuples(_exponents, _coefficients), min_size=1, max_size=4),
    st.one_of(st.just(math.inf), st.builds(F, st.integers(1, 12), st.integers(1, 3))),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)
def test_elementary_series_match_an_exact_reference(lead, tail, h, q):
    with horizon(6):
        x = LCNumber([(0, lead)] + tail, h)
        if len(x.terms) < 2:
            return  # a lone real takes the closed-form path
        for arg in (x, x.infinitesimal_part(), -x):
            _check_exp_sin_cos(arg)
        _check_ln(x)
        shifted = LCNumber([(e + q, c) for e, c in x.terms], h + q)
        for y in (x, shifted):
            for n in (2, 3):
                _check_nth_root(y, n)
            _check_inv(y)


def test_sin_of_an_infinitesimal_past_the_horizon_is_known_up_to_it():
    # sin(d^8) at horizon 6 shows no term, like exp and cos, and is known
    # only below d^6: it is not the exact zero
    with horizon(6):
        assert sin(monomial(8)) == LCNumber([], 6)
        assert cos(monomial(8)) == LCNumber([(0, 1.0)], 6)


def _relative_size(resid, scale):
    return max((abs(c) for _, c in resid.terms), default=0.0) / max(1.0, scale)


def test_ln_of_exp_keeps_its_digits_near_the_horizon():
    # the term-by-term series lost every digit here (relative size 1.0)
    a = parse_lc("0.276 - 1.83d^(1/2) + 1.99d^(3/2)")
    l = ln(exp(a))
    assert _relative_size(l - a, max(l.max_abs_coefficient(), a.max_abs_coefficient())) < 1e-14


def test_square_of_sqrt_keeps_its_digits_near_the_horizon():
    # the binomial series summed term by term reached 1.8e-7 here
    b = parse_lc("0.303 + 0.412d^(1/2) - 0.228d^(3/2)")
    r = nth_root(b, 2)
    assert _relative_size(r * r - b, r.max_abs_coefficient() ** 2) < 1e-14


def test_inverse_round_trip_keeps_its_digits_on_general_numbers():
    # the geometric series reached 2.4e-6 on these 6000 numbers
    rng = random.Random(0)
    worst = 0.0
    for _ in range(6000):
        x = general_invertible_number(rng)
        inv = x.inv()
        worst = max(worst, _relative_size(x * inv - 1, x.max_abs_coefficient() * inv.max_abs_coefficient()))
    assert worst < 1e-14


def test_elementary_multiplication_counts(monkeypatch):
    # exp/ln/sin/sqrt of 1 + d at horizon 32 return 32 terms, each formed
    # on the grid by the one-pass recurrence: the only products are exp's
    # scaling by exp(1) and sin's combination with sin(1) and cos(1)
    calls = 0
    mul = LCNumber.__mul__

    def counting(self, other, *cap):
        nonlocal calls
        calls += 1
        return mul(self, other, *cap)

    with horizon(32):
        x = parse_lc("1+d")
        monkeypatch.setattr(LCNumber, "__mul__", counting)
        for fn, most in [(exp, 1), (ln, 0), (sin, 4), (lambda v: nth_root(v, 2), 0)]:
            calls = 0
            fn(x)
            assert calls <= most
