import copy
import math
import pickle
import random
import threading
from fractions import Fraction

import pytest

from levicivita import (
    D,
    INF,
    LCNumber,
    ONE,
    Ordering,
    ZERO,
    approx_equal,
    compare,
    default_horizon,
    horizon,
    monomial,
    much_less,
    parse_lc,
    set_default_horizon,
    ultrametric,
    valuation,
)
from levicivita.core import as_lc, power
from levicivita.errors import ZeroOperandError

from _corpus import dyadic_invertible_number, field_suite_number

F = Fraction


def lc(*terms, horizon=INF):
    return LCNumber(terms, horizon)


# -- normalization -------------------------------------------------------------


def test_normalize_merges_and_cancels():
    x = lc((F(1), 2.0), (F(0), 3.0), (F(1), -2.0))
    assert x.terms == ((F(0), 3.0),)


def test_normalize_empty_is_zero():
    assert LCNumber().is_zero
    assert LCNumber().terms == ()


def test_normalize_clips_at_horizon():
    x = lc((F(2), 5.0), (F(0), 1.0), horizon=F(1))
    assert x.terms == ((F(0), 1.0),)
    assert x.horizon == 1


def test_exponents_stay_exact_rationals():
    x = lc((F(1, 3), 1.0), (F(1, 2), 1.0))
    assert [e for e, _ in x.terms] == [F(1, 3), F(1, 2)]


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        lc((F(0), math.inf))
    # finite terms of one exponent whose sum is not
    with pytest.raises(ValueError, match="non-finite coefficient inf at exponent 1/2"):
        lc((F(1, 2), 1e308), (F(0), 1.0), (F(1, 2), 1e308))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "make",
    [LCNumber.from_real, as_lc, lambda x: ONE * x],
    ids=["from_real", "as_lc", "scalar_mul"],
)
def test_real_entry_points_reject_non_finite(make, value):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        make(value)


def test_inverse_of_an_infinite_coefficient_raises():
    # 1/inf is 0.0, which would sit in the inverse as a term of coefficient 0
    big = LCNumber.from_real(1e200) ** 2
    for x in (big, big + D):
        with pytest.raises(ValueError, match="non-finite coefficient inf at exponent 0"):
            x.inv()


# -- add / neg -------------------------------------------------------------------


def test_add_orders_terms():
    assert str(D + 1) == "1 + d"


def test_add_cancellation():
    assert ((2 + D) - 2).terms == ((F(1), 1.0),)


def test_add_identity_keeps_horizon():
    x = lc((F(0), 1.0), horizon=F(5))
    y = x + ZERO
    assert y.horizon == 5 and y.terms == x.terms


def test_infinite_horizon_of_any_float_type():
    class Float64(float):  # e.g. numpy.float64
        pass

    x = lc((F(0), 1.0), (F(1), 2.0), horizon=Float64("inf"))
    assert x.horizon == INF and type(x.horizon) is float
    assert (x * x).terms == ((F(0), 1.0), (F(1), 4.0), (F(2), 4.0))
    assert x.truncate(Float64("inf")) is x


def test_add_horizon_is_min():
    x = lc((F(0), 1.0), horizon=F(5))
    y = lc((F(1), 1.0), horizon=F(3))
    assert (x + y).horizon == 3


# -- mul ---------------------------------------------------------------------------


def test_mul_fractional_exponents():
    half = monomial(F(1, 2))
    assert (half * half).terms == ((F(1), 1.0),)


def test_mul_polynomial():
    assert str((1 + D) * (1 - D)) == "1 - d^2"


def test_mul_lambda_additivity_example():
    x = monomial(-1, 3.0) * monomial(3, 2.0)
    assert x.terms == ((F(2), 6.0),)
    assert valuation(x) == F(2)


def test_mul_by_exact_zero_gives_exact_zero():
    prod = monomial(-4) * ZERO
    assert prod.is_zero and prod.horizon == INF


def test_mul_horizon_rule():
    x = lc((F(-1), 3.0), horizon=F(32))
    y = lc((F(3), 2.0), horizon=F(32))
    assert (x * y).horizon == 31  # min(32 + 3, 32 + (-1))


def test_derived_product_valuation():
    # lambda((2d) * (5 d^(1/2))) = 1 + 1/2, by valuation additivity
    prod = monomial(1, 2.0) * monomial(F(1, 2), 5.0)
    assert valuation(prod) == F(3, 2)
    assert prod.terms == ((F(3, 2), 10.0),)


# -- inv ----------------------------------------------------------------------------


def test_inv_identity():
    assert ONE.inv() == ONE


def test_inv_of_d():
    assert D.inv().terms == ((F(-1), 1.0),)


def test_inv_geometric_series():
    x = (1 + D).inv()
    # leading coefficients alternate exactly; dyadic arithmetic
    for j, (e, c) in enumerate(x.terms[:8]):
        assert e == j and c == (-1.0) ** j
    assert (x * (1 + D)).terms == ((F(0), 1.0),)


def test_inv_horizon_rule():
    x = lc((F(2), 1.0), (F(3), 1.0), horizon=F(10))
    assert x.inv().horizon == 10 - 4


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        LCNumber((), horizon=F(3)).inv()


def test_inv_round_trip_sample():
    rng = random.Random(7)
    for _ in range(50):
        x = dyadic_invertible_number(rng)
        r = x * x.inv()
        assert r.terms == ((F(0), 1.0),)


def test_unit_part_is_zero_free_and_clipped():
    # x = a*d^q*(1 + u): u holds no term at or past its horizon, and no
    # coefficient c/a that underflowed to 0
    u = (1 + monomial(40))._unit_part(F(32))
    assert u.is_zero and u.horizon == 32
    u = LCNumber([(0, 1e300), (F(1, 2), 1e-30), (1, 1.0)], F(32))._unit_part(F(32))
    assert len(u.terms) == 1 and u.valuation() == 1
    rng = random.Random(13)
    for _ in range(200):
        x = field_suite_number(rng)
        if x:
            limit = x.horizon - x.valuation() - rng.randint(0, 3)
            u = x._unit_part(limit)
            assert u.horizon == limit
            assert all(0 < e < limit and c != 0.0 for e, c in u.terms)


# -- valuation / compare / abs ---------------------------------------------------


def test_lambda_of_zero_is_infinite():
    assert valuation(ZERO) == INF


def test_lambda_min_of_support():
    assert valuation(lc((F(-1), 3.0), (F(0), 2.0))) == F(-1)


def test_compare_examples():
    assert compare(D, ZERO) is Ordering.GREATER
    assert compare(2 + D, LCNumber.from_real(2)) is Ordering.GREATER
    assert compare(monomial(-1), LCNumber.from_real(1000)) is Ordering.GREATER
    assert compare(ZERO, D) is Ordering.LESS


def test_compare_equal_at_horizon():
    x = LCNumber((), horizon=F(3))
    assert compare(x, ZERO) is Ordering.EQUAL_AT_HORIZON
    # terms hidden beyond the shared horizon are not distinguishable
    a = lc((F(0), 1.0), (F(5), 1.0))
    b = lc((F(0), 1.0), horizon=F(4))
    assert compare(a, b) is Ordering.EQUAL_AT_HORIZON


def test_compare_names_the_type_it_cannot_compare():
    with pytest.raises(TypeError, match="with str"):
        compare(D, "1")


def test_abs_examples():
    assert abs(-D) == D
    assert abs(2 - D) == 2 - D
    x = D - monomial(2)
    assert abs(x) == x


def test_much_less():
    assert much_less(D, ONE)
    assert not much_less(2 * D, 3 * D)
    assert much_less(monomial(2), D)
    with pytest.raises(ZeroOperandError):
        much_less(ZERO, ONE)
    with pytest.raises(ZeroOperandError):
        much_less(ONE, ZERO)


def test_ultrametric_values():
    assert ultrametric(D, D) == 0.0
    assert ultrametric(1 + D, ONE) == pytest.approx(math.exp(-1), rel=1e-15)
    assert ultrametric(monomial(-2), ZERO) == pytest.approx(math.exp(2), rel=1e-15)
    # exp(-lambda) past binary64: inf, or 0 when lambda is past it the other way
    assert ultrametric(monomial(-709), ZERO) == math.exp(709)
    assert ultrametric(monomial(-710), ZERO) == math.inf
    assert ultrametric(monomial(-800), ZERO) == math.inf
    assert ultrametric(monomial(10**400), ZERO) == 0.0


# -- seeded property checks -------------------------------------------------------


def test_field_properties_random():
    rng = random.Random(42)
    nums = [field_suite_number(rng) for _ in range(300)]
    for i in range(0, 297, 3):
        x, y, z = nums[i], nums[i + 1], nums[i + 2]
        assert compare(x + y, y + x) is Ordering.EQUAL_AT_HORIZON
        assert compare(x * y, y * x) is Ordering.EQUAL_AT_HORIZON
        assert compare((x + y) + z, x + (y + z)) is Ordering.EQUAL_AT_HORIZON
        assert compare((x * y) * z, x * (y * z)) is Ordering.EQUAL_AT_HORIZON
        assert compare(x * (y + z), x * y + x * z) is Ordering.EQUAL_AT_HORIZON
        if x and y:
            assert valuation(x * y) == valuation(x) + valuation(y)
            s = x + y
            if s:
                assert valuation(s) >= min(valuation(x), valuation(y))
                if valuation(x) != valuation(y):
                    assert valuation(s) == min(valuation(x), valuation(y))


def test_strong_triangle_inequality_random():
    rng = random.Random(43)
    nums = [field_suite_number(rng) for _ in range(150)]
    for i in range(0, 147, 3):
        x, y, z = nums[i], nums[i + 1], nums[i + 2]
        lam_xz = (x - z).valuation()
        lam_xy = (x - y).valuation()
        lam_yz = (y - z).valuation()
        assert lam_xz >= min(lam_xy, lam_yz)  # Lambda(x,z) <= max of the others
        assert ultrametric(x, z) <= max(ultrametric(x, y), ultrametric(y, z)) + 1e-15


def test_compare_is_antisymmetric_random():
    rng = random.Random(44)
    for _ in range(200):
        x = field_suite_number(rng)
        y = field_suite_number(rng)
        c_xy = compare(x, y)
        c_yx = compare(y, x)
        if c_xy is Ordering.GREATER:
            assert c_yx is Ordering.LESS
        elif c_xy is Ordering.LESS:
            assert c_yx is Ordering.GREATER
        else:
            assert c_yx is Ordering.EQUAL_AT_HORIZON


def test_abs_is_max_random():
    rng = random.Random(45)
    for _ in range(100):
        x = field_suite_number(rng)
        a = abs(x)
        assert compare(a, x) is not Ordering.LESS
        assert compare(a, -x) is not Ordering.LESS
        assert a == x or a == -x


# -- misc ---------------------------------------------------------------------------


def test_pow_and_div():
    assert (1 + D) ** 2 == 1 + 2 * D + monomial(2)
    assert ((1 + D) ** 0) == ONE
    q = monomial(2) / D
    assert q.terms == ((F(1), 1.0),)
    assert (D ** -2).terms == ((F(-2), 1.0),)


def test_power_is_one_loop_for_lc_numbers_and_floats():
    x = lc((F(0), 1.5), (F(1, 2), -0.25), (F(3), 2.0), horizon=F(32))
    for n in range(-4, 7):
        assert power(x, n, ONE) == x ** n
    assert power(3.0, 5, 1.0) == 243.0
    assert power(2.0, -3, 1.0, lambda y: 1.0 / y) == 0.125
    assert power(0.0, 0, 1.0) == 1.0


def test_numbers_holding_inf_or_nan_print():
    # core arithmetic carries inf and nan; printing them must not raise
    big = LCNumber.from_real(1e200)
    square = big * big
    assert repr(square) == "LCNumber('inf', horizon=inf)"
    assert str(-square) == "-inf"
    assert str(square - square) == "nan"
    assert str(big * lc((F(0), 1e200), (F(1), -1e300))) == "inf - infd"


def test_structural_equality_and_hash():
    a = lc((F(1), 1.0), horizon=F(4))
    b = lc((F(1), 1.0), horizon=F(4))
    assert a == b and hash(a) == hash(b)
    assert a != lc((F(1), 1.0), horizon=F(5))


def test_scalar_equality_is_exact_and_agrees_with_hash():
    # a scalar equals an exactly-known real c when c == scalar exactly,
    # and never raises, even for a scalar that no LCNumber can hold
    assert not ONE == math.nan and ONE != math.nan and ONE != math.inf
    assert ONE in [math.nan, 1.0]
    assert ONE == 1.0 and hash(ONE) == hash(1.0)
    assert {ONE: 1}.get(1.0) == 1 and {1: 1}.get(ONE) == 1
    assert LCNumber.from_real(0.1) != F(1, 10)
    assert LCNumber.from_real(2**53 + 1) != 2**53 + 1
    assert lc((F(0), 0.5), horizon=F(4)) != 0.5  # not exactly known
    assert D != 0 and ZERO == 0 and ZERO == 0.0
    for c in (0, 1, -2.5, 0.1, F(3, 4), 2**53, 1e300, 5e-324):
        x = LCNumber.from_real(c)
        assert hash(x) == hash(x.exact_real()) == hash(float(c))


def test_approx_equal_tolerates_noise():
    a = lc((F(0), 1.0), (F(1), 1e-16))
    assert approx_equal(a, ONE)
    assert not approx_equal(a + D, ONE)


def test_immutability():
    with pytest.raises(AttributeError):
        D.horizon = F(1)
    for name in ("_den", "_iterms", "_h", "_hq", "_view", "other"):
        with pytest.raises(AttributeError):
            setattr(D, name, 0)
    assert D == lc((F(1), 1.0))


@pytest.mark.parametrize(
    "x",
    [
        ZERO,
        D,
        lc((F(0), 1.5), (F(1, 2), -0.25), (F(3), 2.0)),
        lc((F(-7, 3), 2.0**-1074), (F(1, 6), -3.5), horizon=F(41, 6)),
        lc((F(-2), 0.1), horizon=F(-1, 2)),
        lc(horizon=F(5, 4)),  # empty, with a finite horizon
    ],
)
def test_pickle_and_copy_round_trip(x):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        y = pickle.loads(pickle.dumps(x, protocol))
        assert (y._den, y._h, y._iterms) == (x._den, x._h, x._iterms)
        assert [c.hex() for _, c in y._iterms] == [c.hex() for _, c in x._iterms]
        assert hash(y) == hash(x) and y.horizon == x.horizon
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([x, x])[1] is x


# -- default horizon -------------------------------------------------------------


def test_horizon_scope_restores():
    before = default_horizon()
    with horizon(5):
        assert parse_lc("1+d").horizon == 5
    assert default_horizon() == before


def test_horizon_scope_rejects_non_positive():
    with pytest.raises(ValueError):
        with horizon(0):
            pass


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: D.truncate(-math.inf), "-inf"),
        (lambda: D.__mul__(D, -math.inf), "-inf"),
        (lambda: LCNumber([], -math.inf), "-inf"),
        (lambda: D.truncate(math.nan), "nan"),
        (lambda: set_default_horizon(math.inf), "inf"),
        (lambda: horizon(-math.inf).__enter__(), "-inf"),
    ],
    ids=["truncate", "capped-mul", "constructor", "truncate-nan", "set-default", "scope"],
)
def test_non_finite_horizon_is_a_horizon_error(call, shown):
    before = default_horizon()
    with pytest.raises(ValueError, match=f"horizon .*, got {shown}$"):
        call()
    assert default_horizon() == before
    # +inf stays a valid horizon of a number
    assert D.truncate(math.inf) is D and LCNumber([], math.inf) is ZERO


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: LCNumber([], "3"), "str"),
        (lambda: D.truncate("1/2"), "str"),
        (lambda: LCNumber.from_real(1, "5"), "str"),
        (lambda: horizon("7").__enter__(), "str"),
        (lambda: set_default_horizon("7"), "str"),
        (lambda: D.__mul__(D, "3"), "str"),
        (lambda: LCNumber([], None), "NoneType"),
        (lambda: D.__mul__(D, None), "NoneType"),
    ],
    ids=[
        "constructor", "truncate", "from-real", "scope", "set-default",
        "capped-mul", "constructor-none", "capped-mul-none",
    ],
)
def test_horizon_of_another_type_is_a_type_error(call, shown):
    # the same form as the message of an exponent of another type
    before = default_horizon()
    with pytest.raises(TypeError, match=f"^horizon must be int, Fraction or float, got {shown}$"):
        call()
    assert default_horizon() == before


def test_threads_see_their_own_horizon():
    both_set = threading.Barrier(2)
    seen = {}

    def work(h):
        with horizon(h):
            both_set.wait(timeout=10)  # each thread reads after both have set
            seen[h] = parse_lc("1+d").horizon

    threads = [threading.Thread(target=work, args=(h,)) for h in (4, 7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert seen == {4: 4, 7: 7}


def test_set_default_horizon_stays_in_its_thread():
    before = default_horizon()
    thread = threading.Thread(target=set_default_horizon, args=(3,))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert default_horizon() == before
