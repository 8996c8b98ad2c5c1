import copy
import math
import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from levicivita import (
    Apply,
    D,
    IntPow,
    LCNumber,
    ONE,
    RationalConst,
    Variable,
    ZERO,
    approx_equal,
    derivative_at,
    diff_symbolic,
    eval_lc,
    lhopital_limit,
    monomial,
    multi_indices,
    parse_expr,
    parse_lc,
    partial_jet,
    taylor_jet,
    taylor_polynomial_eval,
)
from levicivita import calculus
from levicivita.calculus import partial_taylor_eval, partial_taylor_sums
from levicivita.errors import (
    DomainError,
    InfiniteLimitError,
    NonJetResultError,
    NotIndeterminateError,
    OrderTooHighError,
    ZeroDenominatorError,
)

from _corpus import CORPUS_30

F = Fraction


def real(v):
    return LCNumber.from_real(v)


# -- 1-variable jets ------------------------------------------------------------


def test_jet_of_square():
    jet = taylor_jet(parse_expr("x^2"), "x", 3, 2)
    assert [c.real_part() for c in jet.coeffs] == [9.0, 6.0, 1.0]
    assert derivative_at(parse_expr("x^2"), "x", 3, 1).real_part() == 6.0
    assert derivative_at(parse_expr("x^2"), "x", 3, 2).real_part() == 2.0


def test_jet_of_sin():
    jet = taylor_jet(parse_expr("sin(x)"), "x", 0, 5)
    expected = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    for c, ref in zip(jet.coeffs, expected):
        assert c.real_part() == pytest.approx(ref, abs=1e-15)


def test_jet_at_lc_center():
    # center with infinitesimal content: f(x) = x at 1 + d has jet (1+d, 1)
    jet = taylor_jet(parse_expr("x"), "x", 1 + D, 1)
    assert jet.coeffs[0] == 1 + D
    assert jet.coeffs[1] == ONE
    # f(x) = x^2 at d: coefficients (d^2, 2d, 1)
    jet = taylor_jet(parse_expr("x^2"), "x", D, 2)
    assert jet.coeffs[0] == monomial(2)
    assert jet.coeffs[1] == 2 * D
    assert jet.coeffs[2] == ONE


def test_jet_center_horizon_precondition():
    x0 = LCNumber(((F(0), 1.0),), horizon=F(3))
    with pytest.raises(OrderTooHighError):
        taylor_jet(parse_expr("x^2"), "x", x0, 5)


def test_jet_abs_at_zero_has_no_jet():
    with pytest.raises(NonJetResultError):
        taylor_jet(parse_expr("abs(x)"), "x", 0, 1)


def test_jet_abs_away_from_zero():
    jet = taylor_jet(parse_expr("abs(x)"), "x", monomial(2), 1)
    assert jet.coeffs[0] == monomial(2)
    assert jet.coeffs[1] == ONE
    jet = taylor_jet(parse_expr("abs(x)"), "x", -D, 1)
    assert jet.coeffs[1] == -ONE


def test_jet_sqrt_at_zero_has_no_jet():
    # sqrt(x^3) = x^(3/2) is not smooth at 0 in the representable sense
    with pytest.raises(NonJetResultError):
        taylor_jet(parse_expr("sqrt(x^3)"), "x", 0, 2)


def test_jet_domain_error_propagates():
    with pytest.raises(DomainError):
        taylor_jet(parse_expr("ln(x)"), "x", 0, 2)


def test_derivative_examples():
    assert derivative_at(parse_expr("x^3"), "x", 1, 2).real_part() == 6.0
    assert derivative_at(parse_expr("exp(x)"), "x", 0, 7).real_part() == pytest.approx(
        1.0, rel=1e-12
    )
    assert derivative_at(parse_expr("x*exp(x)"), "x", 0, 4).real_part() == pytest.approx(
        4.0, rel=1e-12
    )


def test_jet_matches_symbolic_oracle():
    corpus = ["x^5 - x^2", "exp(2*x)", "sin(x)*cos(x)", "ln(1+x)", "exp(x)/(2-x)"]
    for text in corpus:
        f = parse_expr(text)
        for x0 in (0.0, 0.5, -0.25):
            jet = taylor_jet(f, "x", real(x0), 6)
            g = f
            for j in range(7):
                ref = eval_lc(g, {"x": real(x0)}).real_part()
                mine = jet.coeffs[j].real_part() * math.factorial(j)
                assert mine == pytest.approx(ref, rel=1e-9, abs=1e-10)
                if j < 6:
                    g = diff_symbolic(g, "x")


def test_taylor_jet_pickles_and_deep_copies():
    jet = taylor_jet(parse_expr("ln(1+x)/(2+x)"), "x", parse_lc("3/8 + d"), 6)
    for clone in (pickle.loads(pickle.dumps(jet)), copy.deepcopy(jet)):
        assert type(clone) is type(jet) and clone == jet
        assert [c.horizon for c in clone.coeffs] == [c.horizon for c in jet.coeffs]


# -- taylor polynomial evaluation --------------------------------------------------


def test_taylor_polynomial_eval():
    jet = taylor_jet(parse_expr("x^2"), "x", 0, 2)
    y = 1 + D
    assert taylor_polynomial_eval(jet, y, 2) == y * y
    assert taylor_polynomial_eval(jet, y, 0) == jet.coeffs[0]
    with pytest.raises(OrderTooHighError):
        taylor_polynomial_eval(jet, y, 3)


def test_taylor_polynomial_matches_sum():
    jet = taylor_jet(parse_expr("exp(x)"), "x", 0, 3)
    v = taylor_polynomial_eval(jet, D, 3)
    ref = ONE + D + monomial(2, 0.5) + monomial(3, 1 / 6)
    assert approx_equal(v, ref)


# -- multivariate jets ----------------------------------------------------------------


def test_repeated_variable_is_an_error():
    # not a silent rebinding of x to its last coordinate
    with pytest.raises(ValueError, match="^variable 'x' is given twice$"):
        partial_jet(parse_expr("x*x"), ["x", "x"], [1, 2], 1)
    with pytest.raises(ValueError, match="^variable 'y' is given twice$"):
        partial_jet(parse_expr("x*y"), ["y", "x", "y"], [1, 2, 3], 1)


def test_partial_jet_xy():
    pj = partial_jet(parse_expr("x*y"), ["x", "y"], [0, 0], 2)
    assert pj.table[(1, 1)] == ONE
    assert pj.derivative((1, 1)) == ONE
    assert pj.table[(2, 0)].is_zero


def test_partial_jet_x2y():
    pj = partial_jet(parse_expr("x^2*y"), ["x", "y"], [1, 1], 3)
    assert pj.table[(2, 1)] == ONE  # d^3f/dx^2dy / (2! 1!) = 2/2 = 1
    assert pj.derivative((2, 1)).real_part() == 2.0


def test_partial_jet_symmetry_no_duplicates():
    pj = partial_jet(parse_expr("exp(x+y)"), ["x", "y"], [0, 0], 4)
    keys = list(pj.table.keys())
    assert len(keys) == len(set(keys))
    assert set(keys) == set(multi_indices(2, 4))


def test_partial_jet_matches_symbolic_oracle_on_polynomials():
    rng = random.Random(11)
    names = ["x", "y"]
    for _ in range(20):
        k = rng.randint(1, 4)
        terms = []
        for a, b in product(range(k + 1), repeat=2):
            if a + b <= k and rng.random() < 0.6:
                c = rng.randint(-4, 4)
                if c:
                    terms.append((a, b, c))
        if not terms:
            terms = [(1, 0, 1)]
        text = " + ".join(f"{c}*x^{a}*y^{b}" for a, b, c in terms)
        f = parse_expr(text)
        x0 = [real(rng.randint(-2, 2)), real(rng.randint(-2, 2))]
        pj = partial_jet(f, names, x0, k)
        for alpha in multi_indices(2, k):
            g = f
            for _ in range(alpha[0]):
                g = diff_symbolic(g, "x")
            for _ in range(alpha[1]):
                g = diff_symbolic(g, "y")
            ref = eval_lc(g, {"x": x0[0], "y": x0[1]}).real_part()
            scale = math.factorial(alpha[0]) * math.factorial(alpha[1])
            assert pj.table[alpha].real_part() * scale == ref  # exact: integers


def test_partial_jet_exp_is_clean():
    # every scaled partial of exp(x+y) at 0 is exactly 1/(a! b!)
    pj = partial_jet(parse_expr("exp(x+y)"), ["x", "y"], [0, 0], 5)
    for alpha, coeff in pj.table.items():
        ref = 1.0 / (math.factorial(alpha[0]) * math.factorial(alpha[1]))
        assert coeff.real_part() == pytest.approx(ref, rel=1e-13)


# -- one variable is the n = 1 case ------------------------------------------------------


@pytest.mark.parametrize("center", ["1/2", "1/2 + d - 3d^(3/2)"])
def test_partial_jet_one_variable_is_taylor_jet(center):
    x0 = parse_lc(center)
    for text in CORPUS_30:
        f = parse_expr(text)
        tj = taylor_jet(f, "x", x0, 8)
        pj = partial_jet(f, ["x"], [x0], 8)
        assert [pj.table[(j,)] for j in range(9)] == list(tj.coeffs), text


def test_partial_taylor_eval_one_variable_is_taylor_polynomial_eval():
    for text, center, y in [
        ("exp(x)*sin(x)", "0", "d^(1/2) - 2d"),
        ("ln(1+x)/(2+x)", "1/2 + d", "1/2 - d^(3/2)"),
        ("x^8 - 3*x^5 + 2*x^2 - 7*x + 1", "1", "1 + 3d"),
    ]:
        f, x0, y = parse_expr(text), parse_lc(center), parse_lc(y)
        tj = taylor_jet(f, "x", x0, 6)
        pj = partial_jet(f, ["x"], [x0], 6)
        for k in range(7):
            assert partial_taylor_eval(pj, (y - x0,), k) == taylor_polynomial_eval(tj, y, k)


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(CORPUS_30),
    x0=st.floats(min_value=-0.5, max_value=1.0, allow_nan=False),
)
def test_jet_coefficients_are_shift_coefficients(text, x0):
    # f(x0 + d) = sum(c_j d^j): the jet read off by the infinitesimal shift
    f = parse_expr(text)
    center = real(x0)
    jet = taylor_jet(f, "x", center, 8)
    shifted = dict(eval_lc(f, {"x": center + D}).terms)
    for j, c in enumerate(jet.coeffs):
        mine, ref = c.real_part(), shifted.get(F(j), 0.0)
        assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref)), (j, mine, ref)


@pytest.mark.parametrize(
    "jet",
    [
        lambda f: list(taylor_jet(f, "x", ONE, 1).coeffs),
        lambda f: list(partial_jet(f, ["x"], [ONE], 1).table.values()),
    ],
    ids=["taylor_jet", "partial_jet"],
)
def test_jet_of_long_flat_sum(jet):
    # 3000 operators deep: far past the interpreter's recursion limit
    coeffs = jet(parse_expr("x" + "+x" * 3000))
    assert coeffs == [LCNumber.from_real(3001), LCNumber.from_real(3001)]


def test_jet_of_deeply_nested_calls():
    f = Variable("x")
    for _ in range(2 * sys.getrecursionlimit()):
        f = Apply("abs", f)
    jet = taylor_jet(f, "x", 2, 1)
    assert jet.coeffs == (LCNumber.from_real(2), ONE)


@pytest.mark.parametrize("x0", [F(1, 2), F(1, 2) + D], ids=["real", "multi-term"])
def test_jet_evaluates_each_shared_node_once(monkeypatch, x0):
    # the binary64 jet at a real centre and the LC jet alike
    # diff_symbolic chains are DAGs; a tree walk would redo shared subtrees
    f = parse_expr("exp(sin(x))")
    for _ in range(6):
        f = diff_symbolic(f, "x")
    nodes = _distinct_nodes(f)
    applies = sum(isinstance(node, Apply) for node in nodes)
    # interned nodes: exp(sin(x)), sin(x) and cos(x) are the only calls
    assert (applies, len(nodes)) == (3, 66)
    calls = []
    scaled_derivs = calculus._scaled_derivs

    def counting(*args):
        calls.append(args[0])
        return scaled_derivs(*args)

    monkeypatch.setattr(calculus, "_scaled_derivs", counting)
    taylor_jet(f, "x", x0, 2)
    assert len(calls) == applies


def _distinct_nodes(e) -> list:
    seen, stack, out = set(), [e], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        if isinstance(node, Apply):
            stack.append(node.arg)
        elif isinstance(node, IntPow):
            stack.append(node.base)
        elif not isinstance(node, (RationalConst, Variable)):
            stack += [node.left, node.right]
    return out


# -- jets and eval_lc agree on coefficient 0 ----------------------------------------

#: Expressions in which a difference has no visible terms but a finite horizon.
CANCELLING = [
    "(x-x)*x + x^20",
    "(x*x - x^2)*exp(x) + x^3",
    "sin(x)*(x - x) + cos(x)",
    "(x - x)^2 + ln(1 + x^2)",
    "1/(2 + x*x - x^2) + x*(x - x)",
]


def test_jet_keeps_the_horizon_of_a_visible_zero():
    # x - x at d^2 is zero only below horizon 32, so (x-x)*x is known only
    # below 34; the d^40 of x^20 lies past that
    f = parse_expr("(x-x)*x + x^20")
    center = parse_lc("d^2")
    value = eval_lc(f, {"x": center})
    assert value == LCNumber([], F(34))
    assert taylor_jet(f, "x", center, 1).coeffs[0] == value


@st.composite
def non_real_centers(draw):
    """a + sum(c_i d^(p_i)) with two or three infinitesimal terms, horizon 32."""
    a = draw(st.just(0) | st.integers(-4, 8)) / 8  # often infinitesimal
    powers = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True))
    terms = [(F(0), a)] + [
        (F(p, 4), draw(st.integers(-16, 16).filter(bool)) / 8) for p in powers
    ]
    return LCNumber(terms, F(32))


@settings(max_examples=100, deadline=None)
@given(
    text=st.sampled_from(CANCELLING) | st.sampled_from(CORPUS_30),
    center=non_real_centers(),
    other=non_real_centers(),
    xy=st.sampled_from(["(x+y)/2", "x*y"]),
    k=st.integers(1, 3),
)
def test_jet_value_is_eval_lc(text, center, other, xy, k):
    # coefficient 0 of a jet is f(x0) by the same field operations, so the
    # two agree in terms and in horizon, at one variable and at two (the
    # WLUD pair walk reads f(eta) off the jet at eta)
    f = parse_expr(text)
    assert taylor_jet(f, "x", center, k).coeffs[0] == eval_lc(f, {"x": center})
    g = parse_expr(re.sub(r"\bx\b", f"({xy})", text))
    value = eval_lc(g, {"x": center, "y": other})
    assert partial_jet(g, ["x", "y"], (center, other), k).table[(0, 0)] == value


# -- graded parts of the Taylor sum -----------------------------------------------------


def test_taylor_sums_of_a_linear_form():
    pj = partial_jet(parse_expr("x+y"), ["x", "y"], [0, 0], 1)
    v = (real(2), real(3))
    assert partial_taylor_sums(pj, v, [0, 1]) == [ZERO, real(5)]


def test_taylor_sums_of_a_bilinear_form():
    pj = partial_jet(parse_expr("x*y"), ["x", "y"], [0, 0], 2)
    assert partial_taylor_sums(pj, (ONE, ONE), [0, 1, 2]) == [ZERO, ZERO, ONE]


def test_taylor_sum_graded_parts_are_homogeneous():
    # H_j(3v) = 3^j H_j(v), with H_j the step of the sums from order j-1 to j
    pj = partial_jet(parse_expr("x^2*y + y^2"), ["x", "y"], [1, -1], 3)
    v = (real(0.5), real(2))
    small = partial_taylor_sums(pj, v, [0, 1, 2, 3])
    large = partial_taylor_sums(pj, tuple(3 * c for c in v), [0, 1, 2, 3])
    for j in range(1, 4):
        lhs = large[j] - large[j - 1]
        rhs = (small[j] - small[j - 1]) * float(3**j)
        assert approx_equal(lhs, rhs)


def test_taylor_sums_add_one_graded_part_to_horner(monkeypatch):
    # n = 2, order 6, sums to orders 1 and 2, every coefficient of degree <= 2 nonzero
    pj = partial_jet(parse_expr("exp(x+2*y)"), ["x", "y"], [real(0.5), D], 6)
    v = (parse_lc("d - d^2"), parse_lc("1/3 + d^(1/2)"))
    products = []
    mul = LCNumber.__mul__

    def counting_mul(a, b, *cap):
        products.append(1)
        return mul(a, b, *cap)

    monkeypatch.setattr(LCNumber, "__mul__", counting_mul)
    sums = partial_taylor_sums(pj, v, [1, 2])
    monkeypatch.undo()
    n, j = 2, 2
    # Horner to order 1, then the monomials past degree 1 and one product
    # per degree-j coefficient
    assert len(products) == n + (math.comb(n + j, j) - 1 - n) + math.comb(n + j - 1, j)
    t = pj.table
    assert sums[0] == partial_taylor_eval(pj, v, 1)
    expected = sums[0] + (
        t[(2, 0)] * v[0] * v[0] + t[(1, 1)] * v[0] * v[1] + t[(0, 2)] * v[1] * v[1]
    )
    assert approx_equal(sums[1], expected, rel_tol=1e-14)


def test_taylor_identity_trivariate_polynomial():
    rng = random.Random(13)
    f = parse_expr("x^3*y - 2*z^2 + x*y*z + y^2*z^2 - 5*x + 1")
    names = ["x", "y", "z"]
    center = [real(1), real(-1), real(2)]
    pj = partial_jet(f, names, center, 5)
    for _ in range(10):
        eta = tuple(monomial(rng.randint(1, 3), rng.randint(-8, 8) / 4.0) for _ in names)
        target = eval_lc(f, dict(zip(names, (c + e for c, e in zip(center, eta)))))
        total = partial_taylor_eval(pj, eta, 5)
        assert (target - total).is_zero  # exact for integer polynomials
        # a reference with no Horner and no graded parts: each term by plain products
        ref = ZERO
        for alpha, coeff in pj.table.items():
            term = coeff
            for e, a in zip(eta, alpha):
                for _ in range(a):
                    term = term * e
            ref = ref + term
        assert approx_equal(total, ref, rel_tol=1e-12)


# -- Taylor sums of several orders at once -------------------------------------------

SUMS_POLYNOMIALS = {
    1: ("x", "3/4*x^5 - 1/2*x^3 + 5/8*x^2 - x + 3"),
    2: ("x y", "x^3*y - 3/8*y^4 + 1/4*x*y^2 - 2*x + y - 1/2"),
    3: ("x y z", "x^3*y - 1/2*z^2 + x*y*z + 3/4*y^2*z^2 - 5*x + 1"),
}
SUMS_ANALYTIC = {
    1: ("x", "exp(x)*sin(x)"),
    2: ("x y", "exp(x-y)*sin(x+2*y)"),
    3: ("x y z", "sin(x)*exp(y)*cos(z) + exp(x*z)"),
}


def _sums_case(text, names, seed):
    rng = random.Random(seed)
    center = [parse_lc(f"{rng.randint(-4, 4)}/8 + d") for _ in names]
    v = [parse_lc(f"{rng.randint(1, 8)}/16 - {rng.randint(1, 8)}/4 d^(1/2)") for _ in names]
    return partial_jet(parse_expr(text), names, center, 6), v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_taylor_sums_lowest_order_is_horner(n):
    names, text = SUMS_ANALYTIC[n]
    pj, v = _sums_case(text, names.split(), n)
    for ks in ([1, 4, 6], [3, 5], [6]):
        assert partial_taylor_sums(pj, v, ks)[0] == partial_taylor_eval(pj, v, ks[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_taylor_sums_exact_on_dyadic_polynomials(n):
    # dyadic data at dyadic points: every order is exact, so the graded
    # sums equal nested Horner term for term
    names, text = SUMS_POLYNOMIALS[n]
    for seed in range(4):
        pj, v = _sums_case(text, names.split(), seed)
        ks = list(range(7))
        assert partial_taylor_sums(pj, v, ks) == [partial_taylor_eval(pj, v, k) for k in ks]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_taylor_sums_agree_with_horner_on_analytic_jets(n):
    names, text = SUMS_ANALYTIC[n]
    for seed in range(3):
        pj, v = _sums_case(text, names.split(), seed)
        ks = list(range(1, 7))
        for k, total in zip(ks, partial_taylor_sums(pj, v, ks)):
            ref = partial_taylor_eval(pj, v, k)
            tol = 1e-13 * ref.max_abs_coefficient()
            assert (total - ref).without_small(tol).is_zero, (k, total, ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_taylor_sums_stop_at_the_last_nonzero_degree(n):
    # the degree-2 polynomial has an order-6 jet whose parts above 2 are zero
    names = ["x", "y", "z"][:n]
    text = " + ".join(f"{i + 1}/2*{x}^2 - {x}" for i, x in enumerate(names))
    pj, v = _sums_case(text, names, n)
    quadratic = partial_taylor_eval(pj, v, 2)
    assert partial_taylor_sums(pj, v, [1, 2, 4, 6])[1:] == [quadratic] * 3
    assert partial_taylor_sums(pj, v, [3, 5]) == [partial_taylor_eval(pj, v, 3)] * 2


def test_partial_taylor_sums_keep_the_horizon_of_a_visible_zero():
    # a coefficient known to be zero only below exponent 3 still bounds the
    # horizon of every sum that includes it, as it does in Horner
    pj = calculus.PartialJet((ZERO,), 2, {(0,): ONE, (1,): ONE, (2,): LCNumber([], 3)})
    sums = partial_taylor_sums(pj, (D,), [1, 2])
    assert sums == [partial_taylor_eval(pj, (D,), k) for k in (1, 2)]
    assert sums[1].horizon == 5


def test_partial_taylor_sums_order_too_high():
    pj = partial_jet(parse_expr("x+y"), ["x", "y"], [0, 0], 1)
    with pytest.raises(OrderTooHighError):
        partial_taylor_sums(pj, (ONE, ONE), [1, 2])


# -- L'Hopital -----------------------------------------------------------------------


def test_lhopital_trivial():
    assert lhopital_limit(parse_expr("x"), parse_expr("x"), "x", 0) == ONE


def test_lhopital_classics():
    assert lhopital_limit(
        parse_expr("sin(x)"), parse_expr("x"), "x", 0
    ).real_part() == pytest.approx(1.0, abs=1e-12)
    assert lhopital_limit(
        parse_expr("1-cos(x)"), parse_expr("x^2"), "x", 0
    ).real_part() == pytest.approx(0.5, abs=1e-12)
    assert lhopital_limit(
        parse_expr("exp(x)-1"), parse_expr("x"), "x", 0
    ).real_part() == pytest.approx(1.0, abs=1e-12)


def test_lhopital_zero_limit():
    v = lhopital_limit(parse_expr("x^2"), parse_expr("x"), "x", 0)
    assert v == ZERO


def test_lhopital_not_indeterminate():
    with pytest.raises(NotIndeterminateError):
        lhopital_limit(parse_expr("x+1"), parse_expr("x"), "x", 0)


def test_lhopital_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        lhopital_limit(parse_expr("x"), parse_expr("x-x"), "x", 0)


def test_lhopital_infinite_limit():
    with pytest.raises(InfiniteLimitError):
        lhopital_limit(parse_expr("x"), parse_expr("x^2"), "x", 0)
