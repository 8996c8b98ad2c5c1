import copy
import gc
import math
import pickle
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    Add,
    Apply,
    D,
    Div,
    IntPow,
    LCNumber,
    Mul,
    ONE,
    RationalConst,
    Sub,
    Variable,
    ZERO,
    approx_equal,
    diff_symbolic,
    eval_lc,
    monomial,
    parse_expr,
    parse_lc,
    print_expr,
    variables,
)
from levicivita import expr
from levicivita.errors import (
    LCSyntaxError,
    NotDifferentiableError,
    UnboundVariableError,
)

from _corpus import CORPUS_30

F = Fraction
X = Variable("x")


# -- expression parsing ----------------------------------------------------------


def test_parse_structure_pow_and_apply():
    e = parse_expr("x^2 + sin(x)")
    assert e == Add(IntPow(X, 2), Apply("sin", X))


def test_parse_structure_div():
    e = parse_expr("1/(1-x)")
    assert e == Div(RationalConst(F(1)), Sub(RationalConst(F(1)), X))


def test_parse_precedence():
    assert parse_expr("2*x + 3*y") == Add(
        Mul(RationalConst(F(2)), X), Mul(RationalConst(F(3)), Variable("y"))
    )
    # ^ binds tighter than unary minus
    e = parse_expr("-x^2")
    assert e == Sub(RationalConst(F(0)), IntPow(X, 2))


def test_parse_pow_right_assoc_constant_fold():
    assert parse_expr("x^2^3") == IntPow(X, 8)
    assert parse_expr("2^-1") == RationalConst(F(1, 2))


def test_parse_error_offset():
    with pytest.raises(LCSyntaxError) as err:
        parse_expr("d^^2")
    assert err.value.offset == 2


def test_parse_error_unknown_function():
    with pytest.raises(LCSyntaxError):
        parse_expr("tan(x)")


def test_parse_error_non_integer_exponent():
    with pytest.raises(LCSyntaxError):
        parse_expr("x^y")


def test_constant_folding():
    assert parse_expr("7/2") == RationalConst(F(7, 2))
    assert parse_expr("-3.5") == RationalConst(F(-7, 2))
    assert parse_expr("2*3 + 1") == RationalConst(F(7))


def test_print_parse_round_trip():
    samples = [
        "x^2 + sin(x)",
        "1/(1-x)",
        "exp(x^2) - cos(x)*x",
        "(x + 1)*(x - 2)",
        "x/(1 + x^2)",
        "sqrt(1 + x^2)",
        "abs(x) + 2",
        "x - (1 - x) - 2",
        "x^-2 + x",
    ]
    for text in samples:
        e = parse_expr(text)
        assert parse_expr(print_expr(e)) == e


def test_print_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    e = parse_expr("x" + "+x" * 3000)
    assert print_expr(e) == "x" + " + x" * 3000
    assert parse_expr(print_expr(e)) is e


def test_print_constants_past_the_int_to_str_limit():
    # 6,000 digits, where str() of an int stops at 4,300 by default
    e = parse_expr("9" * 3000 + "*" + "9" * 3000 + "*x")
    text = print_expr(e)
    assert parse_expr(text) is e
    assert max(len(digits) for digits in re.findall(r"\d+", text)) <= 4001
    assert repr(e).startswith("Mul(left=RationalConst(value=Fraction(")
    for value in (F(-10**9000 + 7, 3), F(5, 10**8000 + 1), F(10**4000), F(-10**12001)):
        c = RationalConst(value)
        assert parse_expr(print_expr(c)) is c
        assert parse_expr(print_expr(Mul(c, X))) is Mul(c, X)


def test_print_deep_right_nested_difference():
    e = X
    for _ in range(3000):
        e = Sub(X, e)
    assert print_expr(e) == "x - (" * 2999 + "x - x" + ")" * 2999
    assert parse_expr(print_expr(e)) is e


def test_parse_deep_parentheses_and_calls():
    # 100000 levels: the parser keeps explicit stacks, not Python frames
    assert parse_expr("(" * 100000 + "x" + ")" * 100000) is X
    e = X
    for _ in range(100000):
        e = Apply("sin", e)
    assert parse_expr(print_expr(e)) is e


def test_constant_power_towers_are_refused_fast():
    # 9^(9^9) has 1.2e9 bits and 2^(2^65536) has 2^65536 + 1
    for text, offset in [("9^9^9", 1), ("2^2^2^2^2^2", 3), ("x + 3^9000", 5)]:
        start = time.perf_counter()
        with pytest.raises(LCSyntaxError, match="constant power too large") as err:
            parse_expr(text)
        assert time.perf_counter() - start < 1.0
        assert err.value.offset == offset
    # powers of 0 and 1 stay small at any exponent
    assert parse_expr("1^1000000 + 0^1000000") == RationalConst(F(1))
    assert parse_expr("3^5000 / 3^4999") == RationalConst(F(3))


def test_every_rejection_is_a_syntax_error():
    for parse, text in [
        (parse_expr, "1" * 5000),  # past int()'s digit limit
        (parse_expr, "1e3"),  # expression constants have no exponent part
        (parse_expr, ".5"),
        (parse_expr, "\u00b2"),  # a digit, but not a decimal one
        (parse_lc, "1/E5"),
        (parse_lc, "."),
        (parse_lc, "1e999"),  # past binary64
        (parse_lc, "1e300/1e-300"),
        (parse_lc, "d^1e3"),  # LC exponents are decimals
    ]:
        with pytest.raises(LCSyntaxError):
            parse(text)


_LEAVES = [X, Variable("y"), RationalConst(F(0)), RationalConst(F(2)),
           RationalConst(F(-3, 4)), RationalConst(F(1, 2))]
_STEPS = st.tuples(
    st.sampled_from(["add", "radd", "sub", "rsub", "mul", "div", "rdiv",
                     "pow", "neg", "call"]),
    st.sampled_from(_LEAVES),
    st.integers(-3, 3),
    st.sampled_from(expr.FUNCTIONS),
)


def _grow(e, step):
    """One node above e, built by the parser's constructors."""
    op, leaf, n, func = step
    if op == "pow":
        # a constant is raised only as a leaf, so constants stay small
        return expr._pow(leaf if type(e) is RationalConst else e, n)
    if op == "neg":
        return expr._neg(e)
    if op == "call":
        return Apply(func, e)
    binary = {"add": expr._add, "sub": expr._sub, "mul": expr._mul, "div": expr._div}
    if op.startswith("r"):
        return binary[op[1:]](leaf, e)
    return binary[op](e, expr._pow(leaf, n) if n > 1 else leaf)


@settings(deadline=None, max_examples=60)
@given(st.lists(_STEPS, min_size=1, max_size=12), st.integers(1, 300))
def test_print_parse_round_trip_of_built_trees(steps, repeat):
    # up to 3600 levels: each step list is applied repeat times over
    e = X
    for _ in range(repeat):
        for step in steps:
            e = _grow(e, step)
    assert parse_expr(print_expr(e)) is e


_EXPR_ALPHABET = "0123456789.eEdxy_+-*/^() \tsincoexplqrtab"
_TOKENS = ["1", "2.5", ".5", "E5", "e-3", "/", "d", "^", "(", ")", "-", "+",
           "*", ".", "x", "sin", " ", "0", "9", "^9"]


@settings(deadline=None, max_examples=400)
@given(st.one_of(
    st.text(_EXPR_ALPHABET, max_size=24),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
))
def test_any_text_parses_or_raises_a_syntax_error(text):
    for parse in (parse_expr, parse_lc):
        try:
            parse(text)
        except LCSyntaxError:
            pass


def test_variables():
    assert variables(parse_expr("x*y + sin(z) - 2")) == {"x", "y", "z"}


def test_variables_of_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    assert variables(parse_expr("x" + "+x" * 3000)) == {"x"}


# -- interning ----------------------------------------------------------------------


def test_equal_text_parses_to_one_object():
    assert parse_expr("exp(x)*sin(x) + 1/2") is parse_expr("exp(x) * sin(x) + (1/2)")
    assert parse_expr("x + 1") is not parse_expr("1 + x")


def test_constants_are_keyed_by_their_rational_value():
    assert RationalConst(1) is RationalConst(F(1))
    assert RationalConst(0.5) is RationalConst(F(1, 2))
    assert type(RationalConst(3).value) is Fraction


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        X.name = "y"
    with pytest.raises(AttributeError):
        del X.name
    assert X.name == "x"


def test_copy_and_pickle_return_the_interned_node():
    e = parse_expr("exp(x)*sin(x) + x^-2/3")
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_copies_of_a_deep_expression_are_the_node():
    # a node is immutable, so copying returns it without walking its operands
    e = parse_expr("x" + "+x" * 3000)
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy([e, e])[1] is e


def test_threads_building_one_expression_get_one_object():
    # four threads race to intern the same 2,001 fresh nodes
    barrier = threading.Barrier(4)

    def build():
        barrier.wait(timeout=30)
        e = Variable("built_by_threads")
        for i in range(1000):
            e = Add(e, RationalConst(i))
        return e

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(build) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(e is results[0] for e in results)
    assert len(_distinct_nodes(results[0])) == 2001


def test_unreferenced_node_leaves_the_table():
    gc.collect()
    before = len(expr._NODES)
    node = Apply("exp", Variable("referenced_once"))
    assert len(expr._NODES) == before + 2
    del node
    gc.collect()
    assert len(expr._NODES) == before


def test_unknown_function_enters_nothing():
    gc.collect()
    before = len(expr._NODES)
    with pytest.raises(ValueError, match="bogus"):
        Apply("bogus", X)
    assert len(expr._NODES) == before


def test_derivative_chains_share_every_equal_subtree():
    # counted by identity and by structure, the nodes of criterion 3's
    # derivative chains agree: no construction path skips interning
    roots = []
    for text in CORPUS_30:
        e = parse_expr(text)
        roots.append(e)
        for _ in range(8):
            e = diff_symbolic(e, "x")
            roots.append(e)
    nodes = _distinct_nodes(*roots)
    assert len(nodes) == len(_structural_classes(nodes)) == 2287


def test_derivative_chains_print_and_parse_back_to_their_nodes():
    # diff_symbolic folds constant powers as the parser does, so no node of
    # criterion 3's derivative chains prints as text like "2 / 2^2"
    for text in CORPUS_30:
        chain = [parse_expr(text)]
        for _ in range(8):
            chain.append(diff_symbolic(chain[-1], "x"))
        for e in chain:
            assert parse_expr(print_expr(e)) is e


def test_pickle_of_a_deep_expression_is_the_node():
    # 3000 operators deep: the encoding is flat, each node once in postorder
    e = parse_expr("x" + "+x" * 3000)
    assert pickle.loads(pickle.dumps(e)) is e
    data = pickle.dumps(parse_expr("sin(pickled)^-2 + pickled/(1/2)"))
    gc.collect()  # that expression is gone, so loading builds it afresh
    assert print_expr(pickle.loads(data)) == "sin(pickled)^-2 + pickled / (1/2)"


def test_repr_of_small_trees_shows_every_field():
    for text, shown in [
        ("x^2 + sin(x)", "Add(left=IntPow(base=Variable(name='x'), exponent=2), "
                         "right=Apply(func='sin', arg=Variable(name='x')))"),
        ("1/(1-x)", "Div(left=RationalConst(value=Fraction(1, 1)), right=Sub("
                    "left=RationalConst(value=Fraction(1, 1)), right=Variable(name='x')))"),
        ("0^-1 - y/(1/2)", "Sub(left=IntPow(base=RationalConst(value=Fraction(0, 1)), "
                           "exponent=-1), right=Div(left=Variable(name='y'), "
                           "right=RationalConst(value=Fraction(1, 2))))"),
    ]:
        assert repr(parse_expr(text)) == shown


def test_repr_of_a_deep_expression():
    # 3000 operators deep: far past the interpreter's recursion limit
    shown = repr(parse_expr("x" + "+x" * 3000))
    x = "Variable(name='x')"
    assert shown == "Add(left=" * 3000 + x + f", right={x})" * 3000


def _operands(node) -> tuple:
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, IntPow):
        return (node.base,)
    if isinstance(node, Apply):
        return (node.arg,)
    return ()


def _distinct_nodes(*roots) -> list:
    """The nodes reachable from roots, one per object."""
    seen, stack, out = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack += _operands(node)
    return out


def _structural_classes(nodes) -> set:
    """Number the subtrees of nodes by structure alone; equal trees, one number.

    An explicit-stack walk: each node's key is its class, its scalar fields
    and the numbers of its operands, so it is ready once they are.
    """
    number: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    stack = list(nodes)
    while stack:
        node = stack[-1]
        if id(node) in number:
            stack.pop()
            continue
        pending = [a for a in _operands(node) if id(a) not in number]
        if pending:
            stack += pending
            continue
        stack.pop()
        if isinstance(node, RationalConst):
            scalars = (node.value,)
        elif isinstance(node, Variable):
            scalars = (node.name,)
        elif isinstance(node, IntPow):
            scalars = (node.exponent,)
        elif isinstance(node, Apply):
            scalars = (node.func,)
        else:
            scalars = ()
        key = (type(node).__name__, scalars, tuple(number[id(a)] for a in _operands(node)))
        number[id(node)] = classes.setdefault(key, len(classes))
    return set(number.values())


# -- LC literal parsing ------------------------------------------------------------


def test_parse_lc_example():
    x = parse_lc("2 + 3d^(1/2) - d^2")
    assert x.terms == ((F(0), 2.0), (F(1, 2), 3.0), (F(2), -1.0))
    assert x.horizon == 32


def test_parse_lc_zero():
    zero = parse_lc("0")
    assert zero.is_zero
    assert zero.horizon == float("inf")


def test_parse_lc_pure_real_is_exact():
    # real literals carry no truncated expansion: infinite horizon
    assert parse_lc("3").horizon == float("inf")
    assert parse_lc("-7/2").horizon == float("inf")
    assert parse_lc("d").horizon == 32


def test_parse_lc_negative_exponent():
    assert parse_lc("d^-1").terms == ((F(-1), 1.0),)


def test_parse_lc_fraction_coefficient():
    assert parse_lc("7/2").terms == ((F(0), 3.5),)
    assert parse_lc("7/2d^2").terms == ((F(2), 3.5),)


def test_parse_lc_decimal_exponent():
    assert parse_lc("d^1.5").terms == ((F(3, 2), 1.0),)
    assert parse_lc("d^(-1/2)").terms == ((F(-1, 2), 1.0),)


def test_parse_lc_leading_sign():
    assert parse_lc("-d").terms == ((F(1), -1.0),)
    assert parse_lc("-3.5 + d").terms == ((F(0), -3.5), (F(1), 1.0))


def test_parse_lc_errors():
    # the last two sum terms of one exponent past binary64
    for bad in ("", "d^", "2 +", "1//2", "q", "1e308 + 1e308", "d - 1e308d^(1/2) - 1e308d^(1/2)"):
        with pytest.raises(LCSyntaxError):
            parse_lc(bad)


def test_format_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 6)):
            den = rng.randint(1, 6)
            num = rng.randint(-12, 12)
            c = rng.choice([rng.uniform(-3, 3), float(rng.randint(-5, 5))])
            if c:
                terms.append((F(num, den), c))
        x = LCNumber(terms, F(32))
        back = parse_lc(str(x))
        assert back.terms == x.terms


# -- evaluation ----------------------------------------------------------------------


def test_eval_square_at_shifted_point():
    v = eval_lc(parse_expr("x^2"), {"x": 3 + D})
    assert v.terms == ((F(0), 9.0), (F(1), 6.0), (F(2), 1.0))


def test_eval_reciprocal_of_d():
    assert eval_lc(parse_expr("1/x"), {"x": D}).terms == ((F(-1), 1.0),)


def test_eval_ln_round_trip():
    from levicivita import exp as lc_exp

    v = eval_lc(parse_expr("ln(x)"), {"x": 1 + D})
    assert approx_equal(lc_exp(v), 1 + D)


def test_eval_abs_and_sqrt():
    assert eval_lc(parse_expr("abs(x)"), {"x": -D}) == D
    r = eval_lc(parse_expr("sqrt(x)"), {"x": monomial(2)})
    assert r == monomial(1)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_lc(parse_expr("x + y"), {"x": ONE})


def test_eval_zero_division():
    with pytest.raises(ZeroDivisionError):
        eval_lc(parse_expr("1/x"), {"x": ZERO})


def test_eval_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    f = parse_expr("x" + "+x" * 3000)
    assert eval_lc(f, {"x": ONE}) == LCNumber.from_real(3001)


def test_eval_deeply_nested_calls():
    f = X
    for _ in range(2 * sys.getrecursionlimit()):
        f = Apply("abs", f)
    assert eval_lc(f, {"x": LCNumber.from_real(2)}) == LCNumber.from_real(2)


def test_eval_none_operand_raises():
    # a None value is an operand like any other, not a missing result
    with pytest.raises(TypeError):
        eval_lc(parse_expr("x + 1"), {"x": None})


@pytest.mark.parametrize("value", [2, 2.0, F(2)], ids=["int", "float", "Fraction"])
@pytest.mark.parametrize("text", ["x", "x^1"])
def test_eval_scalar_arguments_give_lc_numbers(text, value):
    v = eval_lc(parse_expr(text), {"x": value})
    assert type(v) is LCNumber
    assert v == LCNumber.from_real(2) and v.horizon == math.inf


def test_eval_scalar_arguments_take_the_binary64_walk(monkeypatch):
    def lc_function(name, x):
        raise AssertionError("the LC walk ran")

    monkeypatch.setattr(expr.series, "apply_elementary", lc_function)
    v = eval_lc(parse_expr("exp(x) + 1/x"), {"x": 2})
    assert v == LCNumber.from_real(math.exp(2) + 0.5)


def test_eval_variable_free_matches_binary64():
    cases = ["exp(1) + sin(1/2)", "ln(2)*cos(3/4)", "2^10/3 - sqrt(2)"]
    refs = [
        math.exp(1) + math.sin(0.5),
        math.log(2) * math.cos(0.75),
        2**10 / 3 - math.sqrt(2),
    ]
    for text, ref in zip(cases, refs):
        v = eval_lc(parse_expr(text), {})
        assert v.real_part() == pytest.approx(ref, rel=1e-14)


# -- symbolic differentiation ----------------------------------------------------------


def test_diff_power_rule():
    d = diff_symbolic(parse_expr("x^2"), "x")
    assert eval_lc(d, {"x": LCNumber.from_real(5)}).real_part() == 10.0


def test_diff_sin():
    assert diff_symbolic(parse_expr("sin(x)"), "x") == Apply("cos", X)


def test_diff_chain_rule():
    d = diff_symbolic(parse_expr("exp(x^2)"), "x")
    # semantically 2x * exp(x^2)
    at2 = eval_lc(d, {"x": LCNumber.from_real(2)}).real_part()
    assert at2 == pytest.approx(4 * math.exp(4), rel=1e-14)


def test_diff_quotient_and_sqrt():
    d = diff_symbolic(parse_expr("1/(1+x)"), "x")
    assert eval_lc(d, {"x": ZERO}).real_part() == -1.0
    d = diff_symbolic(parse_expr("sqrt(x)"), "x")
    assert eval_lc(d, {"x": LCNumber.from_real(4)}).real_part() == pytest.approx(0.25)


def test_diff_long_flat_sum():
    # 3000 operators deep: far past the interpreter's recursion limit
    e = parse_expr("x" + "+x" * 3000)
    assert hash(e) == hash(e)
    assert e == parse_expr("x" + "+x" * 3000)
    assert diff_symbolic(e, "x") is RationalConst(F(3001))


def test_diff_abs_rejected():
    with pytest.raises(NotDifferentiableError):
        diff_symbolic(parse_expr("abs(x)"), "x")


def test_diff_matches_first_jet_coefficient():
    # order-1 coefficient of f(x0 + d) equals eval of the symbolic derivative
    rng = random.Random(5)
    corpus = ["x^3 - 2*x", "exp(x)*sin(x)", "ln(1+x^2)", "cos(x)/(2+x)"]
    for text in corpus:
        f = parse_expr(text)
        df = diff_symbolic(f, "x")
        for _ in range(3):
            x0 = LCNumber.from_real(rng.uniform(-0.8, 0.8))
            shifted = eval_lc(f, {"x": x0 + D})
            ref = eval_lc(df, {"x": x0}).real_part()
            assert shifted.coefficient(1) == pytest.approx(ref, rel=1e-10, abs=1e-12)
