import copy
import gc
import math
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

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


def test_print_deep_right_nested_difference():
    # deeper than parse_expr's nesting limit, so built node by node
    e = X
    for _ in range(3000):
        e = Sub(X, e)
    assert print_expr(e) == "x - (" * 2999 + "x - x" + ")" * 2999


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
    for bad in ("", "d^", "2 +", "1//2", "q"):
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
