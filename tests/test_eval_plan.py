"""``expr.evaluate`` runs a plan built once per root.

The reference here is the explicit-stack walk that ``evaluate`` used before
plans: a fresh ``id``-keyed memo per call, operands before their node, left
before right.  Every path that evaluates an expression (the LC domain, the
binary64 hooks of ``eval_lc`` and the jets of ``calculus``) must give the
same numbers, or raise the same exception with the same message, under
both.  The other tests pin how a plan is built, kept and freed.
"""

import copy
import gc
import math
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import methodcaller
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D,
    INF,
    LCNumber,
    ONE,
    ZERO,
    apply_elementary,
    calculus,
    diff_symbolic,
    eval_lc,
    expr,
    parse_expr,
    parse_lc,
    partial_jet,
    taylor_jet,
)
from levicivita.errors import UnboundVariableError
from levicivita.expr import (
    FUNCTIONS,
    Add,
    Apply,
    Div,
    IntPow,
    Mul,
    RationalConst,
    Sub,
    Variable,
    _float_apply,
    _float_inv,
    _float_power,
    evaluate,
)

F = Fraction
X = Variable("x")


# -- the reference: the explicit-stack walk -------------------------------------

_MISSING = object()


def stack_walk(e, env, lift, apply, inv=methodcaller("inv"), power=pow):
    """evaluate as it was before plans, a walk with a memo keyed by id."""
    vals = {}
    get = vals.get
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in vals:
            stack.pop()
            continue
        kind = type(node)
        if kind is Add or kind is Sub or kind is Mul or kind is Div:
            a, b = node.left, node.right
            x = get(id(a), _MISSING)
            y = get(id(b), _MISSING)
            if x is _MISSING or y is _MISSING:
                if y is _MISSING:
                    stack.append(b)
                if x is _MISSING:
                    stack.append(a)
                continue
            if kind is Add:
                result = x + y
            elif kind is Sub:
                result = x - y
            elif kind is Mul:
                result = x * y
            else:
                result = x * inv(y)
        elif kind is IntPow or kind is Apply:
            a = node.base if kind is IntPow else node.arg
            x = get(id(a), _MISSING)
            if x is _MISSING:
                stack.append(a)
                continue
            result = power(x, node.exponent) if kind is IntPow else apply(node.func, x)
        elif kind is RationalConst:
            result = lift(float(node.value))
        elif kind is Variable:
            try:
                result = env[node.name]
            except KeyError:
                raise UnboundVariableError(node.name) from None
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.pop()
        vals[id(node)] = result
    return vals[id(e)]


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def same(a, b) -> bool:
    """Equal numbers, horizons included, sequences of them, or equal raises."""
    if isinstance(a, LCNumber):  # term by term, as a nan term is unequal to itself
        return isinstance(b, LCNumber) and a.horizon == b.horizon and same(a.terms, b.terms)
    if isinstance(a, (list, tuple)):
        return type(b) is type(a) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)  # nan and -0.0 too
    return a == b


# -- random DAGs with shared subtrees ----------------------------------------------

_KINDS = ("const", "var", "add", "sub", "mul", "div", "pow", "apply")


@st.composite
def dags(draw, names=("x", "y")):
    """A root over all eight node types; each operand is any earlier node, so
    subtrees are shared."""
    nodes = [Variable(names[0])]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(_KINDS))
        a = nodes[draw(st.integers(0, len(nodes) - 1))]
        b = nodes[draw(st.integers(0, len(nodes) - 1))]
        if kind == "const":
            node = RationalConst(draw(st.fractions(-4, 4, max_denominator=8)))
        elif kind == "var":
            node = Variable(draw(st.sampled_from(names)))
        elif kind == "pow":
            node = IntPow(a, draw(st.integers(-3, 3)))
        elif kind == "apply":
            node = Apply(draw(st.sampled_from(FUNCTIONS)), a)
        else:
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)
        nodes.append(node)
    return nodes[-1]


REALS = st.sampled_from([0.0, 0.5, -0.25, 1.0, -3.0, 2.5, 1e200, 5e-324])
MULTI_TERM = st.sampled_from(
    [parse_lc(t) for t in ("1/2 + d", "1 - 2d^(1/2) + d^3", "-3 + d^2", "d", "-d^(1/2)")]
)
LC_POINTS = st.one_of(REALS.map(LCNumber.from_real), MULTI_TERM)


def lc_walk(walk, e, env):
    return walk(e, env, LCNumber.from_real, apply_elementary)


def float_walk(walk, e, env):
    return walk(e, env, float, _float_apply, _float_inv, _float_power)


@settings(deadline=None, max_examples=150)
@given(e=dags(), x=LC_POINTS, y=LC_POINTS)
def test_lc_domain_matches_the_stack_walk(e, x, y):
    env = {"x": x, "y": y}
    assert same(outcome(lc_walk, evaluate, e, env), outcome(lc_walk, stack_walk, e, env))


@settings(deadline=None, max_examples=300)
@given(e=dags(), x=REALS | st.floats(allow_nan=False), y=REALS)
def test_binary64_walk_matches_the_stack_walk(e, x, y):
    env = {"x": x, "y": y}
    assert same(
        outcome(float_walk, evaluate, e, env), outcome(float_walk, stack_walk, e, env)
    )


@settings(deadline=None, max_examples=100)
@given(e=dags(), x=LC_POINTS, y=LC_POINTS)
def test_eval_lc_matches_the_stack_walk(e, x, y):
    env = {"x": x, "y": y}
    got = outcome(eval_lc, e, env)
    with mock.patch.object(expr, "evaluate", stack_walk):
        assert same(got, outcome(eval_lc, e, env))


def jet_coefficients(f, *args) -> list:
    jet = f(*args)
    return list(jet.coeffs if f is taylor_jet else jet.table.values())


@settings(deadline=None, max_examples=60)
@given(e=dags(names=("x",)), x=LC_POINTS, k=st.integers(0, 3))
def test_taylor_jet_matches_the_stack_walk(e, x, k):
    args = (jet_coefficients, taylor_jet, e, "x", x, k)
    got = outcome(*args)
    with mock.patch.object(calculus, "evaluate", stack_walk):
        assert same(got, outcome(*args))


@settings(deadline=None, max_examples=60)
@given(e=dags(), x=LC_POINTS, y=LC_POINTS, k=st.integers(0, 2))
def test_partial_jet_matches_the_stack_walk(e, x, y, k):
    args = (jet_coefficients, partial_jet, e, ["x", "y"], [x, y], k)
    got = outcome(*args)
    with mock.patch.object(calculus, "evaluate", stack_walk):
        assert same(got, outcome(*args))


# -- edges, by example -----------------------------------------------------------------


@pytest.mark.parametrize("walk", [evaluate, stack_walk])
def test_none_operand_raises_at_its_operator(walk):
    # None is a value like any other; its operator is what refuses it
    assert walk(X, {"x": None}, float, _float_apply) is None
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
        walk(parse_expr("x + 1"), {"x": None}, float, _float_apply)


@pytest.mark.parametrize("walk", [evaluate, stack_walk])
def test_unbound_name_raises(walk):
    with pytest.raises(UnboundVariableError):
        lc_walk(walk, parse_expr("x + y"), {"x": ONE})


@pytest.mark.parametrize("walk", [evaluate, stack_walk])
@pytest.mark.parametrize("case", ["str", "list", "operand"])
def test_non_node_raises(walk, case):
    junk = ["x"] if case == "list" else "x"
    root = Add(X, junk) if case == "operand" else junk
    message = re.escape(f"not an expression node: {junk!r}")
    with pytest.raises(TypeError, match=message):
        lc_walk(walk, root, {"x": ONE})


def test_long_literal_overflows_at_evaluation_not_at_planning():
    e = parse_expr("1" + "0" * 400)
    with pytest.raises(OverflowError):
        eval_lc(e, {})
    assert e._plan == ((RationalConst, F(10**400), None),)  # the plan was built
    with pytest.raises(OverflowError):
        float_walk(evaluate, e, {})


def test_tiny_literal_evaluates_to_zero():
    value = eval_lc(parse_expr("1/1" + "0" * 400), {})
    assert value == ZERO and value.horizon == INF


# -- how a plan is built and freed ------------------------------------------------------


def test_a_fresh_root_is_walked_once(monkeypatch):
    e = parse_expr("planned_once * planned_once + sin(planned_once) / 3")
    walks = []
    postorder = expr._postorder

    def counting(root, *args):
        walks.append(root)
        return postorder(root, *args)

    monkeypatch.setattr(expr, "_postorder", counting)
    assert eval_lc(e, {"planned_once": 2}) == eval_lc(e, {"planned_once": 2.0})
    eval_lc(e, {"planned_once": 1 + D})  # the LC walk
    taylor_jet(e, "planned_once", F(1, 2), 3)
    assert walks == [e]


def test_an_evaluated_node_leaves_the_table():
    # refcounts alone must free it: a row holding its own root would make
    # a cycle that only the collector breaks
    gc.collect()
    before = len(expr._NODES)
    node = Apply("exp", Variable("evaluated_once"))
    assert eval_lc(node, {"evaluated_once": 0}) == ONE
    assert node._plan
    assert len(expr._NODES) == before + 2
    gc.disable()
    try:
        del node
        assert len(expr._NODES) == before
    finally:
        gc.enable()


def test_plan_slot_is_read_only():
    e = parse_expr("x + 1")
    eval_lc(e, {"x": 1})
    with pytest.raises(AttributeError):
        e._plan = ()
    with pytest.raises(AttributeError):
        del e._plan


def test_copies_of_an_evaluated_flat_sum_are_the_node():
    e = parse_expr("copied" + "+copied" * 2999)
    assert eval_lc(e, {"copied": 1}) == LCNumber.from_real(3000)
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e


def test_threads_evaluating_one_fresh_root_agree():
    f = parse_expr("exp(sin(threaded)) / (1 + threaded^2)")
    for _ in range(4):
        f = diff_symbolic(f, "threaded")
    barrier = threading.Barrier(4)

    def run():
        barrier.wait(timeout=30)
        return (
            eval_lc(f, {"threaded": 0.5}),
            eval_lc(f, {"threaded": F(1, 2) + D}),
            taylor_jet(f, "threaded", F(1, 2), 2).coeffs,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            results = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    for other in results[1:]:
        assert same(other[0], first[0]) and same(other[1], first[1])
        assert all(same(a, b) for a, b in zip(other[2], first[2]))
    assert math.isfinite(first[0].real_part())
