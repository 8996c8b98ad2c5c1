r"""Expression ASTs over real constants, parsing, and LC evaluation.

Expression grammar (parse_expr): numbers, names, calls ``NAME(expr)`` of
FUNCTIONS and parentheses, under the operators, tightest first: ``^``
(right-associative; its exponent is a unary expression that must fold to
an integer), unary ``-``, ``* /``, ``+ -`` (both left-associative).

LC literal grammar (parse_lc), producing numbers with the default horizon:

    number   := ('+'|'-')? term (('+'|'-') term)*
    term     := coeff | coeff? 'd' ('^' exponent)?
    coeff    := COEFF ('/' COEFF)?          e.g. 2, 3.5, .5, 1.5e-3, 7/2
    exponent := '-'? DECIMAL | '(' '-'? DECIMAL '/' DECIMAL ')'

Number spellings: expression constants and DECIMAL are ``\d+(\.\d*)?``
(2, 2., 2.5), parsed exactly as rationals; constants become binary64 once,
at evaluation.  COEFF is ``(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?``, read as
binary64, so that printed coefficients round-trip bit-exactly.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from collections import Counter
from fractions import Fraction
from operator import index, methodcaller
from typing import Callable, Mapping, Union

from . import series
from .core import INF, LCNumber, as_lc, default_horizon, power
from .errors import (
    LCError,
    LCSyntaxError,
    NotDifferentiableError,
    NotPositiveError,
    UnboundVariableError,
)

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")


# -- expression nodes (hash-consed) --------------------------------------------
#
# Every node is interned: constructing a node equal to a live one returns
# that object, so each distinct subexpression is one object.  Equality and
# hashing are identity (object's own), O(1) and never recursive, and
# evaluate's plans and diff_symbolic's memo see every repeated subtree.
# The table holds its nodes weakly; a node no longer referenced leaves it.

_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _Node:
    """Base of the node classes: interning, immutability, copy and pickle."""

    __slots__ = ("__weakref__", "_plan")

    @classmethod
    def _intern(cls, *fields):
        # The key holds the children themselves, and they hash by identity.
        key = (cls, *fields)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__match_args__, fields):
                    object.__setattr__(node, name, value)
                _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an expression node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an expression node")

    def __copy__(self):
        return self  # a node is immutable, so it is its own copy

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # A flat encoding at any depth: the plan that evaluate runs, whose
        # rows hold operand positions and no node.  Loading rebuilds through
        # the constructors, which return the interned nodes.
        return _unpickle, (_plan_of(self),)

    def __repr__(self):
        def render(node, take):
            fields = (getattr(node, name) for name in node.__match_args__)
            shown = (take(f) if isinstance(f, _Node) else _field_repr(f) for f in fields)
            pairs = ", ".join(f"{n}={v}" for n, v in zip(node.__match_args__, shown))
            return f"{type(node).__name__}({pairs})"

        return _fold(self, render)


class RationalConst(_Node):
    __slots__ = __match_args__ = ("value",)
    value: Fraction

    def __new__(cls, value):
        return cls._intern(value if type(value) is Fraction else Fraction(value))


class Variable(_Node):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str):
        return cls._intern(name)


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")
    left: "Expr"
    right: "Expr"

    def __new__(cls, left: "Expr", right: "Expr"):
        return cls._intern(left, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class IntPow(_Node):
    __slots__ = __match_args__ = ("base", "exponent")
    base: "Expr"
    exponent: int

    def __new__(cls, base: "Expr", exponent: int):
        return cls._intern(base, index(exponent))


class Apply(_Node):
    __slots__ = __match_args__ = ("func", "arg")
    func: str  # one of FUNCTIONS
    arg: "Expr"

    def __new__(cls, func: str, arg: "Expr"):
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        return cls._intern(func, arg)


Expr = Union[RationalConst, Variable, Add, Sub, Mul, Div, IntPow, Apply]


def _plan_of(root: Expr) -> tuple:
    """root's distinct nodes in _postorder, as rows (kind, a, b) that hold no
    node: a and b are the operands' positions for Add, Sub, Mul and Div;
    IntPow holds (base position, exponent), Apply (argument position, name),
    RationalConst (value, its binary64 value) and Variable (name, None).  A
    constant past binary64's range holds None for its binary64 value, and
    raises where a walk meets it.  Built on root's first evaluation (or
    pickling) and kept in its _plan slot, so it is freed with root."""
    try:
        return root._plan
    except AttributeError:  # not built yet, or not a node
        if not isinstance(root, _Node):
            raise TypeError(f"not an expression node: {root!r}") from None
    position: dict[_Node, int] = {}
    rows = []
    for node in _postorder(root):
        kind = type(node)
        if kind is RationalConst:
            try:
                row = (kind, node.value, float(node.value))
            except OverflowError:
                row = (kind, node.value, None)
        elif kind is Variable:
            row = (kind, node.name, None)
        elif kind is IntPow:
            row = (kind, position[node.base], node.exponent)
        elif kind is Apply:
            row = (kind, position[node.arg], node.func)
        else:
            row = (kind, position[node.left], position[node.right])
        position[node] = len(rows)
        rows.append(row)
    plan = tuple(rows)
    object.__setattr__(root, "_plan", plan)  # threads racing here build equal plans
    return plan


def _unpickle(plan) -> Expr:
    """The root of a plan, rebuilt through the constructors."""
    nodes: list = []
    for kind, a, b in plan:
        if kind is RationalConst or kind is Variable:
            nodes.append(kind(a))
        elif kind is IntPow:
            nodes.append(kind(nodes[a], b))
        elif kind is Apply:
            nodes.append(kind(b, nodes[a]))
        else:
            nodes.append(kind(nodes[a], nodes[b]))
    return nodes[-1]


def _operands(node) -> tuple:
    """The operands of an expression node, left first."""
    kind = type(node)
    if kind is Add or kind is Sub or kind is Mul or kind is Div:
        return (node.left, node.right)
    if kind is IntPow:
        return (node.base,)
    if kind is Apply:
        return (node.arg,)
    if kind is RationalConst or kind is Variable:
        return ()
    raise TypeError(f"not an expression node: {node!r}")


def _postorder(root, operands=_operands):
    """Each distinct node reachable from root through ``operands(node)``, once,
    after its operands, left operand first; an explicit-stack walk, so any
    depth walks."""
    done: set = set()
    stack = [root]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        pending = [a for a in operands(node) if a not in done]
        if pending:
            stack += reversed(pending)  # the left operand ends on top
            continue
        stack.pop()
        done.add(node)
        yield node


def _fold(root, rule):
    """rule(node, take) for each distinct node under root, in _postorder,
    where take(a) hands over the result of operand a.  A result is dropped
    at its last use, so a deep chain holds only the results still to be
    joined."""
    nodes = list(_postorder(root))
    uses = Counter(a for node in nodes for a in _operands(node))
    out = {}

    def take(a):
        uses[a] -= 1
        return out[a] if uses[a] else out.pop(a)

    for node in nodes:
        out[node] = rule(node, take)
    return out[root]


# -- smart constructors (constant folding only) -------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, RationalConst) and isinstance(b, RationalConst):
        return RationalConst(a.value + b.value)
    if isinstance(a, RationalConst) and a.value == _ZERO:
        return b
    if isinstance(b, RationalConst) and b.value == _ZERO:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, RationalConst) and isinstance(b, RationalConst):
        return RationalConst(a.value - b.value)
    if isinstance(b, RationalConst) and b.value == _ZERO:
        return a
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, RationalConst) and isinstance(b, RationalConst):
        return RationalConst(a.value * b.value)
    if isinstance(a, RationalConst):
        if a.value == _ZERO:
            return RationalConst(_ZERO)
        if a.value == _ONE:
            return b
    if isinstance(b, RationalConst):
        if b.value == _ZERO:
            return RationalConst(_ZERO)
        if b.value == _ONE:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if (
        isinstance(a, RationalConst)
        and isinstance(b, RationalConst)
        and b.value != 0
    ):
        return RationalConst(a.value / b.value)
    if isinstance(b, RationalConst) and b.value == _ONE:
        return a
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, RationalConst):
        return RationalConst(-a.value)
    return _sub(RationalConst(_ZERO), a)


def _pow(base: Expr, n: int) -> Expr:
    if isinstance(base, RationalConst) and (base.value != 0 or n >= 0):
        return RationalConst(base.value**n)
    return IntPow(base, n)


# -- tokens --------------------------------------------------------------------
#
# One tokenizer serves both grammars; a number token has the COEFF spelling.
# Exact numbers take only DECIMAL, so no 1e999999 becomes a huge Fraction.

_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>\w+)|(?P<op>[^ \t\r\n]))"
)
_DECIMAL = re.compile(r"\d+(?:\.\d*)?").fullmatch


def _tokens(text: str):
    """(kind, text, offset) per token, kind "number", "name" or "op" (one
    character), then ("end", "", len(text)); produced one at a time."""
    for m in _TOKEN.finditer(text):  # a token starts wherever the last ended
        yield m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
    yield "end", "", len(text)


def _decimal(kind: str, t: str, at: int) -> Fraction:
    """The token as an exact decimal such as 2 or 2.5."""
    if kind != "number" or not _DECIMAL(t):
        raise LCSyntaxError("expected a number", at, ("number",))
    try:
        return Fraction(t)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise LCSyntaxError("number too long", at) from None


# -- expression parser ---------------------------------------------------------

#: How tightly each stacked operator binds; "(" and calls bind at 0, so only
#: their ")" reduces them.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
#: Per binary operator token, the least binding it reduces before it is
#: stacked: + - * / are left-associative, ^ right-associative.
_FLOOR = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 5}
_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div}
#: A constant power that surely has more bits than this is refused: far past
#: binary64, which constants become at evaluation, while what folds stays
#: within the digits str() gives an int, which print_expr needs.
_MAX_POWER_BITS = 1 << 13


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises LCSyntaxError with the offset.

    One operator-precedence loop over two explicit stacks, so any depth
    parses: operands on one, operators with their offsets on the other,
    where unary minus, "(" and function calls are operators too.  Each
    operator is reduced once its right operand is complete, so the smart
    constructors see their arguments left to right.
    """
    args: list[Expr] = []
    ops: list[tuple[str, int]] = []

    def reduce(floor: int) -> None:
        while ops and _BINDS.get(ops[-1][0], 0) >= floor:
            op, at = ops.pop()
            b = args.pop()
            if op == "neg":
                args.append(_neg(b))
            elif op == "^":
                args.append(_parsed_power(args.pop(), b, at))
            else:
                args.append(_BINARY[op](args.pop(), b))

    tokens = _tokens(text)
    kind, t, at = next(tokens)
    while True:
        # an operand is expected: prefix operators, then a number or a name
        while t == "-" or t == "(":
            ops.append(("neg" if t == "-" else "(", at))
            kind, t, at = next(tokens)
        if kind == "number":
            args.append(RationalConst(_decimal(kind, t, at)))
            kind, t, at = next(tokens)
        elif kind == "name" and (t[0].isalpha() or t[0] == "_"):  # \w holds "²"
            name = t
            kind, t, at = next(tokens)
            if t == "(":
                if name not in FUNCTIONS:
                    raise LCSyntaxError(f"unknown function {name!r}", at, FUNCTIONS)
                ops.append((name, at))
                kind, t, at = next(tokens)
                continue
            args.append(Variable(name))
        else:
            raise LCSyntaxError("unexpected input", at, ("number", "name", "(", "-"))
        # an operator is expected: closing parentheses, then one binary
        # operator or the end
        while t == ")":
            reduce(1)
            if not ops:
                raise LCSyntaxError("trailing input", at, ("end of input",))
            op = ops.pop()[0]
            if op != "(":
                args.append(Apply(op, args.pop()))
            kind, t, at = next(tokens)
        if t in _FLOOR:
            reduce(_FLOOR[t])
            ops.append((t, at))
            kind, t, at = next(tokens)
            continue
        reduce(1)
        if ops:
            raise LCSyntaxError("unexpected input", at, (")",))
        if kind != "end":
            raise LCSyntaxError("trailing input", at, ("end of input",))
        return args[0]


def _parsed_power(base: Expr, exponent: Expr, at: int) -> Expr:
    """base ^ exponent as read: the exponent must fold to an integer, and a
    constant power is folded unless it surely has over _MAX_POWER_BITS bits."""
    if type(exponent) is not RationalConst or exponent.value.denominator != 1:
        raise LCSyntaxError("integer exponent required", at, ("integer",))
    n = exponent.value.numerator
    if type(base) is RationalConst:
        # (p/q)^n has over |n|(b - 1) bits, b the longer bit length of p and q
        b = max(base.value.numerator.bit_length(), base.value.denominator.bit_length())
        if abs(n) * (b - 1) > _MAX_POWER_BITS:
            raise LCSyntaxError("constant power too large", at)
    return _pow(base, n)


def print_expr(e: Expr) -> str:
    """Render with minimal parentheses; parse_expr(print_expr(e)) is e.

    Each distinct node renders once to its text and how tightly it binds;
    a parent parenthesises an operand whose context binds tighter.
    """
    return _fold(e, _print_node)[0]


def _print_node(node: Expr, take) -> tuple[str, int]:
    kind = type(node)
    if kind is RationalConst:
        # negative or fractional constants reparse atomically only in
        # parentheses ("1/2" would scan as a division)
        v = node.value
        if -_BIG < v.numerator < _BIG and v.denominator < _BIG:
            return str(v), (0 if v < 0 or v.denominator != 1 else _ATOM)
        text = _int_text(v.numerator)
        if v.denominator != 1:
            text = f"({text}) / ({_int_text(v.denominator)})"
        return text, 0
    if kind is Variable:
        return node.name, _ATOM
    if kind is Apply:
        return f"{node.func}({_wrap(take(node.arg), 0)})", _ATOM
    if kind is IntPow:
        return f"{_wrap(take(node.base), _ATOM)}^{node.exponent}", _PREC[kind]
    prec = _PREC[kind]
    left = _wrap(take(node.left), prec)
    right = _wrap(take(node.right), prec + 1)  # left-associative
    return f"{left} {_OP[kind]} {right}", prec


def _wrap(rendered: tuple[str, int], context: int) -> str:
    text, binds = rendered
    return f"({text})" if context > binds else text


#: Integers from this on render as a Horner sum in base _BIG, whose
#: literals have at most 4,001 digits: str() refuses an int of more digits
#: than sys.get_int_max_str_digits() (4,300 by default), and the parser
#: folds the constant sums and products back to the one integer.
_BIG = 10**4000


def _int_text(n: int) -> str:
    """n as text: its decimal digits, or from _BIG on a Horner sum."""
    if -_BIG < n < _BIG:
        return str(n)
    digits = []  # base-_BIG digits of |n|, least significant first
    m = abs(n)
    while m:
        m, r = divmod(m, _BIG)
        digits.append(str(r))
    times = f"*{_BIG}"  # 4,001 digits
    text = "(" * (len(digits) - 2) + digits.pop() + ")".join(
        f"{times} + {d}" for d in reversed(digits)
    )
    return f"-({text})" if n < 0 else text


def _field_repr(value) -> str:
    """repr(value), with a Fraction's integers written as _int_text does."""
    if type(value) is Fraction:
        return f"Fraction({_int_text(value.numerator)}, {_int_text(value.denominator)})"
    return repr(value)


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, IntPow: 4}
_OP = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_ATOM = 5  # binds as tightly as any context


# -- LC literal parser ---------------------------------------------------------


def parse_lc(text: str) -> LCNumber:
    """Parse an LC literal such as ``2 + 3d^(1/2) - d^2`` or ``d^-1``.

    Literals with d-terms carry the configurable default horizon (they
    denote truncated expansions); pure real literals, including ``0``, are
    exactly known and carry an infinite horizon.
    """
    tokens = _tokens(text)
    terms: list[tuple[Fraction, float]] = []
    kind, t, at = next(tokens)
    sign = 1.0
    while True:
        if t == "+" or t == "-":
            sign = -1.0 if t == "-" else 1.0
            kind, t, at = next(tokens)
        coeff, exponent, start = 1.0, _ZERO, at
        if kind == "number":  # a decimal, or a fraction such as 7/2
            coeff = float(t)
            kind, t, at = next(tokens)
            if t == "/":
                kind, t, at = next(tokens)
                if kind != "number":
                    raise LCSyntaxError("expected a coefficient", at, ("number",))
                denominator = float(t)
                if denominator == 0.0:
                    raise LCSyntaxError("zero denominator", at)
                coeff /= denominator
                kind, t, at = next(tokens)
            if not math.isfinite(coeff):
                raise LCSyntaxError("coefficient out of binary64 range", start)
        elif t != "d":
            raise LCSyntaxError("expected a coefficient or 'd'", at, ("coeff", "d"))
        if t == "d":
            exponent = _ONE
            kind, t, at = next(tokens)
            if t == "^":
                exponent, (kind, t, at) = _lc_exponent(tokens)
        terms.append((exponent, sign * coeff))
        if kind == "end":
            break
        if t != "+" and t != "-":
            raise LCSyntaxError("unexpected input", at, ("+", "-", "end"))
    exact = all(e == 0 for e, _ in terms)
    try:
        return LCNumber(terms, INF if exact else default_horizon())
    except ValueError:  # terms of one exponent sum past binary64
        raise LCSyntaxError("coefficient out of binary64 range", 0) from None


def _lc_exponent(tokens) -> tuple[Fraction, tuple]:
    """The exponent after ``d^``, read against its pattern, and the token
    after it; each n is a decimal spelt as in parse_expr."""
    kind, t, at = next(tokens)
    sign, parts = 1, []
    for want in ("(", "-?", "n", "/", "n", ")") if t == "(" else ("-?", "n"):
        if want == "n":
            parts.append(_decimal(kind, t, at))
        elif want == "-?":
            if t != "-":
                continue
            sign = -1
        elif t != want:
            raise LCSyntaxError("unexpected input", at, (want,))
        kind, t, at = next(tokens)
    if parts[1:] == [0]:
        raise LCSyntaxError("zero exponent denominator", at)
    return sign * Fraction(*parts), (kind, t, at)


# -- evaluation ----------------------------------------------------------------


def evaluate(
    e: Expr,
    env: Mapping[str, object],
    lift: Callable[[float], object],
    apply: Callable[[str, object], object],
    inv: Callable[[object], object] = methodcaller("inv"),
    power: Callable[[object, int], object] = pow,
):
    """Evaluate e over any domain whose values have ``+ - *``.

    ``lift`` puts a constant, given as its binary64 value, into the domain;
    ``apply(name, value)`` evaluates a named function there, ``inv(y)`` is
    the reciprocal (``Div`` is ``x * inv(y)``) and ``power(x, n)`` the
    integer power.  The walk is one pass over e's plan (see _plan_of), so
    expressions of any depth evaluate: operands come before their node, left
    before right, and each node of a shared DAG (derivative trees are DAGs)
    is evaluated once per call.
    """
    vals: list = []
    put = vals.append
    # Dispatch is on the exact node type, most frequent first.
    for kind, a, b in _plan_of(e):
        if kind is Add:
            put(vals[a] + vals[b])
        elif kind is Mul:
            put(vals[a] * vals[b])
        elif kind is Sub:
            put(vals[a] - vals[b])
        elif kind is RationalConst:
            put(lift(float(a) if b is None else b))  # float(a) raises past binary64
        elif kind is IntPow:
            put(power(vals[a], b))
        elif kind is Apply:
            put(apply(b, vals[a]))
        elif kind is Variable:
            try:
                put(env[a])
            except KeyError:
                raise UnboundVariableError(a) from None
        else:  # Div
            put(vals[a] * inv(vals[b]))
    return vals[-1]


# The binary64 domain.  At exactly-known reals every LC operation is one
# binary64 operation on the single coefficient, so these hooks copy what
# LCNumber does, and they raise wherever a finite result could differ:
# LCNumber.inv rejects a non-finite reciprocal, nth_root rejects 0, and the
# LC functions raise on an inf that binary64 may map back to a finite value
# (1/inf, exp(-inf)), so every hook rejects a nan or inf argument.  Sums and
# products raise in neither domain; 0 * inf is an exact zero in LC but nan
# here, and that nan reaches the result or a hook, or is dropped where LC
# drops the zero too (x^0).

#: What a binary64 walk may raise; the LC walk then decides the outcome.
_FLOAT_WALK_ERRORS = (ArithmeticError, ValueError, LCError, TypeError)


def _float_inv(y: float) -> float:
    r = 1.0 / y  # ZeroDivisionError at 0, as LCNumber.inv
    # 0 exactly when y is infinite, nan when y is: 1/y of a finite y is
    # never 0 and never nan
    if not 0.0 < abs(r) < INF:
        raise OverflowError("non-finite reciprocal or argument")
    return r


def _float_power(x: float, n: int) -> float:
    return power(x, n, 1.0, _float_inv)


def _float_sqrt(x: float) -> float:
    if x > 0.0:
        return math.sqrt(x)
    raise NotPositiveError("nth_root of a value not visibly positive")


_FLOAT_FUNCTIONS = {
    "exp": math.exp,  # OverflowError past 709.78, where series.exp raises
    "ln": math.log,  # ValueError at x <= 0, where series.ln raises
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": _float_sqrt,
    "abs": abs,
}


def _float_apply(name: str, x: float) -> float:
    """The expression function ``name`` at the finite float x."""
    if not math.isfinite(x):
        raise OverflowError(f"{name} of a non-finite value")
    return _FLOAT_FUNCTIONS[name](x)


def eval_lc(e: Expr, env: Mapping[str, LCNumber]) -> LCNumber:
    """Evaluate over LC arguments, delegating to the field/series operations.

    Scalar arguments (int, float, Fraction) are coerced with as_lc, so the
    result is always an LCNumber.  When every argument is an exactly-known
    real, the walk runs in binary64, with results bit-identical to LC
    arithmetic.  If that walk raises or ends in a non-finite value, the LC
    walk runs, and its value or exception is the answer.
    """
    lc_env, point = {}, {}
    for name, x in env.items():
        lc_env[name] = x = as_lc(x)
        if point is not None:
            r = x.exact_real()
            if r is None:
                point = None
            else:
                point[name] = r
    if point is not None:
        try:
            value = evaluate(e, point, float, _float_apply, _float_inv, _float_power)
        except _FLOAT_WALK_ERRORS:
            pass  # the LC walk decides what is raised
        else:
            if math.isfinite(value):
                return LCNumber.from_real(value)
    return evaluate(e, lc_env, LCNumber.from_real, series.apply_elementary)


def variables(e: Expr) -> set[str]:
    """The names of the variables in e."""
    return {node.name for node in _postorder(e) if type(node) is Variable}


# -- symbolic differentiation (test oracle) ------------------------------------


def diff_symbolic(e: Expr, var: str) -> Expr:
    """Standard derivative rules with constant folding, nothing more.

    abs is rejected: it has no derivative at 0 and exists only to build
    counterexamples for the uniform-differentiability checks.  Operands are
    differentiated before their node, and each distinct subexpression once
    (derivative chains are DAGs).
    """
    derivs: dict[Expr, Expr] = {}
    for node in _postorder(e, _diff_operands):
        derivs[node] = _diff_rule(node, var, derivs)
    return derivs[e]


def _diff_operands(node: Expr) -> tuple:
    """The operands whose derivatives the rule for node reads."""
    if type(node) is Apply and node.func == "abs":
        raise NotDifferentiableError("abs has no derivative at 0")
    if type(node) is IntPow and node.exponent == 0:
        return ()
    return _operands(node)


def _diff_rule(node: Expr, var: str, d: Mapping[Expr, Expr]) -> Expr:
    """The derivative of node, given d[a] for each of its _diff_operands."""
    match node:
        case RationalConst():
            return RationalConst(_ZERO)
        case Variable(name):
            return RationalConst(_ONE if name == var else _ZERO)
        case Add(left, right):
            return _add(d[left], d[right])
        case Sub(left, right):
            return _sub(d[left], d[right])
        case Mul(left, right):
            return _add(_mul(d[left], right), _mul(left, d[right]))
        case Div(left, right):
            num = _sub(_mul(d[left], right), _mul(left, d[right]))
            return _div(num, _pow(right, 2))
        case IntPow(base, exponent):
            if exponent == 0:
                return RationalConst(_ZERO)
            if exponent == 1:
                return d[base]
            return _mul(_mul(RationalConst(exponent), _pow(base, exponent - 1)), d[base])
        case Apply("exp", arg):
            return _mul(node, d[arg])
        case Apply("ln", arg):
            return _div(d[arg], arg)
        case Apply("sin", arg):
            return _mul(Apply("cos", arg), d[arg])
        case Apply("cos", arg):
            return _neg(_mul(Apply("sin", arg), d[arg]))
        case Apply("sqrt", arg):
            return _div(d[arg], _mul(RationalConst(2), node))
