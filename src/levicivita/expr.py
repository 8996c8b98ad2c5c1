"""Expression ASTs over real constants, parsing, and LC evaluation.

Expression grammar (parse_expr), standard precedence ^ > unary- > * / > + -,
left-associative binary + - * /, right-associative ^, function application
by name:

    expr   := add
    add    := mul (('+'|'-') mul)*
    mul    := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?        # exponent must fold to an integer
    atom   := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

LC literal grammar (parse_lc), producing numbers with the default horizon:

    number   := ('+'|'-')? term (('+'|'-') term)*
    term     := coeff | coeff? 'd' ('^' exponent)?
    coeff    := decimal or fraction, e.g. 2, -3.5, 7/2
    exponent := integer | decimal | '(' integer '/' integer ')'

Constants are parsed exactly as rationals and converted to binary64 once,
at evaluation.  Coefficients additionally accept scientific notation so
that printed binary64 values round-trip bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Callable, Mapping, Union

from . import series
from .core import LCNumber, default_horizon
from .errors import (
    LCError,
    LCSyntaxError,
    NotDifferentiableError,
    NotPositiveError,
    UnboundVariableError,
)

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")

#: Deepest nesting of parentheses, calls, unary minus and exponents that
#: parse_expr accepts; each level costs the recursive parser several frames.
MAX_NESTING = 100


@dataclass(frozen=True)
class RationalConst:
    value: Fraction


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class IntPow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Apply:
    func: str  # one of FUNCTIONS
    arg: "Expr"

    def __post_init__(self):
        if self.func not in FUNCTIONS:
            raise ValueError(f"unknown function {self.func!r}")


Expr = Union[RationalConst, Variable, Add, Sub, Mul, Div, IntPow, Apply]


def const(value) -> RationalConst:
    return RationalConst(Fraction(value))


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


# -- expression parser ---------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise LCSyntaxError("unexpected input", self.pos, (ch,))
        self.pos += 1

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or self.text[start] == ".":
            raise LCSyntaxError("expected a number", start, ("number",))
        return Fraction(self.text[start : self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises LCSyntaxError with the byte offset."""
    sc = _Scanner(text)
    e = _parse_add(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise LCSyntaxError("trailing input", sc.pos, ("end of input",))
    return e


def _parse_add(sc: _Scanner) -> Expr:
    e = _parse_mul(sc)
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take()
            e = _add(e, _parse_mul(sc))
        elif ch == "-":
            sc.take()
            e = _sub(e, _parse_mul(sc))
        else:
            return e


def _parse_mul(sc: _Scanner) -> Expr:
    e = _parse_unary(sc)
    while True:
        ch = sc.peek()
        if ch == "*":
            sc.take()
            e = _mul(e, _parse_unary(sc))
        elif ch == "/":
            sc.take()
            e = _div(e, _parse_unary(sc))
        else:
            return e


def _parse_unary(sc: _Scanner) -> Expr:
    # Every nesting level (parenthesis, call, unary minus, exponent) passes
    # through here, so this is where the depth is bounded.
    if sc.depth >= MAX_NESTING:
        raise LCSyntaxError(
            f"expression nested deeper than {MAX_NESTING} levels", sc.pos
        )
    sc.depth += 1
    try:
        if sc.peek() == "-":
            sc.take()
            return _neg(_parse_unary(sc))
        return _parse_power(sc)
    finally:
        sc.depth -= 1


def _parse_power(sc: _Scanner) -> Expr:
    base = _parse_atom(sc)
    if sc.peek() != "^":
        return base
    op_pos = sc.pos
    sc.take()
    exponent = _parse_unary(sc)  # right-associative; unary allows -2, 2^3
    if not isinstance(exponent, RationalConst) or exponent.value.denominator != 1:
        raise LCSyntaxError("integer exponent required", op_pos, ("integer",))
    n = int(exponent.value)
    if isinstance(base, RationalConst) and (base.value != 0 or n >= 0):
        return RationalConst(base.value**n)
    return IntPow(base, n)


def _parse_atom(sc: _Scanner) -> Expr:
    ch = sc.peek()
    if ch == "(":
        sc.take()
        e = _parse_add(sc)
        sc.expect(")")
        return e
    if ch.isdigit() or ch == ".":
        return RationalConst(sc.number())
    if ch.isalpha() or ch == "_":
        name = sc.name()
        if sc.peek() == "(":
            if name not in FUNCTIONS:
                raise LCSyntaxError(
                    f"unknown function {name!r}", sc.pos, FUNCTIONS
                )
            sc.take()
            arg = _parse_add(sc)
            sc.expect(")")
            return Apply(name, arg)
        return Variable(name)
    raise LCSyntaxError(
        "unexpected input", sc.pos, ("number", "name", "(", "-")
    )


def print_expr(e: Expr) -> str:
    """Render with minimal parentheses; parse_expr(print_expr(e)) == e.

    An explicit-stack walk, as ``variables``: each operator node is visited
    once to schedule its operands (left last, so it renders first) and once
    more to join their renderings, parenthesised where its context binds
    tighter.
    """
    rendered: list[str] = []
    stack = [(e, 0, False)]
    while stack:
        node, context, joining = stack.pop()
        kind = type(node)
        if kind is RationalConst:
            rendered.append(_print_const(node.value, context))
        elif kind is Variable:
            rendered.append(node.name)
        elif kind not in _PREC and kind is not Apply:
            raise TypeError(f"not an expression node: {node!r}")
        elif not joining:
            stack.append((node, context, True))
            if kind is Apply:
                stack.append((node.arg, 0, False))
            elif kind is IntPow:
                stack.append((node.base, 5, False))
            else:
                prec = _PREC[kind]
                stack.append((node.right, prec + 1, False))  # left-associative
                stack.append((node.left, prec, False))
        elif kind is Apply:
            rendered.append(f"{node.func}({rendered.pop()})")
        else:
            if kind is IntPow:
                body = f"{rendered.pop()}^{node.exponent}"
            else:
                right = rendered.pop()
                body = f"{rendered.pop()} {_OP[kind]} {right}"
            rendered.append(f"({body})" if context > _PREC[kind] else body)
    return rendered[0]


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, IntPow: 4}
_OP = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _print_const(v: Fraction, context: int) -> str:
    s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if v < 0 or v.denominator != 1:
        # Negative or fractional constants reparse atomically only in
        # parentheses ("1/2" would scan as a division).
        return f"({s})" if context > 0 else s
    return s


# -- LC literal parser ---------------------------------------------------------


def parse_lc(text: str) -> LCNumber:
    """Parse an LC literal such as ``2 + 3d^(1/2) - d^2`` or ``d^-1``.

    Literals with d-terms carry the configurable default horizon (they
    denote truncated expansions); pure real literals, including ``0``, are
    exactly known and carry an infinite horizon.
    """
    sc = _Scanner(text)
    terms: list[tuple[Fraction, float]] = []
    sign = 1.0
    ch = sc.peek()
    if ch in "+-":
        sc.take()
        sign = -1.0 if ch == "-" else 1.0
    terms.append(_parse_lc_term(sc, sign))
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take()
            terms.append(_parse_lc_term(sc, 1.0))
        elif ch == "-":
            sc.take()
            terms.append(_parse_lc_term(sc, -1.0))
        elif ch == "":
            break
        else:
            raise LCSyntaxError("unexpected input", sc.pos, ("+", "-", "end"))
    if all(e == 0 for e, _ in terms):
        return LCNumber(terms)
    return LCNumber(terms, default_horizon())


def _parse_lc_term(sc: _Scanner, sign: float) -> tuple[Fraction, float]:
    ch = sc.peek()
    coeff = 1.0
    have_coeff = False
    if ch.isdigit() or ch == ".":
        coeff = _parse_lc_coeff(sc)
        have_coeff = True
        if sc.peek() == "/":  # fraction coefficient, e.g. 7/2
            sc.take()
            denom = _parse_lc_coeff(sc)
            if denom == 0.0:
                raise LCSyntaxError("zero denominator", sc.pos)
            coeff /= denom
        ch = sc.peek()
    if ch == "d":
        sc.take()
        exponent = Fraction(1)
        if sc.peek() == "^":
            sc.take()
            exponent = _parse_lc_exponent(sc)
        return (exponent, sign * coeff)
    if not have_coeff:
        raise LCSyntaxError("expected a coefficient or 'd'", sc.pos, ("coeff", "d"))
    return (Fraction(0), sign * coeff)


def _parse_lc_coeff(sc: _Scanner) -> float:
    sc.skip_ws()
    start = sc.pos
    text = sc.text
    while sc.pos < len(text) and text[sc.pos].isdigit():
        sc.pos += 1
    if sc.pos < len(text) and text[sc.pos] == ".":
        sc.pos += 1
        while sc.pos < len(text) and text[sc.pos].isdigit():
            sc.pos += 1
    # Scientific notation: superset of the plain-decimal grammar so that
    # printed binary64 coefficients round-trip.
    if sc.pos < len(text) and text[sc.pos] in "eE":
        mark = sc.pos
        sc.pos += 1
        if sc.pos < len(text) and text[sc.pos] in "+-":
            sc.pos += 1
        if sc.pos < len(text) and text[sc.pos].isdigit():
            while sc.pos < len(text) and text[sc.pos].isdigit():
                sc.pos += 1
        else:
            sc.pos = mark
    if sc.pos == start:
        raise LCSyntaxError("expected a coefficient", start, ("number",))
    return float(text[start : sc.pos])


def _parse_lc_exponent(sc: _Scanner) -> Fraction:
    ch = sc.peek()
    if ch == "(":
        sc.take()
        neg = False
        if sc.peek() == "-":
            sc.take()
            neg = True
        num = sc.number()
        sc.expect("/")
        den = sc.number()
        sc.expect(")")
        if den == 0:
            raise LCSyntaxError("zero exponent denominator", sc.pos)
        value = Fraction(num, 1) / den
        return -value if neg else value
    neg = False
    if ch == "-":
        sc.take()
        neg = True
    value = sc.number()  # integer or decimal, exact
    return -value if neg else value


# -- evaluation ----------------------------------------------------------------

#: Marks an operand with no value yet; None is a value like any other.
_MISSING = object()


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
    integer power.  The walk keeps an explicit stack, so expressions of any
    depth evaluate: operands come before their node, left before right, and
    each node of a shared DAG (derivative trees are DAGs) is evaluated once
    per call.
    """
    vals: dict[int, object] = {}
    get = vals.get
    stack = [e]
    # Dispatch is on the exact node type; class patterns cost more per node.
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
                # the right operand goes first, so the left is on top
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


# The binary64 domain.  At exactly-known reals every LC operation is one
# binary64 operation on the single coefficient, so these hooks copy what
# LCNumber does, and they raise, or leave a nan that reaches the result,
# wherever it differs: LCNumber.inv rejects a non-finite reciprocal,
# nth_root rejects 0, and 0 * inf is an exact zero in LC but nan here.


def _float_inv(y: float) -> float:
    r = 1.0 / y  # ZeroDivisionError at 0, as LCNumber.inv
    if not math.isfinite(r):
        raise OverflowError("non-finite reciprocal")
    return r


def _float_power(x: float, n: int) -> float:
    # LCNumber.__pow__: square-and-multiply, after one inversion if n < 0.
    if n == 0:
        return 1.0 if x == x else x  # a nan must still reach the result
    if n < 0:
        x, n = _float_inv(x), -n
    result = 1.0
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _float_sqrt(x: float) -> float:
    if x > 0.0:
        return math.sqrt(x)
    raise NotPositiveError("nth_root of a value not visibly positive")


_FLOAT_FUNCTIONS = {
    "exp": math.exp,
    "ln": math.log,  # ValueError at x <= 0, where series.ln raises
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": _float_sqrt,
    "abs": abs,
}


def _float_apply(name: str, x: float) -> float:
    return _FLOAT_FUNCTIONS[name](x)


def eval_lc(e: Expr, env: Mapping[str, LCNumber]) -> LCNumber:
    """Evaluate over LC arguments, delegating to the field/series operations.

    When every argument is an exactly-known real, the walk runs in binary64,
    with results bit-identical to LC arithmetic.  If that walk raises or
    ends in a non-finite value, the LC walk runs, and its value or exception
    is the answer.
    """
    point = {}
    for name, x in env.items():
        c = x.exact_real() if isinstance(x, LCNumber) else None
        if c is None:
            break
        point[name] = c
    else:
        try:
            value = evaluate(e, point, float, _float_apply, _float_inv, _float_power)
        except (ArithmeticError, ValueError, LCError, TypeError):
            pass  # the LC walk decides what is raised
        else:
            if math.isfinite(value):
                return LCNumber.from_real(value)
    return evaluate(e, env, LCNumber.from_real, series.apply_elementary)


def variables(e: Expr) -> set[str]:
    """The names of the variables in e; an explicit-stack walk, as evaluate."""
    names: set[str] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node)
        if kind is Variable:
            names.add(node.name)
        elif kind is Apply:
            stack.append(node.arg)
        elif kind is IntPow:
            stack.append(node.base)
        elif kind is Add or kind is Sub or kind is Mul or kind is Div:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is not RationalConst:
            raise TypeError(f"not an expression node: {node!r}")
    return names


# -- symbolic differentiation (test oracle) ------------------------------------


def diff_symbolic(e: Expr, var: str) -> Expr:
    """Standard derivative rules with constant folding, nothing more.

    abs is rejected: it has no derivative at 0 and exists only to build
    counterexamples for the uniform-differentiability checks.  Shared
    subtrees are differentiated once (derivative chains are DAGs).
    """
    return _diff(e, var, {})


def _diff(e: Expr, var: str, memo: dict) -> Expr:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    match e:
        case RationalConst():
            result = RationalConst(_ZERO)
        case Variable(name):
            result = RationalConst(_ONE if name == var else _ZERO)
        case Add(left, right):
            result = _add(_diff(left, var, memo), _diff(right, var, memo))
        case Sub(left, right):
            result = _sub(_diff(left, var, memo), _diff(right, var, memo))
        case Mul(left, right):
            result = _add(
                _mul(_diff(left, var, memo), right),
                _mul(left, _diff(right, var, memo)),
            )
        case Div(left, right):
            num = _sub(
                _mul(_diff(left, var, memo), right),
                _mul(left, _diff(right, var, memo)),
            )
            result = _div(num, IntPow(right, 2))
        case IntPow(base, exponent):
            if exponent == 0:
                result = RationalConst(_ZERO)
            else:
                inner = _diff(base, var, memo)
                if exponent == 1:
                    result = inner
                else:
                    result = _mul(
                        _mul(const(exponent), IntPow(base, exponent - 1)), inner
                    )
        case Apply("exp", arg):
            result = _mul(Apply("exp", arg), _diff(arg, var, memo))
        case Apply("ln", arg):
            result = _div(_diff(arg, var, memo), arg)
        case Apply("sin", arg):
            result = _mul(Apply("cos", arg), _diff(arg, var, memo))
        case Apply("cos", arg):
            result = _neg(_mul(Apply("sin", arg), _diff(arg, var, memo)))
        case Apply("sqrt", arg):
            result = _div(
                _diff(arg, var, memo), _mul(const(2), Apply("sqrt", arg))
            )
        case Apply("abs", _):
            raise NotDifferentiableError("abs has no derivative at 0")
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[key] = result
    return result
