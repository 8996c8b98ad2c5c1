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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import errors, series
from .core import LCNumber, default_horizon
from .errors import LCSyntaxError, NotDifferentiableError, UnboundVariableError

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
    """Render with minimal parentheses; parse_expr(print_expr(e)) == e."""
    return _print(e, 0)


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, IntPow: 4}


def _print(e: Expr, context: int) -> str:
    if isinstance(e, RationalConst):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if v < 0 or v.denominator != 1:
            # Negative or fractional constants reparse atomically only in
            # parentheses ("1/2" would scan as a division).
            return f"({s})" if context > 0 else s
        return s
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Apply):
        return f"{e.func}({_print(e.arg, 0)})"
    if isinstance(e, IntPow):
        body = f"{_print(e.base, 5)}^{e.exponent}"
        return f"({body})" if context > 4 else body
    op, prec = {
        Add: ("+", 1),
        Sub: ("-", 1),
        Mul: ("*", 2),
        Div: ("/", 2),
    }[type(e)]
    left = _print(e.left, prec)
    right = _print(e.right, prec + 1)  # left-associative
    body = f"{left} {op} {right}"
    return f"({body})" if context > prec else body


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


def eval_lc(e: Expr, env: Mapping[str, LCNumber]) -> LCNumber:
    """Evaluate over LC arguments, delegating to the field/series operations.

    Derivative trees share subtrees heavily (they are DAGs), so results are
    memoized per node identity for the duration of one evaluation.
    """
    try:
        return _eval_lc(e, env, {})
    except RecursionError:
        raise errors.RecursionError("expression too deep for evaluation") from None


def _eval_lc(e: Expr, env: Mapping[str, LCNumber], memo: dict) -> LCNumber:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    match e:
        case RationalConst(value):
            result = LCNumber.from_real(float(value))
        case Variable(name):
            try:
                result = env[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        case Add(left, right):
            result = _eval_lc(left, env, memo) + _eval_lc(right, env, memo)
        case Sub(left, right):
            result = _eval_lc(left, env, memo) - _eval_lc(right, env, memo)
        case Mul(left, right):
            result = _eval_lc(left, env, memo) * _eval_lc(right, env, memo)
        case Div(left, right):
            result = _eval_lc(left, env, memo) * _eval_lc(right, env, memo).inv()
        case IntPow(base, exponent):
            result = _eval_lc(base, env, memo) ** exponent
        case Apply("sqrt", arg):
            result = series.nth_root(_eval_lc(arg, env, memo), 2)
        case Apply("abs", arg):
            result = abs(_eval_lc(arg, env, memo))
        case Apply(func, arg):
            result = series.apply_elementary(func, _eval_lc(arg, env, memo))
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[key] = result
    return result


def variables(e: Expr) -> set[str]:
    match e:
        case Variable(name):
            return {name}
        case RationalConst():
            return set()
        case Apply(_, arg):
            return variables(arg)
        case IntPow(base, _):
            return variables(base)
        case _:
            return variables(e.left) | variables(e.right)


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
