"""Derivative extraction by evaluating expressions on truncated jets.

A jet here is a truncated polynomial in a formal increment with LCNumber
coefficients; evaluating f on (x0 + T) and reading the coefficient of T^j
yields f^(j)(x0)/j!.  The center x0 may itself be an LC number (the
uniform-differentiability checks take jets at sampled points x0 + c*d^m),
which is why a fresh formal indeterminate is used rather than re-using d:
the probe must not collide with the center's own support.

Multivariate jets work the same way with multi-index coefficients, giving
all partials d^alpha f(x0)/alpha! for |alpha| <= k in one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import series
from .core import INF, LCNumber, ONE, Ordering, ZERO
from .errors import (
    InfiniteLimitError,
    NonJetResultError,
    NotIndeterminateError,
    NotPositiveError,
    OrderTooHighError,
    UnboundVariableError,
    ZeroDenominatorError,
)
from .expr import (
    Add,
    Apply,
    Div,
    Expr,
    IntPow,
    Mul,
    RationalConst,
    Sub,
    Variable,
    eval_lc,
)
from .series import PowerSeries


@dataclass(frozen=True)
class TaylorJet:
    """Scaled derivatives c_j = f^(j)(x0)/j! for j = 0..order."""

    center: LCNumber
    coeffs: tuple[LCNumber, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, j: int) -> LCNumber:
        if j > self.order:
            raise OrderTooHighError(f"order {j} exceeds jet order {self.order}")
        return self.coeffs[j] * float(math.factorial(j))

    def to_power_series(self) -> PowerSeries:
        return PowerSeries(self.center, self.coeffs)


@dataclass(frozen=True)
class PartialJet:
    """Scaled partials table[alpha] = d^alpha f(x0)/alpha!, |alpha| <= order."""

    center: tuple[LCNumber, ...]
    order: int
    table: dict[tuple[int, ...], LCNumber]

    @property
    def n(self) -> int:
        return len(self.center)

    def derivative(self, alpha: tuple[int, ...]) -> LCNumber:
        scale = 1.0
        for a in alpha:
            scale *= math.factorial(a)
        return self.table[alpha] * scale


# -- scaled derivative ladders of the elementary functions ---------------------


def _scaled_derivs(name: str, a0: LCNumber, k: int) -> list[LCNumber]:
    """[f(a0), f'(a0)/1!, ..., f^(k)(a0)/k!] for an elementary f."""
    if name == "exp":
        e = series.exp(a0)
        return [e * (1.0 / math.factorial(n)) for n in range(k + 1)]
    if name in ("sin", "cos"):
        s, c = series.sin(a0), series.cos(a0)
        cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        return [cycle[n % 4] * (1.0 / math.factorial(n)) for n in range(k + 1)]
    if name == "ln":
        out = [series.ln(a0)]
        if k:
            ia = a0.inv()
            p = ONE
            for n in range(1, k + 1):
                p = p * ia
                out.append(p * ((1.0 if n % 2 else -1.0) / n))
        return out
    if name == "sqrt":
        sign = a0.compare(ZERO)
        if sign is Ordering.EQUAL_AT_HORIZON:
            raise NonJetResultError(
                "sqrt at a point indistinguishable from 0 has no polynomial jet"
            )
        if sign is Ordering.LESS:
            raise NotPositiveError("sqrt of a negative value")
        out = [series.nth_root(a0, 2)]
        if k:
            ia = a0.inv()
            cur = out[0]
            for n in range(1, k + 1):
                cur = cur * ia * ((0.5 - (n - 1)) / n)
                out.append(cur)
        return out
    raise ValueError(f"unknown elementary function {name!r}")


# -- one-variable jets ----------------------------------------------------------


class _Jet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[LCNumber]):
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: LCNumber, k: int) -> "_Jet":
        return cls([value] + [ZERO] * k)

    @classmethod
    def variable(cls, x0: LCNumber, k: int) -> "_Jet":
        c = [x0] + [ZERO] * k
        if k >= 1:
            c[1] = ONE
        return cls(c)

    def const_like(self, value: float) -> "_Jet":
        return _Jet.constant(LCNumber.from_real(value), self.order)

    def add(self, other: "_Jet") -> "_Jet":
        return _Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def sub(self, other: "_Jet") -> "_Jet":
        return _Jet([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def neg(self) -> "_Jet":
        return _Jet([-a for a in self.coeffs])

    def mul(self, other: "_Jet") -> "_Jet":
        k = self.order
        out = [ZERO] * (k + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return _Jet(out)

    def int_pow(self, n: int) -> "_Jet":
        if n < 0:
            return self.inv().int_pow(-n)
        result = _Jet.constant(ONE, self.order)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def inv(self) -> "_Jet":
        a = self.coeffs
        b0 = a[0].inv()
        b = [b0]
        for m in range(1, len(a)):
            s = ZERO
            for i in range(1, m + 1):
                if a[i] and b[m - i]:
                    s = s + a[i] * b[m - i]
            b.append(-(b0 * s))
        return _Jet(b)

    def compose(self, derivs: list[LCNumber]) -> "_Jet":
        # Horner in the nilpotent part g = self - a0.
        g = _Jet([ZERO] + self.coeffs[1:])
        result = _Jet.constant(derivs[-1], self.order)
        for n in range(len(derivs) - 2, -1, -1):
            result = result.mul(g)
            result.coeffs[0] = result.coeffs[0] + derivs[n]
        return result

    def apply(self, name: str) -> "_Jet":
        if name == "abs":
            sign = self.coeffs[0].compare(ZERO)
            if sign is Ordering.GREATER:
                return self
            if sign is Ordering.LESS:
                return self.neg()
            raise NonJetResultError(
                "abs at a point indistinguishable from 0 has no polynomial jet"
            )
        return self.compose(_scaled_derivs(name, self.coeffs[0], self.order))


# -- multivariate jets ----------------------------------------------------------


def multi_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length n with total degree <= k."""
    if n == 1:
        return [(j,) for j in range(k + 1)]
    out = []
    for head in range(k + 1):
        for rest in multi_indices(n - 1, k - head):
            out.append((head,) + rest)
    return out


class _JetN:
    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: dict[tuple[int, ...], LCNumber]):
        self.n = n
        self.k = k
        self.coeffs = coeffs  # sparse: missing keys are ZERO

    @classmethod
    def constant(cls, value: LCNumber, n: int, k: int) -> "_JetN":
        return cls(n, k, {(0,) * n: value})

    @classmethod
    def variable(cls, x0: LCNumber, index: int, n: int, k: int) -> "_JetN":
        unit = tuple(1 if i == index else 0 for i in range(n))
        coeffs = {(0,) * n: x0}
        if k >= 1:
            coeffs[unit] = ONE
        return cls(n, k, coeffs)

    def const_like(self, value: float) -> "_JetN":
        return _JetN.constant(LCNumber.from_real(value), self.n, self.k)

    def _c0(self) -> LCNumber:
        return self.coeffs.get((0,) * self.n, ZERO)

    def add(self, other: "_JetN") -> "_JetN":
        out = dict(self.coeffs)
        for key, b in other.coeffs.items():
            out[key] = out.get(key, ZERO) + b
        return _JetN(self.n, self.k, out)

    def sub(self, other: "_JetN") -> "_JetN":
        return self.add(other.neg())

    def neg(self) -> "_JetN":
        return _JetN(self.n, self.k, {key: -a for key, a in self.coeffs.items()})

    def mul(self, other: "_JetN") -> "_JetN":
        k = self.k
        out: dict[tuple[int, ...], LCNumber] = {}
        for alpha, a in self.coeffs.items():
            if not a:
                continue
            da = sum(alpha)
            for beta, b in other.coeffs.items():
                if not b or da + sum(beta) > k:
                    continue
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                out[gamma] = out.get(gamma, ZERO) + a * b
        return _JetN(self.n, self.k, out)

    def int_pow(self, n: int) -> "_JetN":
        if n < 0:
            return self.inv().int_pow(-n)
        result = _JetN.constant(ONE, self.n, self.k)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def inv(self) -> "_JetN":
        zero_key = (0,) * self.n
        b0 = self._c0().inv()
        out = {zero_key: b0}
        nonconst = {
            alpha: a
            for alpha, a in self.coeffs.items()
            if alpha != zero_key and a
        }
        for gamma in sorted(multi_indices(self.n, self.k), key=sum):
            if gamma == zero_key:
                continue
            s = ZERO
            for beta, a in nonconst.items():
                rest = tuple(g - bb for g, bb in zip(gamma, beta))
                if any(r < 0 for r in rest):
                    continue
                br = out.get(rest, ZERO)
                if br:
                    s = s + a * br
            if s:
                out[gamma] = -(b0 * s)
        return _JetN(self.n, self.k, out)

    def compose(self, derivs: list[LCNumber]) -> "_JetN":
        zero_key = (0,) * self.n
        g = _JetN(
            self.n,
            self.k,
            {a: c for a, c in self.coeffs.items() if a != zero_key},
        )
        result = _JetN.constant(derivs[-1], self.n, self.k)
        for m in range(len(derivs) - 2, -1, -1):
            result = result.mul(g)
            result.coeffs[zero_key] = result.coeffs.get(zero_key, ZERO) + derivs[m]
        return result

    def apply(self, name: str) -> "_JetN":
        if name == "abs":
            sign = self._c0().compare(ZERO)
            if sign is Ordering.GREATER:
                return self
            if sign is Ordering.LESS:
                return self.neg()
            raise NonJetResultError(
                "abs at a point indistinguishable from 0 has no polynomial jet"
            )
        return self.compose(_scaled_derivs(name, self._c0(), self.k))


# -- expression evaluation on jets ----------------------------------------------


def _eval_on_jets(e: Expr, env: Mapping[str, object]):
    match e:
        case RationalConst(value):
            proto = next(iter(env.values()))
            return proto.const_like(float(value))
        case Variable(name):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        case Add(left, right):
            return _eval_on_jets(left, env).add(_eval_on_jets(right, env))
        case Sub(left, right):
            return _eval_on_jets(left, env).sub(_eval_on_jets(right, env))
        case Mul(left, right):
            return _eval_on_jets(left, env).mul(_eval_on_jets(right, env))
        case Div(left, right):
            return _eval_on_jets(left, env).mul(_eval_on_jets(right, env).inv())
        case IntPow(base, exponent):
            return _eval_on_jets(base, env).int_pow(exponent)
        case Apply(func, arg):
            return _eval_on_jets(arg, env).apply(func)
    raise TypeError(f"not an expression node: {e!r}")


# -- public operations -----------------------------------------------------------


def taylor_jet(f: Expr, var: str, x0, k: int) -> TaylorJet:
    """Taylor coefficients f^(j)(x0)/j! for j = 0..k by jet evaluation.

    The center's horizon must reach past the jet order (a center only known
    below exponent h cannot support k+1 distinguishable derivative scales).
    """
    x0 = _as_lc(x0)
    if k < 0:
        raise ValueError("jet order must be >= 0")
    if x0.horizon != INF and x0.horizon < k + 1:
        raise OrderTooHighError(
            f"jet order {k} needs center horizon >= {k + 1}, have {x0.horizon}"
        )
    jet = _eval_on_jets(f, {var: _Jet.variable(x0, k)})
    return TaylorJet(x0, tuple(jet.coeffs))


def derivative_at(f: Expr, var: str, x0, j: int) -> LCNumber:
    """The j-th derivative f^(j)(x0) = j! * (jet coefficient j)."""
    return taylor_jet(f, var, x0, j).derivative(j)


def partial_jet(f: Expr, vars: Sequence[str], x0: Sequence, k: int) -> PartialJet:
    """All scaled partials d^alpha f(x0)/alpha! with |alpha| <= k.

    One multivariate jet evaluation produces the full table; mixed partials
    are symmetric by construction.
    """
    names = list(vars)
    center = tuple(_as_lc(c) for c in x0)
    if len(names) != len(center):
        raise ValueError("vars and x0 must have the same length")
    if not names:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("jet order must be >= 0")
    for c in center:
        if c.horizon != INF and c.horizon < k + 1:
            raise OrderTooHighError(
                f"jet order {k} needs center horizon >= {k + 1}, have {c.horizon}"
            )
    n = len(names)
    env = {
        name: _JetN.variable(center[i], i, n, k) for i, name in enumerate(names)
    }
    jet = _eval_on_jets(f, env)
    table = {alpha: jet.coeffs.get(alpha, ZERO) for alpha in multi_indices(n, k)}
    return PartialJet(center, k, table)


def directional_power(pj: PartialJet, v: Sequence, j: int) -> LCNumber:
    """The j-th directional Taylor operator along v applied at the center.

    Equals j! * sum over |alpha| = j of table[alpha] * prod(v_i^alpha_i),
    i.e. the fully expanded ((v . grad))^j f(x0) by the multinomial theorem.
    """
    if j > pj.order:
        raise OrderTooHighError(f"order {j} exceeds jet order {pj.order}")
    vec = [_as_lc(c) for c in v]
    if len(vec) != pj.n:
        raise ValueError(f"direction has {len(vec)} components, expected {pj.n}")
    powers = []
    for comp in vec:
        ladder = [ONE]
        for _ in range(j):
            ladder.append(ladder[-1] * comp)
        powers.append(ladder)
    total = ZERO
    for alpha, coeff in pj.table.items():
        if sum(alpha) != j or not coeff:
            continue
        prod = coeff
        for i, a in enumerate(alpha):
            if a:
                prod = prod * powers[i][a]
        total = total + prod
    return total * float(math.factorial(j))


def partial_taylor_eval(pj: PartialJet, v: Sequence, k: int) -> LCNumber:
    """sum(table[alpha] * v^alpha) over |alpha| <= k.

    Equals f(x0) + sum((1/j!) * directional_power(pj, v, j), j = 1..k) with
    the factorials cancelled, in a single pass over the table.
    """
    if k > pj.order:
        raise OrderTooHighError(f"order {k} exceeds jet order {pj.order}")
    vec = [_as_lc(c) for c in v]
    powers = []
    for comp in vec:
        ladder = [ONE]
        for _ in range(k):
            ladder.append(ladder[-1] * comp)
        powers.append(ladder)
    total = ZERO
    for alpha, coeff in pj.table.items():
        if sum(alpha) > k or not coeff:
            continue
        prod = coeff
        for i, a in enumerate(alpha):
            if a:
                prod = prod * powers[i][a]
                if not prod:
                    break
        if prod:
            total = total + prod
    return total


def taylor_polynomial_eval(jet: TaylorJet, y, k: int) -> LCNumber:
    """Evaluate the degree-k Taylor polynomial of the jet at y (Horner)."""
    if k > jet.order:
        raise OrderTooHighError(f"order {k} exceeds jet order {jet.order}")
    delta = _as_lc(y) - jet.center
    result = jet.coeffs[k]
    for j in range(k - 1, -1, -1):
        result = result * delta + jet.coeffs[j]
    return result


def lhopital_limit(f: Expr, g: Expr, var: str, a) -> LCNumber:
    """lim f/g at a for the 0/0 case, read off from f(a+d)/g(a+d).

    The quotient's valuation classifies the limit: positive means 0, zero
    means the finite limit (its real part), negative means infinitely large.
    """
    a = _as_lc(a)
    fa = eval_lc(f, {var: a})
    ga = eval_lc(g, {var: a})
    if fa or ga:
        raise NotIndeterminateError("f and g must both vanish at the point")
    from .core import D

    x = a + D
    fe = eval_lc(f, {var: x})
    ge = eval_lc(g, {var: x})
    if not ge:
        raise ZeroDenominatorError("denominator vanishes at a + d")
    q = fe * ge.inv()
    if not q:
        return ZERO
    lam = q.valuation()
    if lam > 0:
        return ZERO
    if lam == 0:
        return LCNumber.from_real(q.real_part())
    raise InfiniteLimitError(f"quotient has valuation {lam} < 0")


def _as_lc(x) -> LCNumber:
    coerced = LCNumber._coerce(x)
    if coerced is None:
        raise TypeError(f"expected an LC number, got {type(x).__name__}")
    return coerced
