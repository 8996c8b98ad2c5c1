"""Derivative extraction by evaluating expressions on truncated jets.

A jet here is a truncated polynomial in a formal increment with LCNumber
coefficients; evaluating f on (x0 + T) and reading the coefficient of T^j
yields f^(j)(x0)/j!.  The center x0 may itself be an LC number (the
uniform-differentiability checks take jets at sampled points x0 + c*d^m),
which is why a fresh formal indeterminate is used rather than re-using d:
the probe must not collide with the center's own support.

Multivariate jets work the same way with multi-index coefficients, giving
all partials d^alpha f(x0)/alpha! for |alpha| <= k in one evaluation; the
one-variable jet is their n = 1 case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from . import series
from .core import INF, LCNumber, ONE, Ordering, ZERO, as_lc
from .errors import (
    InfiniteLimitError,
    NonJetResultError,
    NotIndeterminateError,
    NotPositiveError,
    OrderTooHighError,
    ZeroDenominatorError,
)
from .expr import Expr, eval_lc, evaluate
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
        s, c = series._sin_cos(a0)
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


# -- jets ------------------------------------------------------------------------


def multi_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length n with total degree <= k."""
    if n == 1:
        return [(j,) for j in range(k + 1)]
    out = []
    for head in range(k + 1):
        for rest in multi_indices(n - 1, k - head):
            out.append((head,) + rest)
    return out


class _Layout(NamedTuple):
    """Index tables of a jet in n increments truncated at total degree k.

    Coefficient p of a jet belongs to ``indices[p]``; the indices are in
    graded order, so every index comes after all indices of lower degree.
    """

    n: int
    k: int
    indices: tuple[tuple[int, ...], ...]
    mul: tuple  # mul[p] = ((q, r), ...): indices[p] + indices[q] = indices[r]
    inv: tuple  # inv[r] = ((p, q), ...): the same with p != 0, in p order
    parent: tuple  # parent[p] = (q, i), p != 0: indices[q] + e_i = indices[p]


@functools.cache
def _layout(n: int, k: int) -> _Layout:
    indices = tuple(sorted(multi_indices(n, k), key=sum))
    pos = {alpha: p for p, alpha in enumerate(indices)}
    # upto[d] indices have degree <= d: a graded prefix
    upto = {sum(alpha): p + 1 for p, alpha in enumerate(indices)}
    mul = tuple(
        tuple(
            (q, pos[tuple(x + y for x, y in zip(a, b))])
            for q, b in enumerate(indices[: upto[k - sum(a)]])
        )
        for a in indices
    )
    inv = tuple(
        tuple(
            (p, pos[tuple(x - y for x, y in zip(g, b))])
            for p, b in enumerate(indices[: upto[sum(g)]])
            if p and all(y <= x for x, y in zip(g, b))
        )
        for g in indices
    )
    parent = [None]
    for alpha in indices[1:]:
        i = next(i for i, a in enumerate(alpha) if a)  # first nonzero exponent
        parent.append((pos[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]], i))
    return _Layout(n, k, indices, mul, inv, tuple(parent))


class _Jet:
    """A truncated Taylor polynomial in n formal increments (dense, graded).

    With n = 1 the tables reduce to the triangular loops of univariate jet
    arithmetic, in the same operation order.
    """

    __slots__ = ("layout", "c")

    def __init__(self, layout: _Layout, c: list[LCNumber]):
        self.layout = layout
        self.c = c

    @classmethod
    def constant(cls, value: LCNumber, layout: _Layout) -> "_Jet":
        return cls(layout, [value] + [ZERO] * (len(layout.indices) - 1))

    @classmethod
    def variable(cls, x0: LCNumber, index: int, layout: _Layout) -> "_Jet":
        jet = cls.constant(x0, layout)
        if layout.k >= 1:
            unit = tuple(int(i == index) for i in range(layout.n))
            jet.c[layout.indices.index(unit)] = ONE
        return jet

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.layout, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.layout, [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self) -> "_Jet":
        return _Jet(self.layout, [-a for a in self.c])

    def __mul__(self, other: "_Jet") -> "_Jet":
        out = [ZERO] * len(self.c)
        b = other.c
        for a, row in zip(self.c, self.layout.mul):
            if not a:
                continue
            for q, r in row:
                bq = b[q]
                if bq:
                    out[r] = out[r] + a * bq
        return _Jet(self.layout, out)

    def __pow__(self, n: int) -> "_Jet":
        if n < 0:
            return self.inv() ** -n
        result = _Jet.constant(ONE, self.layout)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inv(self) -> "_Jet":
        a = self.c
        b0 = a[0].inv()
        b = [b0]
        for row in self.layout.inv[1:]:
            s = ZERO
            for p, q in row:
                if a[p] and b[q]:
                    s = s + a[p] * b[q]
            b.append(-(b0 * s))
        return _Jet(self.layout, b)

    def compose(self, derivs: list[LCNumber]) -> "_Jet":
        # Horner in the nilpotent part g = self - a0.
        g = _Jet(self.layout, [ZERO] + self.c[1:])
        result = _Jet.constant(derivs[-1], self.layout)
        for d in reversed(derivs[:-1]):
            result = result * g
            result.c[0] = result.c[0] + d
        return result

    def apply(self, name: str) -> "_Jet":
        if name == "abs":
            sign = self.c[0].compare(ZERO)
            if sign is Ordering.GREATER:
                return self
            if sign is Ordering.LESS:
                return -self
            raise NonJetResultError(
                "abs at a point indistinguishable from 0 has no polynomial jet"
            )
        return self.compose(_scaled_derivs(name, self.c[0], self.layout.k))


# -- public operations -----------------------------------------------------------


def _jet_at(f: Expr, names: Sequence[str], center: tuple, k: int) -> list[LCNumber]:
    """Coefficients of f's jet at center, in the graded order of _layout."""
    if k < 0:
        raise ValueError("jet order must be >= 0")
    # A center only known below exponent h cannot support k+1 distinguishable
    # derivative scales.
    for c in center:
        if c.horizon != INF and c.horizon < k + 1:
            raise OrderTooHighError(
                f"jet order {k} needs center horizon >= {k + 1}, have {c.horizon}"
            )
    layout = _layout(len(names), k)
    env = {
        name: _Jet.variable(c, i, layout) for i, (name, c) in enumerate(zip(names, center))
    }
    return evaluate(
        f,
        env,
        lambda c: _Jet.constant(LCNumber.from_real(c), layout),
        lambda name, jet: jet.apply(name),
    ).c


def taylor_jet(f: Expr, var: str, x0, k: int) -> TaylorJet:
    """Taylor coefficients f^(j)(x0)/j! for j = 0..k by jet evaluation.

    The center's horizon must reach past the jet order.
    """
    x0 = as_lc(x0)
    return TaylorJet(x0, tuple(_jet_at(f, [var], (x0,), k)))


def derivative_at(f: Expr, var: str, x0, j: int) -> LCNumber:
    """The j-th derivative f^(j)(x0) = j! * (jet coefficient j)."""
    return taylor_jet(f, var, x0, j).derivative(j)


def partial_jet(f: Expr, vars: Sequence[str], x0: Sequence, k: int) -> PartialJet:
    """All scaled partials d^alpha f(x0)/alpha! with |alpha| <= k.

    One multivariate jet evaluation produces the full table; mixed partials
    are symmetric by construction.  With one variable the table holds
    exactly the coefficients of ``taylor_jet``.
    """
    names = list(vars)
    center = tuple(as_lc(c) for c in x0)
    if len(names) != len(center):
        raise ValueError("vars and x0 must have the same length")
    if not names:
        raise ValueError("need at least one variable")
    coeffs = _jet_at(f, names, center, k)
    return PartialJet(center, k, dict(zip(_layout(len(names), k).indices, coeffs)))


@functools.cache
def _horner_plan(n: int, k: int) -> tuple:
    """Nested Horner schedule for the multi-indices of degree <= k.

    Level i lists a_i from k - (a_1 + ... + a_{i-1}) down to 0; each entry
    is the plan of the next level, or at the last level the multi-index.
    """

    def level(prefix: tuple, r: int) -> tuple:
        if len(prefix) == n - 1:
            return tuple(prefix + (a,) for a in range(r, -1, -1))
        return tuple(level(prefix + (a,), r - a) for a in range(r, -1, -1))

    return level((), k)


def _horner(table: Mapping, plan: tuple, v: Sequence[LCNumber], i: int = 0) -> LCNumber:
    last = i == len(v) - 1
    result = None
    for entry in plan:
        term = table[entry] if last else _horner(table, entry, v, i + 1)
        result = term if result is None else result * v[i] + term
    return result


def _direction(pj: PartialJet, v: Sequence) -> list[LCNumber]:
    vec = [as_lc(c) for c in v]
    if len(vec) != pj.n:
        raise ValueError(f"direction has {len(vec)} components, expected {pj.n}")
    return vec


def directional_power(pj: PartialJet, v: Sequence, j: int) -> LCNumber:
    """The j-th directional Taylor operator along v applied at the center.

    Equals j! * sum over |alpha| = j of table[alpha] * prod(v_i^alpha_i),
    i.e. the fully expanded ((v . grad))^j f(x0) by the multinomial theorem.
    """
    if j > pj.order:
        raise OrderTooHighError(f"order {j} exceeds jet order {pj.order}")
    vec = _direction(pj, v)
    degree_j = {a: (c if sum(a) == j else ZERO) for a, c in pj.table.items()}
    return _horner(degree_j, _horner_plan(pj.n, j), vec) * float(math.factorial(j))


def partial_taylor_eval(pj: PartialJet, v: Sequence, k: int) -> LCNumber:
    """sum(table[alpha] * v^alpha) over |alpha| <= k, by nested Horner.

    Equals f(x0) + sum((1/j!) * directional_power(pj, v, j), j = 1..k) with
    the factorials cancelled.  With one variable it performs exactly the
    operations of ``taylor_polynomial_eval``.
    """
    if k > pj.order:
        raise OrderTooHighError(f"order {k} exceeds jet order {pj.order}")
    return _horner(pj.table, _horner_plan(pj.n, k), _direction(pj, v))


def partial_taylor_sums(pj: PartialJet, v: Sequence, ks: Sequence[int]) -> list[LCNumber]:
    """``partial_taylor_eval(pj, v, k)`` for each of the ascending orders ks.

    The lowest order is nested Horner, so it is exactly that call.  Each
    higher order adds the homogeneous parts H_j = sum(table[alpha] * v^alpha,
    |alpha| = j) above the one before it (degree-graded Taylor propagation),
    with each monomial v^alpha one multiplication from its parent's.  Parts
    past the last degree with a coefficient other than an exact zero are
    zero and not formed.
    """
    top = ks[-1]
    if top > pj.order:
        raise OrderTooHighError(f"order {top} exceeds jet order {pj.order}")
    vec = _direction(pj, v)
    total = _horner(pj.table, _horner_plan(pj.n, ks[0]), vec)
    sums = [total]
    if len(ks) == 1:
        return sums
    layout = _layout(pj.n, pj.order)
    # the graded indices of degree <= d are the first comb(n + d, d); only
    # exact zeros are skipped, as a visible zero still bounds the horizon
    end = math.comb(pj.n + top, top)
    coeffs = [pj.table[alpha] for alpha in layout.indices[:end]]
    while end > 1 and not coeffs[end - 1] and coeffs[end - 1].horizon == INF:
        end -= 1
    last = sum(layout.indices[end - 1])
    degree = ks[0]
    start = math.comb(pj.n + degree, degree)
    if end <= start:
        return sums * len(ks)
    mono = [ONE] * end
    for p in range(1, end):
        q, i = layout.parent[p]
        mono[p] = vec[i] if q == 0 else mono[q] * vec[i]
    for k in ks[1:]:
        while degree < min(k, last):
            degree += 1
            stop = min(end, math.comb(pj.n + degree, degree))
            part = None
            for p in range(start, stop):
                if coeffs[p] or coeffs[p].horizon != INF:
                    term = coeffs[p] * mono[p]
                    part = term if part is None else part + term
            if part is not None:
                total = total + part
            start = stop
        sums.append(total)
    return sums


def taylor_polynomial_eval(jet: TaylorJet, y, k: int) -> LCNumber:
    """Evaluate the degree-k Taylor polynomial of the jet at y (Horner)."""
    if k > jet.order:
        raise OrderTooHighError(f"order {k} exceeds jet order {jet.order}")
    delta = as_lc(y) - jet.center
    result = jet.coeffs[k]
    for j in range(k - 1, -1, -1):
        result = result * delta + jet.coeffs[j]
    return result


def lhopital_limit(f: Expr, g: Expr, var: str, a) -> LCNumber:
    """lim f/g at a for the 0/0 case, read off from f(a+d)/g(a+d).

    The quotient's valuation classifies the limit: positive means 0, zero
    means the finite limit (its real part), negative means infinitely large.
    """
    a = as_lc(a)
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
