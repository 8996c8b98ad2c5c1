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

At an exactly-known real center every LC operation of the jet is one
binary64 operation, so the jet runs over floats, as ``eval_lc`` does, with
results bit-identical to LC arithmetic; if that walk raises or leaves a
coefficient that is not finite, the LC walk runs and decides.  The two are
one set of jet loops over two coefficient domains, the records ``_REAL``
and ``_LC`` of ``expr`` that ``eval_lc`` walks too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from . import series
from .core import D, INF, LCNumber, ONE, Ordering, ZERO, as_lc, power
from .errors import (
    InfiniteLimitError,
    NonJetResultError,
    NotIndeterminateError,
    NotPositiveError,
    OrderTooHighError,
    ZeroDenominatorError,
)
from .expr import _FLOAT_WALK_ERRORS, _LC, _REAL, Expr, _Domain, eval_lc, evaluate


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

    @functools.cached_property
    def _tail_least(self) -> list:
        """[j]: the least exponent a coefficient of degree above j can hold."""
        least = [INF] * (self.order + 2)
        for alpha, a in self.table.items():
            least[sum(alpha)] = min(least[sum(alpha)], _least(a))
        for j in range(self.order, 0, -1):
            least[j] = min(least[j], least[j + 1])
        return least[1:]


def _least(x: LCNumber):
    """The least exponent x can hold: its first term's, else its horizon."""
    return x.valuation() if x else x.horizon


# -- scaled derivative ladders of the elementary functions ---------------------


def _scaled_derivs(dom: _Domain, name: str, a0, k: int) -> list:
    """[f(a0), f'(a0)/1!, ..., f^(k)(a0)/k!] for an elementary f."""
    if name == "exp":
        e = dom.apply("exp", a0)
        return [e * (1.0 / math.factorial(n)) for n in range(k + 1)]
    if name in ("sin", "cos"):
        s, c = dom.sin_cos(a0)
        cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
        return [cycle[n % 4] * (1.0 / math.factorial(n)) for n in range(k + 1)]
    if name == "ln":
        out = [dom.apply("ln", a0)]
        if k:
            ia = dom.inv(a0)
            p = dom.one
            for n in range(1, k + 1):
                p = p * ia
                out.append(p * ((1.0 if n % 2 else -1.0) / n))
        return out
    if name == "sqrt":
        sign = dom.sign(a0)
        if sign is Ordering.EQUAL_AT_HORIZON:
            raise NonJetResultError(
                "sqrt at a point indistinguishable from 0 has no polynomial jet"
            )
        if sign is Ordering.LESS:
            raise NotPositiveError("sqrt of a negative value")
        out = [dom.apply("sqrt", a0)]
        if k:
            ia = dom.inv(a0)
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

    The coefficients belong to one domain: LCNumbers, or floats at an
    exactly-known real point.  With n = 1 the tables reduce to the
    triangular loops of univariate jet arithmetic, in the same operation
    order.
    """

    __slots__ = ("layout", "c", "dom")

    def __init__(self, layout: _Layout, c: list, dom: _Domain):
        self.layout = layout
        self.c = c
        self.dom = dom

    @classmethod
    def constant(cls, value, layout: _Layout, dom: _Domain) -> "_Jet":
        return cls(layout, [value] + [dom.zero] * (len(layout.indices) - 1), dom)

    @classmethod
    def variable(cls, x0, index: int, layout: _Layout, dom: _Domain) -> "_Jet":
        jet = cls.constant(x0, layout, dom)
        if layout.k >= 1:
            unit = tuple(int(i == index) for i in range(layout.n))
            jet.c[layout.indices.index(unit)] = dom.one
        return jet

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.layout, [a + b for a, b in zip(self.c, other.c)], self.dom)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.layout, [a - b for a, b in zip(self.c, other.c)], self.dom)

    def __neg__(self) -> "_Jet":
        return _Jet(self.layout, [-a for a in self.c], self.dom)

    def __mul__(self, other: "_Jet") -> "_Jet":
        # Only exact zeros are skipped: a coefficient with no visible terms
        # but a finite horizon still bounds the horizon of its products.
        zero = self.dom.zero
        out = [zero] * len(self.c)
        b = other.c
        for a, row in zip(self.c, self.layout.mul):
            if a is zero:
                continue
            for q, r in row:
                bq = b[q]
                if bq is not zero:
                    out[r] = out[r] + a * bq
        return _Jet(self.layout, out, self.dom)

    def __pow__(self, n: int) -> "_Jet":
        return power(self, n, _Jet.constant(self.dom.one, self.layout, self.dom))

    def inv(self) -> "_Jet":
        dom = self.dom
        zero = dom.zero
        a = self.c
        b0 = dom.inv(a[0])
        b = [b0]
        for row in self.layout.inv[1:]:
            s = zero
            for p, q in row:
                ap, bq = a[p], b[q]
                if ap is not zero and bq is not zero:
                    s = s + ap * bq
            b.append(-(b0 * s))
        return _Jet(self.layout, b, dom)

    def compose(self, derivs: list) -> "_Jet":
        # Horner in the nilpotent part g = self - a0.
        dom = self.dom
        g = _Jet(self.layout, [dom.zero] + self.c[1:], dom)
        result = _Jet.constant(derivs[-1], self.layout, dom)
        for d in reversed(derivs[:-1]):
            result = result * g
            result.c[0] = result.c[0] + d
        return result

    def apply(self, name: str) -> "_Jet":
        if name == "abs":
            sign = self.dom.sign(self.c[0])
            if sign is Ordering.GREATER:
                return self
            if sign is Ordering.LESS:
                return -self
            raise NonJetResultError(
                "abs at a point indistinguishable from 0 has no polynomial jet"
            )
        return self.compose(_scaled_derivs(self.dom, name, self.c[0], self.layout.k))


# -- public operations -----------------------------------------------------------


def _jet_at(f: Expr, names: Sequence[str], center: tuple, k: int) -> list[LCNumber]:
    """Coefficients of f's jet at center, in the graded order of _layout.

    At an exactly-known real center the jet runs in binary64, bit-identical
    to LC arithmetic; if that walk raises or leaves a coefficient that is
    not finite, the LC walk runs, and its value or exception is the answer.
    """
    if k < 0:
        raise ValueError("jet order must be >= 0")
    # A center only known below exponent h cannot support k+1 distinguishable
    # derivative scales.
    for c in center:
        h = c.horizon
        if h != INF and h < k + 1:
            raise OrderTooHighError(
                f"jet order {k} needs center horizon >= {k + 1}, have {h}"
            )
    layout = _layout(len(names), k)
    point = [c.exact_real() for c in center]
    if None not in point:
        try:
            coeffs = _walk(f, names, point, layout, _REAL)
        except _FLOAT_WALK_ERRORS:
            pass  # the LC walk decides what is raised
        else:
            if all(map(math.isfinite, coeffs)):
                return [LCNumber.from_real(c) for c in coeffs]
    return _walk(f, names, center, layout, _LC)


def _walk(f: Expr, names: Sequence[str], center, layout: _Layout, dom: _Domain) -> list:
    """The coefficients of f's jet at center over the domain dom."""
    env = {
        name: _Jet.variable(c, i, layout, dom)
        for i, (name, c) in enumerate(zip(names, center))
    }
    return evaluate(
        f,
        env,
        lambda c: _Jet.constant(dom.lift(c), layout, dom),
        lambda name, jet: jet.apply(name),
    ).c


def taylor_jet(f: Expr, var: str, x0, k: int) -> series.PowerSeries:
    """The Taylor polynomial of f at x0: the power series centred there with
    coefficients f^(j)(x0)/j! for j = 0..k, by jet evaluation.

    The center's horizon must reach past the jet order.
    """
    x0 = as_lc(x0)
    return series.PowerSeries(x0, tuple(_jet_at(f, [var], (x0,), k)))


def derivative_at(f: Expr, var: str, x0, j: int) -> LCNumber:
    """The j-th derivative f^(j)(x0) = j! * (jet coefficient j)."""
    return taylor_jet(f, var, x0, j).coeffs[j] * float(math.factorial(j))


def _checked_point(vars: Sequence[str], x0: Sequence) -> tuple[list[str], tuple]:
    """The names and the point as numbers: one distinct name per coordinate."""
    names = list(vars)
    center = tuple(as_lc(c) for c in x0)
    if len(names) != len(center):
        raise ValueError("vars and x0 must have the same length")
    if not names:
        raise ValueError("need at least one variable")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"variable {name!r} is given twice")
    return names, center


def partial_jet(f: Expr, vars: Sequence[str], x0: Sequence, k: int) -> PartialJet:
    """All scaled partials d^alpha f(x0)/alpha! with |alpha| <= k.

    One multivariate jet evaluation produces the full table; mixed partials
    are symmetric by construction.  With one variable the table holds
    exactly the coefficients of ``taylor_jet``.
    """
    names, center = _checked_point(vars, x0)
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


def _horner(
    table: Mapping, plan: tuple, v: Sequence[LCNumber], cut=INF, i: int = 0
) -> LCNumber:
    last = i == len(v) - 1
    result = None
    for entry in plan:
        if not last:
            term = _horner(table, entry, v, cut, i + 1)
        elif cut is INF:
            term = table[entry]
        else:
            term = table[entry].truncate(cut)
        if result is not None:  # the sum keeps nothing at or past term's horizon
            term = term + result.__mul__(v[i], term)
        result = term
    return result


def partial_taylor_eval(pj: PartialJet, v: Sequence, k: int) -> LCNumber:
    """sum(table[alpha] * v^alpha) over |alpha| <= k, by nested Horner.

    Equals f(x0) + sum((1/j!) * ((v . grad)^j f)(x0), j = 1..k) with the
    factorials cancelled.
    """
    return partial_taylor_sums(pj, v, [k])[0]


def partial_taylor_sums(
    pj: PartialJet, v: Sequence, ks: Sequence[int], cut=INF
) -> list[LCNumber]:
    """``partial_taylor_eval(pj, v, k)`` for each of the ascending orders ks.

    The lowest order is nested Horner, so it is exactly that call.  Each
    higher order adds the graded parts H_j = sum(table[alpha] * v^alpha,
    |alpha| = j) above the one before it (degree-graded Taylor
    propagation), up to the last coefficient that is not an exact zero.
    Each monomial v^alpha is one exact multiplication from its parent's,
    and each term of H_j is capped at the running sum, which keeps nothing
    at or past its own horizon.  A part that shows nothing and leaves the
    horizon where it is adds nothing; with no ``cut`` the sum then ends
    there if every component of v has valuation >= 0, and the least
    exponent of the part's monomials plus the least any later coefficient
    can hold reaches the sum's horizon: the monomials' valuations only rise
    and the horizon only falls, so no later term is visible.  With one
    variable this is the Taylor polynomial sum(a_j * v^j) term by term.

    With a horizon ``cut`` and a direction whose components have only
    positive exponents, each sum is the uncut one truncated at ``cut``, to
    the bit and with horizon min(h, cut): Horner truncates each table entry
    there, and every product and sum after it is capped at a horizon no
    larger, so only term pairs at or past ``cut`` are left out.  A product's
    coefficient at e reads the other factor's coefficients below e alone,
    which is why the exponents must be positive.
    """
    top = ks[-1]
    if top > pj.order:
        raise OrderTooHighError(f"order {top} exceeds jet order {pj.order}")
    vec = [as_lc(c) for c in v]
    if len(vec) != pj.n:
        raise ValueError(f"direction has {len(vec)} components, expected {pj.n}")
    total = _horner(pj.table, _horner_plan(pj.n, ks[0]), vec, cut)
    if len(ks) == 1:
        return [total]
    sums = {ks[0]: total}  # order: the sum to it
    n, layout = pj.n, _layout(pj.n, pj.order)
    coeffs = [pj.table[alpha] for alpha in layout.indices[: math.comb(n + top, n)]]
    while len(coeffs) > 1 and coeffs[-1] is ZERO:  # a visible zero bounds the horizon
        coeffs.pop()
    mono = [ONE] * len(coeffs)
    start = 1  # the graded indices of degree < j are the first comb(n + j - 1, n)
    for j in range(1, top + 1):
        stop = min(len(coeffs), math.comb(n + j, n))
        if stop <= start:
            break
        for p in range(start, stop):
            q, i = layout.parent[p]
            mono[p] = vec[i] if q == 0 else mono[q] * vec[i]
        if j > ks[0]:
            part = None
            for p in range(start, stop):
                if coeffs[p] is not ZERO:
                    term = coeffs[p].__mul__(mono[p], total)
                    part = term if part is None else part + term
            if part is not None and (part or cut is not INF or part.horizon < total.horizon):
                total = total + part
            elif cut is INF and all(c.valuation() >= 0 for c in vec) and (
                min(map(_least, mono[start:stop])) + pj._tail_least[j] >= total.horizon
            ):
                break
            sums[j] = total
        start = stop
    return [sums.get(k, total) for k in ks]


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
