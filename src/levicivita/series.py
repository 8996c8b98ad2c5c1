"""Power series over LCNumbers and elementary functions of LC arguments.

A :class:`PowerSeries` is a finite jet sum(a_j * (x - center)^j, j <= jmax)
whose coefficients are themselves LC numbers.  Convergence of the underlying
infinite series is governed by the growth rate of the coefficient
valuations: with lambda0 = limsup(-lambda(a_j)/j), the series converges in
the order topology exactly where lambda(x - center) > lambda0.  Only
finitely many coefficients are ever available, so lambda0 is estimated by a
max over a trailing window and every verdict carries that finite-sample
context.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    INF,
    LCNumber,
    ONE,
    Ordering,
    Valuation,
    ZERO,
    as_lc,
    default_horizon,
    format_lc,
    monomial,
)
from .errors import (
    DomainError,
    EmptySeriesError,
    NotConvergentError,
    NotInRadiusError,
    NotPositiveError,
    OrderTooHighError,
)

_NEG_INF = -math.inf


@dataclass(frozen=True)
class PowerSeries:
    """Finite power series: center plus coefficients a_0 .. a_jmax."""

    center: LCNumber
    coeffs: tuple[LCNumber, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise EmptySeriesError("a power series needs at least a_0")

    @property
    def jmax(self) -> int:
        return len(self.coeffs) - 1

    @functools.cached_property
    def _tail_least(self) -> list[Valuation]:
        """[m]: the least exponent the last m coefficients can hold."""
        tail = [INF]
        for a in reversed(self.coeffs):
            tail.append(min(_least(a), tail[-1]))
        return tail

    def __str__(self):
        c = format_lc(self.center)
        parts = [f"({format_lc(a)})" for a in self.coeffs]
        out = [parts[0]]
        for j, p in enumerate(parts[1:], start=1):
            out.append(f"{p}*(x-({c}))^{j}" if j > 1 else f"{p}*(x-({c}))")
        return " + ".join(out)


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: Verdict
    lambda0_estimate: Valuation  # Fraction or -inf
    gap: Valuation  # lambda(x - center) - lambda0_estimate


def growth_window(jmax: int, window: Optional[int]) -> int:
    """The trailing window of a growth estimate: default the last half."""
    if window is None:
        return max(1, jmax // 2)
    if not 1 <= window <= jmax:
        raise ValueError(f"window must be in 1..{jmax}, got {window}")
    return window


def lambda0_estimate(s: PowerSeries, window: Optional[int] = None) -> Valuation:
    """Trailing-window surrogate for limsup(-lambda(a_j)/j).

    Takes the max of -lambda(a_j)/j over the last ``window`` indices
    (default: the last half).  Zero coefficients contribute -inf, carrying
    the lambda(0) = inf convention through.
    """
    jmax = s.jmax
    if jmax < 1:
        raise EmptySeriesError("need at least one coefficient beyond a_0")
    window = growth_window(jmax, window)
    best: Valuation = _NEG_INF
    for j in range(jmax - window + 1, jmax + 1):
        a = s.coeffs[j]
        if a:
            v = Fraction(-a.valuation(), j)
            if best == _NEG_INF or v > best:
                best = v
    return best


def converges_at(
    s: PowerSeries, x: LCNumber, window: Optional[int] = None
) -> ConvergenceVerdict:
    """Classify x by the sign of lambda(x - center) - lambda0.

    The criterion is strict, so a zero gap is reported as the boundary
    verdict (not convergent).
    """
    lam0 = lambda0_estimate(s, window)
    lam = (x - s.center).valuation()
    gap = lam - lam0  # inf and -inf mix to the right values
    if gap > 0:
        v = Verdict.CONVERGES
    elif gap == 0:
        v = Verdict.BOUNDARY
    else:
        v = Verdict.DIVERGES
    return ConvergenceVerdict(v, lam0, gap)


def sum_at(s: PowerSeries, x: LCNumber, window: Optional[int] = None) -> LCNumber:
    """Sum the series at x, stopping once increments drop below the horizon."""
    verdict = converges_at(s, x, window)
    if verdict.verdict is not Verdict.CONVERGES:
        raise NotConvergentError(
            f"series does not converge at this point (gap {verdict.gap})"
        )
    return _taylor_sum(s, x - s.center)


def _taylor_sum(s: PowerSeries, delta: LCNumber) -> LCNumber:
    coeffs = s.coeffs
    acc = ZERO
    power = ONE
    for j, a in enumerate(coeffs):
        if j:
            power = power * delta
        term = a.__mul__(power, acc)
        # a term cut at acc's horizon shows something below it, unless it
        # is empty; an empty term still lowers the sum's horizon to its own
        if term or term.horizon < acc.horizon:
            acc = acc + term
        elif (
            delta.valuation() >= 0
            and _least(power) + s._tail_least[len(coeffs) - j - 1] >= acc.horizon
        ):
            # With lambda(delta) >= 0 the valuations of the powers only rise
            # and the horizon of acc only falls, so no later term is visible.
            break
    return acc


def _least(x: LCNumber) -> Valuation:
    """The least exponent x can hold: its first term's, else its horizon."""
    return x.valuation() if x else x.horizon


def differentiate_termwise(s: PowerSeries, j: int) -> PowerSeries:
    """j-fold term-by-term derivative: b_{l-j} = l(l-1)...(l-j+1) * a_l."""
    if j > s.jmax:
        raise OrderTooHighError(f"order {j} exceeds jmax {s.jmax}")
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    if j == 0:
        return s
    coeffs = tuple(
        s.coeffs[l] * float(math.perm(l, j)) for l in range(j, s.jmax + 1)
    )
    return PowerSeries(s.center, coeffs)


def recenter(
    s: PowerSeries, new_center: LCNumber, window: Optional[int] = None
) -> PowerSeries:
    """Re-expand around new_center via c_j = sum(C(l, j) a_l delta^(l-j)).

    Valid only inside the estimated radius: lambda(new_center - center) must
    exceed the lambda0 estimate, else the double sum cannot be reordered.
    """
    delta = new_center - s.center
    if delta:
        lam0 = lambda0_estimate(s, window)
        if not delta.valuation() > lam0:
            raise NotInRadiusError(
                f"lambda(shift) = {delta.valuation()} not above lambda0 = {lam0}"
            )
    jmax = s.jmax
    powers = [ONE]
    for _ in range(jmax):
        powers.append(powers[-1] * delta)
    coeffs = []
    for j in range(jmax + 1):
        c = ZERO
        for l in range(j, jmax + 1):
            c = c + s.coeffs[l] * float(math.comb(l, j)) * powers[l - j]
        coeffs.append(c)
    return PowerSeries(new_center, tuple(coeffs))


# -- elementary functions ----------------------------------------------------
#
# Each function splits off the infinitesimal part u and sums a classical
# series in it.  Every exponent of u is positive, so the valuation of term j
# is at least j * lambda(u): the valuations rise strictly, and a coefficient
# of a term below the working horizon depends only on coefficients of the
# previous term below it.  ``steps`` therefore cuts each term at the working
# horizon and ends each series exactly at its first empty term; every later
# term would be empty too, so there is no tuning constant.  An exactly-known
# (infinite-horizon) input with a nonzero infinitesimal part would need
# endless work, so those series are cut at the default horizon.


def _working_horizon(x: LCNumber) -> Valuation:
    h = x.horizon
    return h if h != INF else default_horizon()


def steps(u: LCNumber, ratio, limit: Valuation):
    """Terms t_j = t_(j-1) * u * ratio(j) for j >= 1, from t_0 = 1.

    A ``None`` ratio yields the powers u^j.  Each term is cut at ``limit``,
    and the generator returns at the first term that is then empty.
    """
    term = ONE
    j = 1
    while True:
        term = term.__mul__(u, limit)
        if ratio is not None:
            term = term * ratio(j)
        if not term:
            return
        yield term
        j += 1


def exp(x) -> LCNumber:
    """exp of a finite argument: exp(r) * sum(i^j / j!) for x = r + i."""
    x = as_lc(x)
    if x and x.valuation() < 0:
        raise DomainError("exp of an infinitely large argument")
    r = x.real_part()
    i = x.infinitesimal_part()
    if not i:
        return LCNumber.from_real(math.exp(r), x.horizon)
    limit = _working_horizon(x)
    terms = steps(i, lambda j: 1.0 / j, limit)
    acc = sum(terms, ONE.truncate(limit))
    return acc * math.exp(r) if r != 0.0 else acc


def ln(x) -> LCNumber:
    """ln of a finite positive argument: ln(a0) + sum((-1)^(j+1) u^j / j)."""
    x = as_lc(x)
    terms = x.terms
    if not terms or terms[0][0] != 0 or terms[0][1] <= 0:
        raise DomainError("ln requires a finite argument with positive real part")
    a0 = terms[0][1]
    if len(terms) == 1:
        return LCNumber.from_real(math.log(a0), x.horizon)
    limit = _working_horizon(x)
    u = x._unit_part(limit)
    acc = LCNumber.from_real(math.log(a0), limit)
    for j, power in enumerate(steps(u, None, limit), start=1):
        acc = acc + power * ((1.0 if j % 2 else -1.0) / j)
    return acc


def _sin_cos(x: LCNumber) -> tuple[LCNumber, LCNumber]:
    if x and x.valuation() < 0:
        raise DomainError("sin/cos of an infinitely large argument")
    r = x.real_part()
    i = x.infinitesimal_part()
    sr, cr = math.sin(r), math.cos(r)
    if not i:
        h = x.horizon
        return LCNumber.from_real(sr, h), LCNumber.from_real(cr, h)
    limit = _working_horizon(x)
    cos_i = ONE.truncate(limit)
    sin_i = ZERO
    terms = steps(i, lambda k: 1.0 / k, limit)
    for k, term in enumerate(terms, start=1):
        signed = term if (k // 2) % 2 == 0 else -term
        if k % 2:
            sin_i = sin_i + signed
        else:
            cos_i = cos_i + signed
    return (cos_i * sr + sin_i * cr, cos_i * cr - sin_i * sr)


def sin(x) -> LCNumber:
    return _sin_cos(as_lc(x))[0]


def cos(x) -> LCNumber:
    return _sin_cos(as_lc(x))[1]


_ELEMENTARY = {
    "exp": exp,
    "ln": ln,
    "sin": sin,
    "cos": cos,
    "sqrt": lambda x: nth_root(x, 2),
    "abs": lambda x: abs(as_lc(x)),
}


def apply_elementary(name: str, x: LCNumber) -> LCNumber:
    """Dispatch by name over the expression functions (``expr.FUNCTIONS``)."""
    try:
        fn = _ELEMENTARY[name]
    except KeyError:
        raise ValueError(f"unknown elementary function {name!r}") from None
    return fn(x)


def nth_root(x, n: int) -> LCNumber:
    """The positive n-th root via a binomial series on the leading factor.

    Writes x = a*d^q*(1 + u) and returns a^(1/n) * d^(q/n) * (1+u)^(1/n);
    the result r satisfies r^n == x up to horizon.  Requires x > 0.
    """
    x = as_lc(x)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"root index must be a positive integer, got {n!r}")
    if x.compare(ZERO) is not Ordering.GREATER:
        raise NotPositiveError("nth_root of a value not visibly positive")
    terms = x.terms
    q, a = terms[0]
    lead = math.sqrt(a) if n == 2 else a ** (1.0 / n)
    shift = q / n
    if len(terms) == 1:
        h = x.horizon
        return monomial(shift, lead, h if h == INF else h - q + shift)
    limit = _working_horizon(x) - q  # horizon in the d^q-factored frame
    u = x._unit_part(limit)
    alpha = 1.0 / n
    terms = steps(u, lambda j: (alpha - (j - 1)) / j, limit)
    acc = sum(terms, ONE.truncate(limit))
    # acc's horizon is limit, and the root's is limit moved by the shift
    return acc._scaled(lead, shift)
