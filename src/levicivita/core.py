"""Exact truncated arithmetic on the Levi-Civita field.

Elements are Hahn series sum(a_q * d^q) over rational exponents q with real
(binary64) coefficients, where d is the canonical positive infinitesimal.
Computer representations are necessarily finite, so every ``LCNumber``
carries a *horizon*: an exponent below which its terms are exactly known and
at or above which nothing is claimed.  All equality and order statements are
therefore "up to horizon".

Exponents and horizons are exact rationals (``fractions.Fraction``); the
valuation lambda(x) = min(supp(x)) and the horizon algebra drive control flow
and are never rounded.  Coefficients are binary64 and only exact zeros are
dropped: epsilon-pruning would silently change valuations and hence order
and convergence decisions.

Horizon algebra:

    h(x + y)  = min(h(x), h(y))
    h(x * y)  = min(h(x) + lambda(y), h(y) + lambda(x))   (infinite if a
                factor has no visible terms)
    h(inv(x)) = h(x) - 2*lambda(x)

A product whose terms at or past some exponent c are discarded at once
(added to a sum of horizon c, or truncated there) is taken capped:
``x.__mul__(y, c)`` equals ``(x * y).truncate(c)``, with horizon
min(h(x * y), c), but never forms the terms at or past c.  Each kept
coefficient is the same sum of the same products, so capping moves no bit.

Values built from parsed literals get the configurable default horizon
(exponent 32 unless overridden); values built programmatically are exact
(infinite horizon) unless a horizon is supplied.

Internally a number lives on one integer grid: a denominator ``_den``, the
exponents as integers on it, and the horizon as an integer ``_h`` on it
(``None`` when infinite), reduced so the grid is the coarsest that holds them
all.  Sums, products, caps, comparisons and truncations are pure machine-int
loops; a cap is put onto the product grid once.  The power series in an
infinitesimal u behind ``inv`` and the elementary functions of ``series``
are formed on the grid too, one coefficient at a time, by
``_power_series``.  Each operation has one path for every operand: a sum
is one merge of the sorted terms, a product with a one-term factor is one
scaling pass over the other factor's terms, and ``compare`` and
``leading_difference`` read the first term of x - y off a merge that builds
no difference; ``power_leads`` gives the leading term of c * x^n from the
two leading terms alone.  A number holds its grid
and nothing else, so each read of ``horizon``, ``valuation()`` or
``terms`` builds its ``Fraction`` view anew.  So test
emptiness with ``bool(x)`` or ``x.is_zero``, and cap a product at a sum's
horizon with ``x.__mul__(y, s)``.  Every number is built by ``_from_grid``,
which returns ``ZERO`` itself for no terms and an infinite horizon, so
``x is ZERO`` is the exact-zero test.  The grid is this module's alone:
other modules use the number's API.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from fractions import Fraction
from operator import methodcaller
from typing import Iterable, Sequence, Union

Scalar = Union[int, float, Fraction]
#: Valuations and horizons: an exact rational, or +/-inf (floats only there).
Valuation = Union[Fraction, float]

INF = math.inf

# Each thread and asyncio task sees its own default horizon; a new thread
# starts from exponent 32.
_default_horizon: ContextVar[Fraction] = ContextVar(
    "default_horizon", default=Fraction(32)
)


def default_horizon() -> Fraction:
    """Horizon applied to parsed literals and to otherwise-endless series."""
    return _default_horizon.get()


def _checked_horizon(horizon: Scalar) -> Fraction:
    hz = _horizon_pair(horizon)
    if hz is None or hz[0] <= 0:
        raise ValueError(f"default horizon must be positive and finite, got {horizon!r}")
    return Fraction(*hz)


@contextmanager
def horizon(h: Scalar):
    """``with horizon(h):`` scopes the default horizon to the block."""
    token = _default_horizon.set(_checked_horizon(h))
    try:
        yield
    finally:
        _default_horizon.reset(token)


class Ordering(Enum):
    LESS = "less"
    EQUAL_AT_HORIZON = "equal_at_horizon"
    GREATER = "greater"


def _as_exponent(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    raise TypeError(f"exponent must be int or Fraction, got {type(e).__name__}")


def _horizon_pair(horizon):
    """(numerator, denominator) of a finite horizon argument; None for inf."""
    if isinstance(horizon, (int, Fraction)):
        return horizon.numerator, horizon.denominator
    if not isinstance(horizon, float):
        raise TypeError(
            f"horizon must be int, Fraction or float, got {type(horizon).__name__}"
        )
    if horizon == INF:
        return None
    try:
        return horizon.as_integer_ratio()
    except (OverflowError, ValueError):  # -inf or nan
        raise ValueError(f"horizon must be rational or +inf, got {horizon!r}") from None


def _on_grid(num: int, qd: int, den: int) -> tuple[int, int]:
    """(grid, n): grid the least multiple of den that qd divides, and
    num/qd == n/grid."""
    grid = den if den % qd == 0 else den * qd // math.gcd(den, qd)
    return grid, num * (grid // qd)


def _number(den: int, h, items) -> "LCNumber":
    """The number with these grid terms and horizon, reduced to its grid:
    divided through by gcd(den, h, all exponents).

    ``h`` is the horizon on the grid, or None when infinite; items are
    sorted, zero-free and below h.
    """
    g = den if h is None else math.gcd(den, h)
    for e, _ in items:
        if g == 1:
            break
        g = math.gcd(g, e)
    if g == 1:
        return LCNumber._from_grid(den, h, tuple(items))
    h = None if h is None else h // g
    return LCNumber._from_grid(den // g, h, tuple([(e // g, c) for e, c in items]))


def power(x, n: int, one, inv=methodcaller("inv")):
    """x^n by square-and-multiply, after one inversion if n < 0, in any
    domain with ``*``, its unit ``one`` and its reciprocal ``inv``."""
    if n < 0:
        x, n = inv(x), -n
    if not n:
        return one
    while not n & 1:
        x = x * x
        n >>= 1
    result = x  # the first factor, where one * x would be x again
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            result = result * x
        n >>= 1
    return result


def powers(x, ns: Iterable[int], one) -> dict:
    """A dict that holds x^n = power(x, n, one) at each n >= 0 of ns, from
    one square chain.

    Each x^(2^t) is formed once and shared.  Like ``power``, x^n is the
    power of n's lowest set bit times those of its higher bits, in
    ascending order: so x^n = x^(n - 2^top) * x^(2^top), with the operands
    in that order, and each value is bit-identical.
    """
    out = {0: one, 1: x}
    for n in ns:
        if n in out:
            continue
        t = 1
        while t + t <= n:
            if t + t not in out:
                out[t + t] = out[t] * out[t]
            t += t
        acc = n & -n  # the lowest set bit
        rest = n - acc
        while rest:
            bit = rest & -rest
            if acc + bit not in out:
                out[acc + bit] = out[acc] * out[bit]
            acc += bit
            rest -= bit
    return out


ZERO = None  # the exact zero, which the first _from_grid call builds


class LCNumber:
    """A truncated Hahn series: sorted (exponent, coefficient) terms + horizon.

    Instances are immutable; all operations are pure and safe to share
    between threads.  Use ``+ - * / ** abs()`` as usual; mixed arithmetic
    with int/float/Fraction treats the scalar as exactly known.
    """

    __slots__ = ("_den", "_iterms", "_h")

    def __new__(cls, terms: Iterable[tuple] = (), horizon: Valuation = INF):
        hz = _horizon_pair(horizon)
        den = 1 if hz is None else hz[1]
        pairs = []
        for e, c in terms:
            e = _as_exponent(e)
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r} at exponent {e}")
            pairs.append((e, c))
            den = den * e.denominator // math.gcd(den, e.denominator)
        acc: dict[int, float] = {}
        for e, c in pairs:
            key = e.numerator * (den // e.denominator)
            acc[key] = acc.get(key, 0.0) + c
        if len(acc) < len(pairs):  # terms of one exponent were summed
            for key, c in acc.items():
                if not math.isfinite(c):
                    raise ValueError(
                        f"non-finite coefficient {c!r} at exponent {Fraction(key, den)}"
                    )
        h = None if hz is None else hz[0] * (den // hz[1])
        items = sorted(
            (e, c) for e, c in acc.items() if c != 0.0 and (h is None or e < h)
        )
        return _number(den, h, items)

    @classmethod
    def _from_grid(cls, den: int, h, iterms: tuple) -> "LCNumber":
        # The one constructor that fills the slots: (den, h, iterms) already
        # canonical, iterms sorted, zero-free and below h.  No terms and an
        # infinite horizon is the exact zero, ZERO itself once it is built.
        if h is None and not iterms and ZERO is not None:
            return ZERO
        obj = object.__new__(cls)
        _set_den(obj, den)
        _set_iterms(obj, iterms)
        _set_h(obj, h)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    def __reduce__(self):
        # rebuilt from the grid by _number, never through the raising setter
        return _number, (self._den, self._h, self._iterms)

    def __copy__(self):
        return self  # a number is immutable, so it is its own copy

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def from_real(cls, value: Scalar, horizon: Valuation = INF) -> "LCNumber":
        c = float(value)
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r} at exponent 0")
        hz = None if horizon is INF else _horizon_pair(horizon)
        if hz is None:
            return cls._from_grid(1, None, ((0, c),) if c != 0.0 else ())
        num, den = hz
        return cls._from_grid(den, num, ((0, c),) if c != 0.0 and num > 0 else ())

    # -- structure ---------------------------------------------------------

    @property
    def horizon(self) -> Valuation:
        """The exponent from which nothing is known: a Fraction, or INF.

        Each read of a finite horizon builds one ``Fraction``; arithmetic,
        caps included, reads the grid and never needs it.
        """
        h = self._h
        return INF if h is None else Fraction(h, self._den)

    @property
    def terms(self) -> tuple:
        """The visible terms as ((exponent: Fraction, coefficient: float), ...).

        Each access builds one ``Fraction`` per term.  To test for
        emptiness use ``bool(x)`` or ``x.is_zero``, which read the grid.
        """
        den = self._den
        return tuple([(Fraction(e, den), c) for e, c in self._iterms])

    @property
    def is_zero(self) -> bool:
        """True when no terms are visible below the horizon.

        With an infinite horizon this means exactly zero; with a finite one
        it means indistinguishable from zero at the current knowledge.
        """
        return not self._iterms

    def valuation(self) -> Valuation:
        """lambda(x) = min(supp(x)); infinity for the (visible) zero."""
        if not self._iterms:
            return INF
        return Fraction(self._iterms[0][0], self._den)

    def coefficient(self, exponent) -> float:
        e = _as_exponent(exponent)
        if self._den % e.denominator:
            return 0.0
        key = e.numerator * (self._den // e.denominator)
        for te, tc in self._iterms:
            if te == key:
                return tc
            if te > key:
                break
        return 0.0

    def exact_real(self) -> float | None:
        """The value as a float if it is an exactly-known real, else None.

        Exactly-known real: infinite horizon, and no term off exponent 0.
        """
        if self._h is not None:
            return None
        items = self._iterms
        if not items:
            return 0.0
        if len(items) == 1 and items[0][0] == 0:
            return items[0][1]
        return None

    def real_part(self) -> float:
        """Coefficient at exponent 0."""
        for te, tc in self._iterms:
            if te == 0:
                return tc
            if te > 0:
                break
        return 0.0

    def infinitesimal_part(self) -> "LCNumber":
        """The sub-series with exponents > 0."""
        items = self._iterms
        if not items or items[0][0] > 0:
            return self
        return _number(self._den, self._h, [t for t in items if t[0] > 0])

    def truncate(self, horizon: Valuation) -> "LCNumber":
        """Restrict knowledge to ``min(self.horizon, horizon)``."""
        hz = _horizon_pair(horizon)
        den, h = self._den, self._h
        if hz is None or (h is not None and hz[0] * den >= h * hz[1]):
            return self
        grid, h = _on_grid(hz[0], hz[1], den)
        m = grid // den
        items = [t for t in self._iterms if t[0] * m < h]
        if m > 1:
            items = [(e * m, c) for e, c in items]
        return _number(grid, h, items)

    def max_abs_coefficient(self) -> float:
        m = 0.0  # a plain loop: about 3x faster than max() of a generator
        for _, c in self._iterms:
            if c > m:
                m = c
            elif -c > m:
                m = -c
        return m

    def without_small(self, tol: float) -> "LCNumber":
        """The sub-series of terms with ``abs(coefficient) > tol``."""
        items = [t for t in self._iterms if abs(t[1]) > tol]
        if len(items) == len(self._iterms):
            return self
        return _number(self._den, self._h, items)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, LCNumber):
            return value
        if isinstance(value, (int, float, Fraction)):
            return LCNumber.from_real(value)
        return None

    def __add__(self, other, neg=False):
        """self + other; with ``neg``, self - other in the same one merge."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other is ZERO:  # the exact zero leaves the other operand
            return self
        if self is ZERO:
            return -other if neg else other
        a, b = self._iterms, other._iterms
        ha, hb = self._h, other._h
        den, db = self._den, other._den
        if den != db:
            grid = den * db // math.gcd(den, db)
            fa, fb = grid // den, grid // db
            den = grid
            if fa > 1:
                a = [(e * fa, c) for e, c in a]
                if ha is not None:
                    ha *= fa
            if fb > 1:
                b = [(e * fb, c) for e, c in b]
                if hb is not None:
                    hb *= fb
        h = ha if hb is None else hb if ha is None or hb < ha else ha
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ea, eb = a[i][0], b[j][0]
            if ea == eb:
                c = a[i][1] - b[j][1] if neg else a[i][1] + b[j][1]
                if c != 0.0:
                    out.append((ea, c))
                i += 1
                j += 1
            elif ea < eb:
                out.append(a[i])
                i += 1
            else:
                out.append((eb, -b[j][1]) if neg else b[j])
                j += 1
        if i < na:
            out.extend(a[i:])
        if j < nb:
            out.extend([(e, -c) for e, c in b[j:]] if neg else b[j:])
        if h is not None and out and out[-1][0] >= h:
            out = [t for t in out if t[0] < h]
        return _number(den, h, out)

    __radd__ = __add__

    def __neg__(self):
        return LCNumber._from_grid(
            self._den, self._h, tuple([(e, -c) for e, c in self._iterms])
        )

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(self, True)

    def _monomial_mul(self, coeff: float, off: int, grid: int, h):
        """self * coeff * d^(off/grid), cut at the horizon h/grid (h None:
        infinite).  grid is a multiple of self's denominator."""
        fa = grid // self._den
        out = []
        for e, c in self._iterms:
            e = e * fa + off
            if h is not None and e >= h:
                break  # the terms are sorted
            c *= coeff
            if c != 0.0:
                out.append((e, c))
        return _number(grid, h, out)

    def _scaled(self, coeff: float, shift: Fraction) -> "LCNumber":
        """self * coeff * d^shift, with the horizon moved by shift too.

        Not a product: one pass over the terms, which drops a coefficient
        that underflows to 0.
        """
        den, h = self._den, self._h
        grid, off = _on_grid(shift.numerator, shift.denominator, den)
        return self._monomial_mul(
            coeff, off, grid, None if h is None else h * (grid // den) + off
        )

    def __mul__(self, other, cap=INF):
        """self * other; with a horizon ``cap``, (self * other).truncate(cap),
        without forming the terms at or past ``cap``.  A number ``cap`` stands
        for its horizon: a sum caps what it is about to add with itself."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if cap is INF:
            hz = None
        elif isinstance(cap, LCNumber):  # its horizon, read off its grid
            hz = None if cap._h is None else (cap._h, cap._den)
        else:
            hz = _horizon_pair(cap)
        a, b = self._iterms, other._iterms
        ha, hb = self._h, other._h
        da, db = self._den, other._den
        if da == db:
            den, fa, fb = da, 1, 1
        else:
            den = da * db // math.gcd(da, db)
            fa, fb = den // da, den // db
        # h(x*y) = min(h(x) + lambda(y), h(y) + lambda(x)) on the grid, where
        # a factor with no visible terms is zero only below its horizon, so
        # its valuation is at least that horizon; None stands for inf.
        la = a[0][0] * fa if a else None if ha is None else ha * fa
        lb = b[0][0] * fb if b else None if hb is None else hb * fb
        h = None if ha is None or lb is None else ha * fa + lb
        if hb is not None and la is not None:
            k = hb * fb + la
            if h is None or k < h:
                h = k
        if hz is not None:  # a finite cap, put onto the grid once
            cn, cd = hz
            if h is None or cn * den < h * cd:
                grid, h = _on_grid(cn, cd, den)
                if grid != den:
                    m = grid // den
                    den, fa, fb = grid, fa * m, fb * m
        if not a or not b:
            return _number(den, h, ())
        if len(a) == 1:
            return other._monomial_mul(a[0][1], a[0][0] * fa, den, h)
        if len(b) == 1:
            return self._monomial_mul(b[0][1], b[0][0] * fb, den, h)
        if fa > 1:
            a = [(e * fa, c) for e, c in a]
        if fb > 1:
            b = [(e * fb, c) for e, c in b]
        acc: dict[int, float] = {}
        get = acc.get
        for ea, ca in a:
            room = None if h is None else h - ea
            if room is not None and b[0][0] >= room:
                break  # a is sorted too; later rows lie past the horizon
            for eb, cb in b:
                if room is not None and eb >= room:
                    break  # b is sorted; later exponents only larger
                k = ea + eb
                acc[k] = get(k, 0.0) + ca * cb
        items = sorted([(e, c) for e, c in acc.items() if c != 0.0])
        return _number(den, h, items)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, ONE)

    def inv(self) -> "LCNumber":
        """Multiplicative inverse, exact up to horizon h(x) - 2*lambda(x).

        Factors the leading monomial, x = a*d^q*(1 + u), and takes 1/(1 + u)
        in one pass by the recurrence c_e = -sum(u_k * c_(e-k)) of
        ``_power_series`` (J. C. P. Miller's rule; Brent and Kung, J. ACM
        25, 1978), at a cost of O(output terms x terms of u).  It
        divides nothing, so a dyadic input has an exact inverse.  An
        exactly-known multi-term input would need infinitely many terms, so
        its inverse is truncated at the default horizon.
        """
        items, den, h = self._iterms, self._den, self._h
        if not items:
            raise ZeroDivisionError("inverse of a value with no visible terms")
        q, a = items[0]
        c = 1.0 / a
        for value, e in ((a, q), (c, -q)):  # an inf a has the reciprocal 0.0
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite coefficient {value!r} at exponent {Fraction(e, den)}"
                )
        if len(items) == 1:
            h = None if h is None else h - 2 * q
            return LCNumber._from_grid(den, h, ((-q, c),))
        if h is not None:
            grid, target = den, h - 2 * q
        else:
            dh = default_horizon()
            grid, target = _on_grid(dh.numerator, dh.denominator, den)
            q *= grid // den
        # u is known up to the horizon in the d^q-factored frame, which is
        # where the series stops too
        u = self._unit_part(target + q, grid)
        inverse = _power_series("pow", u, target + q, grid, alpha=-1.0)
        return inverse._monomial_mul(c, -q, grid, target)

    def _unit_part(self, limit, den: int = 1) -> "LCNumber":
        """u in self = a*d^q*(1 + u), known up to limit/den <= h(self) - q.

        u is cut below limit/den, its horizon, and a coefficient c/a that
        underflows to 0 is dropped.
        """
        q, a = self._iterms[0]
        grid, h = _on_grid(limit.numerator, limit.denominator * den, self._den)
        m = grid // self._den
        q *= m
        items = []
        for e, c in self._iterms[1:]:
            e = e * m - q
            if e >= h:
                break  # the terms are sorted
            c /= a
            if c != 0.0:
                items.append((e, c))
        return _number(grid, h, items)

    # -- order -------------------------------------------------------------

    def compare(self, other) -> Ordering:
        """Three-valued order: the sign of x - y, decided at its valuation.

        ``EQUAL_AT_HORIZON`` means x - y has no visible terms; callers that
        need strict order must treat it as undecidable, not as equality.
        """
        y = self._coerce(other)
        if y is None:
            raise TypeError(f"cannot compare LCNumber with {type(other).__name__}")
        # the sign of the first term of self + (-other) below both horizons,
        # read off the two term lists without building the difference
        a, b = self._iterms, y._iterms
        da, db = self._den, y._den
        den = da * db // math.gcd(da, db)
        fa, fb = den // da, den // db
        ha, hb = self._h, y._h
        if ha is not None:
            ha *= fa
        if hb is not None:
            hb *= fb
        h = ha if hb is None else hb if ha is None or hb < ha else ha
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            e, ca = a[i]
            eb, cb = b[j]
            e *= fa
            eb *= fb
            if e == eb:
                c = ca - cb
                if c == 0.0:
                    i += 1
                    j += 1
                    continue
            elif e < eb:
                c = ca
            else:
                e, c = eb, -cb
            break
        else:  # the first difference, if any, is a term of one list alone
            if i < na:
                e, c = a[i][0] * fa, a[i][1]
            elif j < nb:
                e, c = b[j][0] * fb, -b[j][1]
            else:
                return Ordering.EQUAL_AT_HORIZON
        if h is not None and e >= h:
            return Ordering.EQUAL_AT_HORIZON
        return Ordering.GREATER if c > 0 else Ordering.LESS

    def __lt__(self, other):
        return self.compare(other) is Ordering.LESS

    def __gt__(self, other):
        return self.compare(other) is Ordering.GREATER

    def __le__(self, other):
        return self.compare(other) is not Ordering.GREATER

    def __ge__(self, other):
        return self.compare(other) is not Ordering.LESS

    def __abs__(self):
        """|x| = max{x, -x}; the sign is the leading coefficient's."""
        if self._iterms and self._iterms[0][1] < 0:
            return -self
        return self

    def __bool__(self):
        return bool(self._iterms)

    def __eq__(self, other):
        # Structural identity (same visible terms and same horizon).  Use
        # compare() for value equality at a shared horizon.  A scalar equals
        # an exactly-known real c when c == scalar exactly, so hash is hash(c).
        if not isinstance(other, LCNumber):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            c = self.exact_real()
            return c is not None and c == other
        return (
            self._den == other._den
            and self._h == other._h
            and self._iterms == other._iterms
        )

    def __hash__(self):
        c = self.exact_real()
        return hash((self._den, self._iterms, self._h) if c is None else c)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_lc(self)

    def __repr__(self):
        h = "inf" if self._h is None else str(self.horizon)
        return f"LCNumber({format_lc(self)!r}, horizon={h})"


# The slots' own setters: they bypass the raising __setattr__ without the
# per-call lookup of object.__setattr__.
_set_den = LCNumber._den.__set__
_set_iterms = LCNumber._iterms.__set__
_set_h = LCNumber._h.__set__


def _power_series(f: str, u: LCNumber, limit, den: int = 1, alpha: float = 0.0):
    """f(u) for an infinitesimal u, up to its horizon limit/den.

    ``f`` is "exp", "ln" for ln(1 + u), "pow" for (1 + u)^alpha, or
    "sincos" for the pair (sin u, cos u).  Every exponent of f(u) is a sum
    of exponents of u, so the result is sum(c_e * d^e) over the additive
    closure of supp(u) below the limit, e = 0 first.  Each c_e is one dot
    product over the terms u_k * d^k of u, in ascending e (J. C. P.
    Miller's rule, Knuth, TAOCP vol. 2, 4.7; Brent and Kung, J. ACM 25,
    1978):

        exp:     e*c_e = sum(k * u_k * c_(e-k))
        pow:     e*c_e = sum((alpha*k - (e-k)) * u_k * c_(e-k))
        ln:      e*c_e = e*u_e - sum((e-k) * u_k * c_(e-k)),  c_0 = 0
        sin/cos: e*S_e = sum(k * u_k * C_(e-k)),  e*C_e = -sum(k * u_k * S_(e-k))

    Each weight is a*k/e + b, and sin/cos is exp of i*u over complex
    coefficients, C + i*S, whose products by i are exact.  With alpha = -1
    every weight is exactly -1, so 1/(1 + u) divides nothing.  The cost is
    O(output terms x terms of u), and no term past the limit is formed.
    """
    grid, h = _on_grid(limit.numerator, limit.denominator * den, u._den)
    m = grid // u._den
    ks, us = [], []
    for k, c in u._iterms:
        k *= m
        if k >= h:
            break  # the terms are sorted
        ks.append(k)
        us.append(c)
    a, b = (alpha + 1.0, -1.0) if f == "pow" else (1.0, -1.0) if f == "ln" else (1.0, 0.0)
    if f == "sincos":
        us = [1j * c for c in us]
    first = dict(zip(ks, us)) if f == "ln" else {}  # the u_e of ln
    exps, cs = [0], [0.0 if f == "ln" else 1.0]
    # The closure in ascending order is a merge of the rows exps + k, one
    # per term of u: row i stands at exps[at[i]], and nxt[i] is its next
    # exponent.  The rows that reach e are the terms with e - k in the
    # closure, so they are the terms of e's dot product.
    rows = list(zip(range(len(ks)), ks, us, [a * k for k in ks]))
    at = [0] * len(ks)
    nxt = ks[:]
    while nxt:
        e = min(nxt)
        if e >= h:
            break
        exps.append(e)
        s = first.get(e, 0.0)
        for i, k, uk, ak in rows:
            if k > e:
                break  # the rows are sorted, and each lies above its k
            if nxt[i] == e:
                p = at[i]
                s += (ak / e + b) * uk * cs[p]
                at[i] = p + 1
                nxt[i] = exps[p + 1] + k
        cs.append(s)
    if f == "sincos":
        return (
            _number(grid, h, [(e, c.imag) for e, c in zip(exps, cs) if c.imag != 0.0]),
            _number(grid, h, [(e, c.real) for e, c in zip(exps, cs) if c.real != 0.0]),
        )
    return _number(grid, h, [(e, c) for e, c in zip(exps, cs) if c != 0.0])


def monomial(exponent, coefficient: Scalar = 1.0, horizon: Valuation = INF) -> LCNumber:
    """The single-term number coefficient * d^exponent."""
    return LCNumber(((_as_exponent(Fraction(exponent)), float(coefficient)),), horizon)


ZERO = LCNumber._from_grid(1, None, ())  # the one exact zero
ONE = LCNumber(((Fraction(0), 1.0),), INF)
#: The canonical positive infinitesimal: single term 1.0 * d^1.
D = LCNumber(((Fraction(1), 1.0),), INF)


def as_lc(x) -> LCNumber:
    """x as an LCNumber; ints, floats and Fractions are converted exactly."""
    coerced = LCNumber._coerce(x)
    if coerced is None:
        raise TypeError(f"expected an LC number, got {type(x).__name__}")
    return coerced


def valuation(x: LCNumber) -> Valuation:
    return x.valuation()


def compare(x: LCNumber, y) -> Ordering:
    return x.compare(y)


def leading_difference(x: LCNumber, y: LCNumber, tol: float) -> LCNumber:
    """The first term of x - y below both horizons whose coefficient is
    larger than tol >= 0 in size, as a number of that one term with the
    horizon of x - y; no terms when there is none.

    It is the leading term of ``(x - y).without_small(tol)``, found by one
    merge over the two term lists, with the float subtraction of
    ``__add__``, that builds no difference.  It mirrors the walk of
    ``compare``, which keeps its own loop, without the tolerance test, for
    the field's order.
    """
    a, b = x._iterms, y._iterms
    da, db = x._den, y._den
    den = da * db // math.gcd(da, db)
    fa, fb = den // da, den // db
    ha, hb = x._h, y._h
    if ha is not None:
        ha *= fa
    if hb is not None:
        hb *= fb
    h = ha if hb is None else hb if ha is None or hb < ha else ha
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        e, ca = a[i]
        eb, cb = b[j]
        e *= fa
        eb *= fb
        if e == eb:
            c = ca - cb
            i += 1
            j += 1
        elif e < eb:
            c = ca
            i += 1
        else:
            e, c = eb, -cb
            j += 1
        if h is not None and e >= h:
            return _number(den, h, ())  # the terms are sorted
        if abs(c) > tol:
            return _number(den, h, ((e, c),))
    while i < na:  # the tail of one list alone
        e, c = a[i]
        e *= fa
        if h is not None and e >= h:
            break
        if abs(c) > tol:
            return _number(den, h, ((e, c),))
        i += 1
    while j < nb:
        e, c = b[j]
        e *= fb
        if h is not None and e >= h:
            break
        if abs(c) > tol:
            return _number(den, h, ((e, -c),))
        j += 1
    return _number(den, h, ())


def compare_lead(lhs: LCNumber, rhs: LCNumber):
    """(lhs.compare(rhs), lambda(rhs) - lambda(lhs)) for an lhs of at most
    one term, read off the two leading terms alone.

    The order is None when the two leading terms are equal, where
    ``compare`` would go on to read rhs's second term.  The gap is
    (numerator, denominator) on the two grids, no ``Fraction``: (-1, 0) for
    -inf when lhs has no visible terms, else (1, 0) for +inf when rhs has
    none.
    """
    a, b = lhs._iterms, rhs._iterms
    if not a:
        gap = (-1, 0)
    elif not b:
        gap = (1, 0)
    else:
        (ea, ca), (eb, cb) = a[0], b[0]
        da, db = lhs._den, rhs._den
        gap = (eb * da - ea * db, da * db)
        if not gap[0] and ca == cb:
            return None, gap
    return lhs.compare(rhs), gap


def power_leads(c: LCNumber, x: LCNumber, ns: Sequence[int]):
    """{n: the leading term of c * powers(x, ns, ONE)[n], as a number of that
    one term with the product's horizon} for each n >= 0 of ns, from the two
    leading terms alone; None when one of them may differ.

    The coefficient is c's leading one times x's to the n, formed by
    ``powers`` on the float: each product's leading coefficient is the one
    product of its factors' leading ones, so the same chain in the same
    order gives the same bits.  The exponent is lambda(c) + n*lambda(x), and
    the horizon is that of ``__mul__``, min(h(c) + n*lambda(x),
    h(x) + (n-1)*lambda(x) + lambda(c)), where x^0 is the exact ``ONE``.
    None when c or x has no visible term, or a float of the chain or of a
    product is 0.0 or not finite: there a product drops or spoils its lead.
    """
    a, b = c._iterms, x._iterms
    if not a or not b:
        return None
    (ea, ca), (eb, cb) = a[0], b[0]
    da, db = c._den, x._den
    den = da * db // math.gcd(da, db)
    fa, fb = den // da, den // db
    ea *= fa
    eb *= fb
    ha = None if c._h is None else c._h * fa
    hb = None if x._h is None else x._h * fb
    chain = powers(cb, ns, 1.0)
    out = {}
    for n in ns:
        coeff = ca * chain[n]  # 0.0, inf or nan if any float on its way was
        if coeff == 0.0 or not math.isfinite(coeff):
            return None
        h = None if ha is None else ha + n * eb
        if n and hb is not None:
            k = hb + (n - 1) * eb + ea
            if h is None or k < h:
                h = k
        out[n] = _number(den, h, ((ea + n * eb, coeff),))
    return out


def gap_exceeds(a: tuple, b: tuple) -> bool:
    """a > b for two gaps as ``compare_lead`` gives them."""
    if a[1] and b[1]:
        return a[0] * b[1] > b[0] * a[1]
    return (0 if a[1] else a[0]) > (0 if b[1] else b[0])


def gap_value(gap: tuple) -> Valuation:
    """A gap of ``compare_lead`` as a valuation: a Fraction, or +-inf."""
    num, den = gap
    return Fraction(num, den) if den else INF if num > 0 else -INF


def ultrametric(x: LCNumber, y: LCNumber) -> float:
    """The valuation metric exp(-lambda(x - y)), with exp(-inf) = 0."""
    lam = (x - y).valuation()
    if lam == INF:
        return 0.0
    try:
        return math.exp(-float(lam))
    except OverflowError:  # exp(-lambda) lies past binary64
        return math.inf if lam < 0 else 0.0


def _format_coeff(c: float) -> str:
    if abs(c) < 1e16 and c == int(c):  # inf and nan fail the first test
        return str(int(c))
    return repr(c)


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e.numerator}/{e.denominator})"


def format_lc(x: LCNumber) -> str:
    """Render in the LC literal grammar, e.g. ``2 + 3d^(1/2) - d^2``."""
    if x.is_zero:
        return "0"
    pieces = []
    for idx, (e, c) in enumerate(x.terms):
        mag = abs(c)
        if e == 0:
            body = _format_coeff(mag)
        else:
            coeff_part = "" if mag == 1.0 else _format_coeff(mag)
            if e == 1:
                body = f"{coeff_part}d"
            else:
                body = f"{coeff_part}d^{_format_exponent(e)}"
        if idx == 0:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)
