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

Values built from parsed literals get the configurable default horizon
(exponent 32 unless overridden); values built programmatically are exact
(infinite horizon) unless a horizon is supplied.

Internally the term list lives on a common-denominator integer grid (one
denominator per number, integer exponents), so the hot arithmetic paths are
pure machine-int loops; the rational view is materialized on demand.  The
horizon algebra stays on that grid too: a product of exactly-known factors
does no horizon arithmetic, and a finite horizon costs one ``Fraction``.
``LCNumber.terms`` builds a ``Fraction`` per term, so test emptiness with
``bool(x)`` or ``x.is_zero``, never with ``x.terms``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from fractions import Fraction
from operator import methodcaller
from typing import Iterable, Union

from .errors import ZeroOperandError

ExpQ = Fraction
Scalar = Union[int, float, Fraction]
#: Valuations and horizons: an exact rational, or +/-inf (floats only there).
Valuation = Union[Fraction, float]

# A horizon is a Fraction or inf, so the hot paths test for inf with
# ``type(h) is float``: ``h == INF`` on a Fraction runs Fraction.__eq__.
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
    h = Fraction(horizon)
    if h <= 0:
        raise ValueError("default horizon must be positive")
    return h


def set_default_horizon(horizon: Scalar) -> None:
    """Set the default horizon of the current thread or task."""
    _default_horizon.set(_checked_horizon(horizon))


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


def _as_horizon(horizon) -> Valuation:
    """Normalize a horizon argument to a Fraction or the float INF."""
    return INF if horizon == INF else Fraction(horizon)


def _ceil_bound(horizon: Valuation, den: int):
    """Integer b with (e < horizon*den) == (e < b) for integers e; None if inf."""
    if type(horizon) is float:
        return None
    return -((-horizon.numerator * den) // horizon.denominator)


def _shifted(horizon: Fraction, num: int, den: int) -> Fraction:
    """The finite horizon plus num/den, built as a single Fraction."""
    hd = horizon.denominator
    return Fraction(horizon.numerator * den + num * hd, hd * den)


def _canonical(den: int, items):
    """Reduce grid so gcd(den, all exponents) == 1; items sorted, zero-free."""
    if not items:
        return 1, ()
    g = den
    for e, _ in items:
        g = math.gcd(g, e)
        if g == 1:
            return den, tuple(items)
    if g > 1:
        den //= g
        items = tuple((e // g, c) for e, c in items)
    return den, tuple(items)


def power(x, n: int, one, inv=methodcaller("inv")):
    """x^n by square-and-multiply, after one inversion if n < 0, in any
    domain with ``*``, its unit ``one`` and its reciprocal ``inv``."""
    if n < 0:
        x, n = inv(x), -n
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


class LCNumber:
    """A truncated Hahn series: sorted (exponent, coefficient) terms + horizon.

    Instances are immutable; all operations are pure and safe to share
    between threads.  Use ``+ - * / ** abs()`` as usual; mixed arithmetic
    with int/float/Fraction treats the scalar as exactly known.
    """

    __slots__ = ("_den", "_iterms", "horizon", "_view")

    def __init__(self, terms: Iterable[tuple] = (), horizon: Valuation = INF):
        horizon = _as_horizon(horizon)
        den = 1
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
        bound = _ceil_bound(horizon, den)
        items = sorted(
            (e, c)
            for e, c in acc.items()
            if c != 0.0 and (bound is None or e < bound)
        )
        den, items = _canonical(den, items)
        _set_den(self, den)
        _set_iterms(self, items)
        _set_horizon(self, horizon)
        _set_view(self, None)

    @classmethod
    def _from_grid(cls, den: int, iterms: tuple, horizon: Valuation) -> "LCNumber":
        # Raw constructor: iterms already canonical, sorted, zero-free,
        # clipped below horizon.
        obj = object.__new__(cls)
        _set_den(obj, den)
        _set_iterms(obj, iterms)
        _set_horizon(obj, horizon)
        _set_view(obj, None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    @classmethod
    def from_real(cls, value: Scalar, horizon: Valuation = INF) -> "LCNumber":
        horizon = _as_horizon(horizon)
        c = float(value)
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r} at exponent 0")
        if c == 0.0 or (horizon != INF and horizon <= 0):
            return cls._from_grid(1, (), horizon)
        return cls._from_grid(1, ((0, c),), horizon)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The visible terms as ((exponent: Fraction, coefficient: float), ...).

        The first access builds one ``Fraction`` per term.  To test for
        emptiness use ``bool(x)`` or ``x.is_zero``, which read the grid.
        """
        view = self._view
        if view is None:
            den = self._den
            view = tuple((Fraction(e, den), c) for e, c in self._iterms)
            _set_view(self, view)
        return view

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
        if type(self.horizon) is not float:
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
        items = tuple(t for t in self._iterms if t[0] > 0)
        den, items = _canonical(self._den, items)
        return LCNumber._from_grid(den, items, self.horizon)

    def truncate(self, horizon: Valuation) -> "LCNumber":
        """Restrict knowledge to ``min(self.horizon, horizon)``."""
        horizon = _as_horizon(horizon)
        h = min(self.horizon, horizon)
        if h == self.horizon:
            return self
        bound = _ceil_bound(h, self._den)
        items = tuple(t for t in self._iterms if t[0] < bound)
        den, items = _canonical(self._den, items)
        return LCNumber._from_grid(den, items, h)

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for _, c in self._iterms), default=0.0)

    def without_small(self, tol: float) -> "LCNumber":
        """The sub-series of terms with ``abs(coefficient) > tol``."""
        items = tuple(t for t in self._iterms if abs(t[1]) > tol)
        den, items = _canonical(self._den, items)
        return LCNumber._from_grid(den, items, self.horizon)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, LCNumber):
            return value
        if isinstance(value, (int, float, Fraction)):
            return LCNumber.from_real(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ha, hb = self.horizon, other.horizon
        if type(hb) is float:
            horizon = ha
        elif type(ha) is float:
            horizon = hb
        else:
            horizon = min(ha, hb)
        da, db = self._den, other._den
        if da == db:
            den = da
            a, b = self._iterms, other._iterms
        else:
            den = da * db // math.gcd(da, db)
            fa, fb = den // da, den // db
            a = [(e * fa, c) for e, c in self._iterms]
            b = [(e * fb, c) for e, c in other._iterms]
        bound = _ceil_bound(horizon, den)
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ea, eb = a[i][0], b[j][0]
            if ea == eb:
                c = a[i][1] + b[j][1]
                if c != 0.0:
                    out.append((ea, c))
                i += 1
                j += 1
            elif ea < eb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        if i < na:
            out.extend(a[i:])
        if j < nb:
            out.extend(b[j:])
        if bound is not None:
            out = [t for t in out if t[0] < bound]
        den, items = _canonical(den, out)
        return LCNumber._from_grid(den, items, horizon)

    __radd__ = __add__

    def __neg__(self):
        return LCNumber._from_grid(
            self._den, tuple((e, -c) for e, c in self._iterms), self.horizon
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _monomial_mul(self, coeff: float, num: int, den: int, horizon: Valuation):
        """self * coeff * d^(num/den), clipped at ``horizon``."""
        da = self._den
        grid = da * den // math.gcd(da, den)
        fa = grid // da
        off = num * (grid // den)
        bound = _ceil_bound(horizon, grid)
        out = []
        for e, c in self._iterms:
            e2 = e * fa + off
            c2 = c * coeff
            if c2 != 0.0 and (bound is None or e2 < bound):
                out.append((e2, c2))
        grid, items = _canonical(grid, out)
        return LCNumber._from_grid(grid, items, horizon)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._iterms, other._iterms
        ha, hb = self.horizon, other.horizon
        if not a or not b:
            # A factor with no visible terms is zero only below its horizon,
            # so its valuation is at least that horizon: the product is a
            # visible zero up to h(x*y) = min(h(x) + lambda(y), h(y) + lambda(x)).
            la = ha if not a else self.valuation()
            lb = hb if not b else other.valuation()
            horizon = min(ha + lb, hb + la)
            return ZERO if horizon == INF else LCNumber._from_grid(1, (), horizon)
        da, db = self._den, other._den
        # h(x*y) = min(h(x) + lambda(y), h(y) + lambda(x)), on the grid;
        # an infinite horizon contributes nothing to the min.
        if type(ha) is float:
            horizon = ha if type(hb) is float else _shifted(hb, a[0][0], da)
        elif type(hb) is float:
            horizon = _shifted(ha, b[0][0], db)
        else:
            horizon = min(_shifted(ha, b[0][0], db), _shifted(hb, a[0][0], da))
        if len(a) == 1:
            return other._monomial_mul(a[0][1], a[0][0], da, horizon)
        if len(b) == 1:
            return self._monomial_mul(b[0][1], b[0][0], db, horizon)
        if da == db:
            den = da
        else:
            den = da * db // math.gcd(da, db)
            fa, fb = den // da, den // db
            a = [(e * fa, c) for e, c in a]
            b = [(e * fb, c) for e, c in b]
        bound = _ceil_bound(horizon, den)
        acc: dict[int, float] = {}
        get = acc.get
        for ea, ca in a:
            room = None if bound is None else bound - ea
            for eb, cb in b:
                if room is not None and eb >= room:
                    break  # b is sorted; later exponents only larger
                k = ea + eb
                acc[k] = get(k, 0.0) + ca * cb
        items = sorted((e, c) for e, c in acc.items() if c != 0.0)
        den, items = _canonical(den, items)
        return LCNumber._from_grid(den, items, horizon)

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

        Factors the leading monomial a*d^q and sums the geometric series of
        the infinitesimal remainder.  An exactly-known multi-term input
        would need infinitely many terms, so its inverse is truncated at the
        default horizon.
        """
        if not self._iterms:
            raise ZeroDivisionError("inverse of a value with no visible terms")
        q = Fraction(self._iterms[0][0], self._den)
        a = self._iterms[0][1]
        if len(self._iterms) == 1:
            horizon = self.horizon if self.horizon == INF else self.horizon - 2 * q
            return LCNumber(((-q, 1.0 / a),), horizon)
        target = (
            self.horizon - 2 * q if self.horizon != INF else default_horizon()
        )
        rel = target + q  # horizon in the d^q-factored frame
        neg_u = -self._unit_part(rel)
        total = ONE
        power = neg_u
        while power._iterms:
            total = total + power
            power = (power * neg_u).truncate(rel)
        return total._monomial_mul(1.0 / a, -self._iterms[0][0], self._den, target)

    def _unit_part(self, limit: Fraction) -> "LCNumber":
        """u in self = a*d^q*(1 + u), known up to ``limit`` <= h(self) - q.

        u is cut below ``limit``, its horizon, and a coefficient c/a that
        underflows to 0 is dropped.
        """
        q, a = self._iterms[0]
        bound = _ceil_bound(limit, self._den)
        items = []
        for e, c in self._iterms[1:]:
            if e - q >= bound:
                break  # the terms are sorted
            c /= a
            if c != 0.0:
                items.append((e - q, c))
        den, items = _canonical(self._den, items)
        return LCNumber._from_grid(den, items, limit)

    # -- order -------------------------------------------------------------

    def compare(self, other) -> Ordering:
        """Three-valued order: the sign of x - y, decided at its valuation.

        ``EQUAL_AT_HORIZON`` means x - y has no visible terms; callers that
        need strict order must treat it as undecidable, not as equality.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError(f"cannot compare LCNumber with {type(other).__name__}")
        diff = self - other
        if not diff._iterms:
            return Ordering.EQUAL_AT_HORIZON
        return Ordering.GREATER if diff._iterms[0][1] > 0 else Ordering.LESS

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
        # compare() for value equality at a shared horizon.
        if not isinstance(other, LCNumber):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return (
            self._den == other._den
            and self._iterms == other._iterms
            and self.horizon == other.horizon
        )

    def __hash__(self):
        return hash((self._den, self._iterms, self.horizon))

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_lc(self)

    def __repr__(self):
        h = "inf" if self.horizon == INF else str(self.horizon)
        return f"LCNumber({format_lc(self)!r}, horizon={h})"


# The slots' own setters: they bypass the raising __setattr__ without the
# per-call lookup of object.__setattr__.
_set_den = LCNumber._den.__set__
_set_iterms = LCNumber._iterms.__set__
_set_horizon = LCNumber.horizon.__set__
_set_view = LCNumber._view.__set__


def monomial(exponent, coefficient: Scalar = 1.0, horizon: Valuation = INF) -> LCNumber:
    """The single-term number coefficient * d^exponent."""
    return LCNumber(((_as_exponent(Fraction(exponent)), float(coefficient)),), horizon)


ZERO = LCNumber((), INF)
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


def abs_val(x: LCNumber) -> LCNumber:
    return abs(x)


def much_less(x: LCNumber, y: LCNumber) -> bool:
    """True when |x| is infinitely smaller than |y|: n|x| < |y| for all n."""
    if x.is_zero:
        raise ZeroOperandError("left operand has no visible terms")
    if y.is_zero:
        raise ZeroOperandError("right operand has no visible terms")
    return x.valuation() > y.valuation()


def ultrametric(x: LCNumber, y: LCNumber) -> float:
    """The valuation metric exp(-lambda(x - y)), with exp(-inf) = 0."""
    lam = (x - y).valuation()
    if lam == INF:
        return 0.0
    return math.exp(-float(lam))


def approx_equal(x: LCNumber, y, rel_tol: float = 1e-12) -> bool:
    """Value equality up to horizon, tolerating relative binary64 noise.

    The difference's coefficients are measured against the largest
    coefficient magnitude appearing in either operand, which is the natural
    scale of the accumulated rounding.  Exact (e.g. dyadic) computations
    pass with a zero difference.
    """
    y = LCNumber._coerce(y)
    diff = x - y
    if diff.is_zero:
        return True
    scale = max(x.max_abs_coefficient(), y.max_abs_coefficient())
    return all(abs(c) <= rel_tol * scale for _, c in diff.terms)


def _format_coeff(c: float) -> str:
    if c == int(c) and abs(c) < 1e16:
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
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
