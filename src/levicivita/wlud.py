"""Finite-scale checkers for uniform Taylor-remainder bounds and the
analyticity certificates built on them.

A function f is k-times weakly locally uniformly differentiable at x0 when,
for every eps > 0, some ball (x0-delta, x0+delta) satisfies

    |f(y) - sum(f^(j)(x)/j! (y-x)^j, j <= k)| <= eps*|y-x|^k

for ALL x, y in the ball.  The universal quantifier cannot be discharged by
computation, so the checkers sample the ball with a deterministic grid plus
seeded pseudo-random offsets and report verdicts "at scale": evidence, not
proof.  A fail verdict always carries a concrete witness pair that can be
replayed with the field operations.

Each pair is decided at each order from leading terms: |residual| and
eps*|y-x|^k are ordered by the first term where the two differ, and the
margin is the gap of their valuations.  So the walk finds the residual's
first visible term (below both horizons and above the binary64 noise floor)
and weighs it against the bound's leading term, which it forms alone from
the leading terms of eps and |y-x|.  It builds the full |residual| and the
full bound only for the pair an order reports and for a pair whose two
leading terms are equal; every verdict and report equals the one the full
numbers give.

The delta ladder reads only each check's verdict, and with eps = 1 a pair's
verdict is read at lambda(rhs) = k*lambda(y-x).  So with two or more orders
left its walk reads each pair first on Taylor sums formed only below
max(lambda(rhs)) + 1, read off the bounds' leading terms, not up to the
working horizon.  Those cut sums can prove a pair below the bound or
indistinguishable at horizon, so those readings stand; every other
reading, a tie or a violation, is read again on the full sums.  This is
adaptive evaluation in the sense of Shewchuk (Discrete Comput. Geom. 18,
1997): the fast filter keeps only the answers it certifies, and the full
bound is built only where something reads it.  Every ladder entry is the
one the full sums give.

The analyticity certificates chain these checks: a delta ladder for eps = 1
at each order, a growth estimate lambda0 for the jet coefficients, a
computed convergence radius, and a sampled verification of the Taylor
identity inside that radius: on the interval around x0 with one variable
(recentred at sampled x != x0), at the centre itself with several.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    INF,
    LCNumber,
    ONE,
    Ordering,
    Valuation,
    ZERO,
    as_lc,
    compare_lead,
    format_lc,
    gap_exceeds,
    gap_value,
    leading_difference,
    monomial,
    power_leads,
    powers,
)
from .expr import Expr, eval_lc
from .calculus import (
    PartialJet, _checked_point, partial_jet, partial_taylor_eval, partial_taylor_sums
)
from .series import (
    PowerSeries, _growth, _taylor_sum, _working_horizon, growth_window, recenter
)

_NEG_INF = -math.inf

#: Relative scale below which residual coefficients count as binary64 noise
#: rather than a visible violation (exact corpora still produce exact zeros).
RESIDUAL_REL_TOL = 1e-12


# The deterministic sample grid: offsets c * d^m for each grid coefficient c,
# both signs, with m from lambda(delta)+1 to lambda(delta)+4 in steps of 1/2.
_GRID_COEFFICIENTS = (1.0, 0.5, 2.0)
_DEPTH_START, _DEPTH_STOP, _DEPTH_STEP = Fraction(1), Fraction(4), Fraction(1, 2)


@dataclass(frozen=True)
class SamplingPlan:
    """How the quantifier over a ball is discharged by sampling: the
    deterministic grid plus seeded pseudo-random multi-term offsets."""

    random_offsets: int = 4
    seed: int = 0xC0FFEE
    max_pairs: int = 400

    def __post_init__(self):
        if self.random_offsets < 0:
            raise ValueError(f"random_offsets must be >= 0, got {self.random_offsets}")
        if self.max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {self.max_pairs}")

    def offsets(self, delta: LCNumber) -> list[LCNumber]:
        lam = delta.valuation()
        if lam == INF:
            raise ValueError("delta must be a positive nonzero radius")
        depths = []
        m = lam + _DEPTH_START
        while m <= lam + _DEPTH_STOP:
            depths.append(m)
            m = m + _DEPTH_STEP
        out = []
        for m in depths:
            for c in _GRID_COEFFICIENTS:
                out.append(monomial(m, c))
                out.append(monomial(m, -c))
        rng = random.Random(self.seed)
        for _ in range(self.random_offsets):
            nterms = rng.randint(2, 3)
            exps = rng.sample(depths, min(nterms, len(depths)))
            terms = []
            for e in exps:
                # Dyadic coefficients keep exact corpora (polynomials with
                # dyadic data) exactly zero-remainder under binary64.
                c = (rng.randint(16, 128) / 64.0) * rng.choice((1.0, -1.0))
                terms.append((e, c))
            out.append(LCNumber(terms))
        return list(dict.fromkeys(out))

    def points_nd(
        self, x0: Sequence[LCNumber], delta: LCNumber
    ) -> list[tuple[LCNumber, ...]]:
        n = len(x0)
        offs = self.offsets(delta)
        vectors = []
        span = len(offs)
        stride = max(1, span // n + 1)
        for idx in range(span):
            vectors.append(
                tuple(offs[(idx + i * stride) % span] for i in range(n))
            )
        for axis in range(n):  # axis-aligned samples
            for o in offs[: min(4, span)]:
                vectors.append(
                    tuple(o if i == axis else ZERO for i in range(n))
                )
        return list(
            dict.fromkeys(tuple(x0[i] + vec[i] for i in range(n)) for vec in vectors)
        )

    def pair_indices(self, count: int) -> list[tuple[int, int]]:
        """The ordered pairs (i, j), i != j, of count points, i first then j,
        or max_pairs of them evenly spread over that list.

        Pair t of the list is i = t // (count-1) and j = t % (count-1), plus
        one when that is at least i, so the list itself is never built.
        """
        if count < 2:
            return []
        total = count * (count - 1)
        if total <= self.max_pairs:
            picks = range(total)
        else:
            step = total / self.max_pairs
            picks = [int(i * step) for i in range(self.max_pairs)]
        out = []
        for t in picks:
            i, j = divmod(t, count - 1)
            out.append((i, j + (j >= i)))
        return out


@dataclass(frozen=True)
class WludReport:
    """Outcome of one sampled uniform-remainder check."""

    x0: object  # LCNumber, or tuple of them for the n-variable check
    k: int
    epsilon: LCNumber
    delta: LCNumber
    samples: int
    result: str  # "pass" | "fail" | "inconclusive" (no pair decided)
    worst_pair: Optional[tuple]  # (x, y, lhs, rhs)
    margin: Optional[Valuation]  # lambda(rhs) - lambda(lhs); > 0 means violation
    inconclusive: int = 0  # pairs whose deciding comparison was ambiguous


@dataclass(frozen=True)
class AnalyticityCertificate:
    x0: object
    jmax: int
    kmax: int
    window: int
    lambda0: Valuation
    lambda0_head: Valuation
    delta_ladder: tuple  # ((k, delta_k, lambda(delta_k)), ...)
    t: Optional[int]
    required_radius_lambda: Optional[Fraction]
    delta: Optional[LCNumber]
    identity_checks: tuple  # ((x, y, residual lambda-level), ...)
    verdict: str  # "certified_at_scale" | "refuted" | "inconclusive"


def default_delta_ladder() -> list[LCNumber]:
    """The descending candidate radii d^(m/2), m = 0..8."""
    return [monomial(Fraction(m, 2)) for m in range(9)]


def _require_positive(value: LCNumber, name: str) -> LCNumber:
    if value.compare(ZERO) is not Ordering.GREATER:
        raise ValueError(f"{name} must be visibly positive")
    return value


def _noise_floor(fy_scale: float, approx: LCNumber) -> float:
    """The size at or below which a coefficient of f(y) - approx is binary64
    noise, from fy_scale, f(y)'s ``max_abs_coefficient()``.

    Exact computations (dyadic data) are unaffected: their residuals are
    exactly zero or carry genuinely sized coefficients.
    """
    return RESIDUAL_REL_TOL * max(fy_scale, approx.max_abs_coefficient())


def wlud_check_1d(
    f: Expr,
    var: str,
    x0,
    k: int,
    eps,
    delta,
    plan: Optional[SamplingPlan] = None,
) -> WludReport:
    """Sample the order-k uniform remainder bound on (x0-delta, x0+delta).

    Each sampled pair (x, y) tests |f(y) - T_k[f, x](y)| <= eps*|y-x|^k with
    the jet of f taken at x.  This is ``wlud_check_nd`` with one variable,
    reported with plain numbers in place of 1-tuples.
    """
    r = wlud_check_nd(f, [var], (x0,), k, eps, delta, plan)
    worst = r.worst_pair
    if worst is not None:
        (x,), (y,), lhs, rhs = worst
        worst = (x, y, lhs, rhs)
    return replace(r, x0=r.x0[0], worst_pair=worst)


def _sup_norm(components: Sequence[LCNumber]) -> LCNumber:
    best = abs(components[0])
    for comp in components[1:]:
        a = abs(comp)
        if a.compare(best) is Ordering.GREATER:
            best = a
    return best


def wlud_check_nd(
    f: Expr,
    vars: Sequence[str],
    x0: Sequence,
    k: int,
    eps,
    delta,
    plan: Optional[SamplingPlan] = None,
) -> WludReport:
    """Sample the order-k uniform remainder bound on the sup-norm ball
    B_delta(x0).

    Tests |f(eta) - f(xi) - sum((1/j!) ((eta-xi).grad)^j f(xi), j=1..k)|
    <= eps*|eta-xi|^k at sampled xi, eta, with one multivariate jet per
    sample point: the partials at xi come from xi's jet, and f(eta) is
    coefficient 0 of eta's.  Fails fast on the first violating pair; pairs
    whose comparison is indistinguishable at horizon are counted as
    inconclusive rather than decided, and a check that decides no pair is
    inconclusive.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    plan = plan or SamplingPlan()
    names, center = _checked_point(vars, x0)
    eps = _require_positive(as_lc(eps), "eps")
    delta = _require_positive(as_lc(delta), "delta")
    (report,) = _run_check(f, names, center, [k], k, eps, delta, plan)
    return report


@dataclass(slots=True)
class _Tally:
    """The evidence one order has gathered so far in a pair walk."""

    k: int
    samples: int = 0
    inconclusive: int = 0
    margin: Optional[tuple] = None  # as compare_lead gives it
    pair: Optional[tuple] = None
    failed: bool = False


def _run_check(
    f, names, center, ks, jet_order, eps, delta, plan, verdict_only=False
) -> list[WludReport]:
    """The order-k checks for every k in the ascending ks, in one pair walk.

    Each sample point is evaluated once, as a jet of jet_order >= max(ks),
    and keeps f's value (coefficient 0 of the jet) with its largest
    coefficient size: a pair reads T_k[f, xi] off the jet at xi and f(eta)
    off the point eta.  An order decides the pair from the first visible
    term of f(eta) - T_k alone (``core.leading_difference``), weighed by
    ``core.compare_lead`` against the leading term of eps*|v|^k, which
    ``core.power_leads`` forms from those of eps and |v|.  It builds the
    full |residual| and the full eps*|v|^k (``core.powers``) only for the
    pair it reports, or when the two leading terms tie; where a lead would
    underflow or overflow, the pair takes the full bounds throughout.  An
    order leaves the walk at its first violating pair; the walk ends when no
    order is left.  Returns one report per order, in the order of ks.

    With ``verdict_only`` the reports keep no worst pair and no margin, and
    a pair with two or more live orders and lambda(v) > 0 is read first on
    Taylor sums cut at H = lambda(eps) + max(orders)*lambda(v) + 1, the top
    bound's leading exponent plus one (no cut on the full bounds).  Below
    H they equal the uncut sums to the bit, so the uncut residual's first
    visible term is the cut one or a later one, and lambda(rhs) < H: a
    reading of LESS or EQUAL_AT_HORIZON on the cut sums is final.  Every
    other reading, a tie or GREATER, is read again on the pair's uncut sums.
    """
    keep = not verdict_only  # keep each order's reported pair and margin
    pts = plan.points_nd(center, delta)
    tallies = [_Tally(k) for k in ks]
    live, orders = tallies, list(ks)
    seen: dict[int, tuple] = {}  # point index: (jet, f(point), its scale)
    constant = (0,) * len(center)
    for i, j in plan.pair_indices(len(pts)):
        xi, eta = pts[i], pts[j]
        for p in (i, j):
            if p not in seen:
                jet = partial_jet(f, names, pts[p], jet_order)
                fp = jet.table[constant]
                seen[p] = (jet, fp, fp.max_abs_coefficient())
        jet_xi = seen[i][0]
        _, feta, feta_scale = seen[j]
        v = tuple(eta[m] - xi[m] for m in range(len(center)))
        norm = _sup_norm(v)
        rhss = power_leads(eps, norm, orders)  # the bounds' leading terms
        built = rhss is None  # a lead under- or overflows: the full bounds
        if built:
            norm_powers = powers(norm, orders, ONE)
            rhss = {k: eps * norm_powers[k] for k in orders}
        cut = INF
        if verdict_only and len(orders) > 1 and not built and norm.valuation() > 0:
            cut = rhss[orders[-1]].valuation() + 1
        full = None  # the uncut sums, once a cut reading needs them
        dropped = False
        sums = partial_taylor_sums(jet_xi, v, orders, cut)
        for idx, (t, approx) in enumerate(zip(live, sums)):
            t.samples += 1
            rhs, at = rhss[t.k], cut
            while True:
                floor = _noise_floor(feta_scale, approx)
                order, margin = compare_lead(abs(leading_difference(feta, approx, floor)), rhs)
                # on cut sums only LESS and EQUAL_AT_HORIZON are final
                if at is INF or order is Ordering.LESS or order is Ordering.EQUAL_AT_HORIZON:
                    break
                if full is None:
                    full = partial_taylor_sums(jet_xi, v, orders)
                approx, at = full[idx], INF
            wider = keep and (t.margin is None or gap_exceeds(margin, t.margin))
            if wider or order is None or (keep and order is Ordering.GREATER):
                if not built:  # the bound in full, for the report or a tie
                    rhs = eps * powers(norm, (t.k,), ONE)[t.k]
                lhs = abs((feta - approx).without_small(floor))
                if order is None:  # equal leading terms: the full numbers decide
                    order = lhs.compare(rhs)
                if wider or (keep and order is Ordering.GREATER):
                    t.margin = margin
                    t.pair = (xi, eta, lhs, rhs)
            if order is Ordering.EQUAL_AT_HORIZON:
                t.inconclusive += 1
            elif order is Ordering.GREATER:
                t.failed = dropped = True
        if dropped:
            live = [t for t in live if not t.failed]
            if not live:
                break
            orders = [t.k for t in live]
    return [
        WludReport(
            center, t.k, eps, delta, t.samples,
            "fail" if t.failed else "inconclusive" if t.inconclusive == t.samples else "pass",
            t.pair, None if t.margin is None else gap_value(t.margin), t.inconclusive,
        )
        for t in tallies
    ]


def delta_ladder_search(
    f: Expr,
    var: str,
    x0,
    kmax: int,
    ladder: Optional[Sequence[LCNumber]] = None,
    plan: Optional[SamplingPlan] = None,
) -> list[tuple[int, LCNumber, Valuation]]:
    """For each k <= kmax, the first ladder radius passing the eps=1 check.

    The ladder must be sorted descending; orders with no passing candidate
    are simply absent from the result (absence is data, not an error).
    """
    return _delta_ladder_search_nd(f, [var], (as_lc(x0),), kmax, ladder, plan)


def _delta_ladder_search_nd(f, names, x0, kmax, ladder, plan):
    # One sweep per candidate decides every order no earlier candidate
    # passed; jets are taken at kmax for all of them.
    ladder = list(ladder) if ladder is not None else default_delta_ladder()
    plan = plan or SamplingPlan()
    pending = list(range(1, kmax + 1))
    passed_at: dict[int, LCNumber] = {}
    for candidate in ladder:
        if not pending:
            break
        _require_positive(candidate, "ladder candidate")
        for report in _run_check(f, names, x0, pending, kmax, ONE, candidate, plan, True):
            if report.result == "pass":
                passed_at[report.k] = candidate
        pending = [k for k in pending if k not in passed_at]
    return [(k, d, d.valuation()) for k, d in sorted(passed_at.items())]


def _resolve_window(jmax: int, kmax: int, window: Optional[int]) -> int:
    """Check the orders; the growth window is ``series.growth_window``."""
    if jmax < 1 or kmax < 1:
        raise ValueError("jmax and kmax must be >= 1")
    return growth_window(jmax, window)


def analyticity_certificate_1d(
    f: Expr,
    var: str,
    x0,
    jmax: int,
    kmax: int,
    ladder: Optional[Sequence[LCNumber]] = None,
    plan: Optional[SamplingPlan] = None,
    window: Optional[int] = None,
) -> AnalyticityCertificate:
    """Assemble the evidence that f is analytic on a ball around x0.

    Steps: jet to order jmax; coefficient growth rate lambda0 (trailing
    window); the eps=1 delta ladder up to kmax; t = smallest integer above
    the observed lambda(delta_k); radius requirement max{lambda0, t, 0};
    the Taylor identity f(y) = sum(f^(j)(x)/j! (y-x)^j) sampled for x, y in
    the chosen ball, with x != x0 handled by recentering the jet.
    """
    plan = plan or SamplingPlan()
    window = _resolve_window(jmax, kmax, window)
    x0 = as_lc(x0)
    pj = partial_jet(f, [var], (x0,), jmax)
    entries = _delta_ladder_search_nd(f, [var], (x0,), kmax, ladder, plan)
    ps = PowerSeries(x0, tuple(pj.table.values()))  # graded: a_0 .. a_jmax

    def interval_identity(delta):
        pts = [y for (y,) in plan.points_nd((x0,), delta)]
        stride = max(1, len(pts) // 4)
        fvals: dict[int, tuple] = {}  # f(y) and its scale, once per y
        for x in [x0] + pts[::stride][:4]:
            series_x = ps if x == x0 else recenter(ps, x, window)
            for idx, y in enumerate(pts):
                if y == x:
                    continue
                if idx not in fvals:
                    fy = eval_lc(f, {var: y})
                    fvals[idx] = fy, fy.max_abs_coefficient()
                fy, scale = fvals[idx]
                inc = y - x
                cap = _working_horizon(fy)
                yield x, y, fy, scale, _taylor_sum(series_x, inc.truncate(cap)), (inc,)

    return _certify(x0, pj, jmax, kmax, window, entries, interval_identity)


def analyticity_certificate_nd(
    f: Expr,
    vars: Sequence[str],
    x0: Sequence,
    jmax: int,
    kmax: int,
    ladder: Optional[Sequence[LCNumber]] = None,
    plan: Optional[SamplingPlan] = None,
    window: Optional[int] = None,
) -> AnalyticityCertificate:
    """n-variable analogue: growth over all partials, sup-norm ball,
    identity via the directional Taylor operators at the center."""
    plan = plan or SamplingPlan()
    window = _resolve_window(jmax, kmax, window)
    names, center = _checked_point(vars, x0)
    pj = partial_jet(f, names, center, jmax)
    entries = _delta_ladder_search_nd(f, names, center, kmax, ladder, plan)

    def point_identity(delta):
        for eta in plan.points_nd(center, delta):
            feta = eval_lc(f, dict(zip(names, eta)))
            cap = _working_horizon(feta)
            v = tuple((e - c).truncate(cap) for e, c in zip(eta, center))
            approx = partial_taylor_eval(pj, v, jmax)
            yield center, eta, feta, feta.max_abs_coefficient(), approx, v

    return _certify(center, pj, jmax, kmax, window, entries, point_identity)


def _certify(x0, pj: PartialJet, jmax, kmax, window, entries, identity):
    """Everything after the ladder, the same at every number of variables.

    ``identity(delta)`` yields ``(x, y, f(y), scale, approx, increment)``
    per sampled check, where scale is f(y)'s ``max_abs_coefficient()``,
    approx is the Taylor sum at x and increment holds the components of
    y - x.  Only f(y)'s own horizon is checkable, so the phases truncate
    the increment there, which also lets sums end early.  A visible
    residual is classified at lambda of the increment's sup norm, which
    reads its first visible term alone.
    """
    graded = [(sum(alpha), coeff) for alpha, coeff in pj.table.items()]
    lam0 = _growth(graded, jmax - window + 1)
    lam0_head = _growth(graded, 1)
    t = required = delta = None
    checks = []
    verdict = "inconclusive"
    if {k for k, _, _ in entries} >= set(range(1, kmax + 1)):
        t = math.floor(max(lam for _, _, lam in entries)) + 1
        required = max(Fraction(max(t, 0)), lam0)
        delta = monomial(required + 1)
        growth = max(Fraction(0), lam0_head)
        verdict = "certified_at_scale"
        for x, y, fy, scale, approx, inc in identity(delta):
            # only the residual's leading term is read
            resid = leading_difference(fy, approx, _noise_floor(scale, approx))
            checks.append((x, y, resid.valuation()))
            if resid:
                lam_inc = min(c.valuation() for c in inc)
                verdict = _classify_residual(resid, lam_inc, jmax, growth)
                if verdict == "refuted":
                    break
    return AnalyticityCertificate(
        x0, jmax, kmax, window, lam0, lam0_head, tuple(entries),
        t, required, delta, tuple(checks), verdict,
    )


def _classify_residual(resid, lam_inc, jmax: int, growth: Fraction) -> str:
    """A visible residual refutes only below the jet's truncation order.

    Terms of order > jmax contribute from exponent about
    (jmax+1)*(lambda(increment) - growth) upward; a residual confined to
    that range just means the jet is too short for the working horizon
    (inconclusive, not refuted).
    """
    threshold = (jmax + 1) * (lam_inc - growth)
    if resid.valuation() >= threshold:
        return "inconclusive"
    return "refuted"


# -- serialization ---------------------------------------------------------------


def valuation_to_json(v: Optional[Valuation]):
    if v is None:
        return None
    if v == INF:
        return "inf"
    if v == _NEG_INF:
        return "-inf"
    fr = Fraction(v)
    return {"num": fr.numerator, "den": fr.denominator}


def _lc_json(x) -> object:
    if isinstance(x, tuple):
        return [format_lc(c) for c in x]
    return format_lc(x)


def report_to_json(r: WludReport) -> dict:
    worst = None
    if r.worst_pair is not None:
        x, y, lhs, rhs = r.worst_pair
        worst = {
            "x": _lc_json(x),
            "y": _lc_json(y),
            "lhs": format_lc(lhs),
            "rhs": format_lc(rhs),
        }
    return {
        "x0": _lc_json(r.x0),
        "k": r.k,
        "epsilon": format_lc(r.epsilon),
        "delta": format_lc(r.delta),
        "samples": r.samples,
        "result": r.result,
        "worst_pair": worst,
        "margin": valuation_to_json(r.margin),
    }


def certificate_to_json(c: AnalyticityCertificate) -> dict:
    return {
        "x0": _lc_json(c.x0),
        "jmax": c.jmax,
        "kmax": c.kmax,
        "window": c.window,
        "lambda0": valuation_to_json(c.lambda0),
        "lambda0_head": valuation_to_json(c.lambda0_head),
        "delta_ladder": [
            {"k": k, "delta": format_lc(d), "lambda": valuation_to_json(lam)}
            for k, d, lam in c.delta_ladder
        ],
        "t": c.t,
        "required_radius_lambda": valuation_to_json(c.required_radius_lambda),
        "delta": None if c.delta is None else format_lc(c.delta),
        "identity_checks": [
            {"x": _lc_json(x), "y": _lc_json(y), "residual_lambda": valuation_to_json(lam)}
            for x, y, lam in c.identity_checks
        ],
        "verdict": c.verdict,
    }
