"""The WLUD pair walk against its full-residual form, bit for bit.

``wlud._run_check`` decides each pair and order from the first visible term
of the residual and builds the full |residual| only for a pair it reports
or when the leading terms tie.  ``reference_run_check`` below is the walk
that built the full residual and bound for every pair and order, kept
verbatim with its two helpers as the reference.  Both run on random
polynomials and on exp, sin and 1/(1-x), at exact centres and at centres
with a finite horizon, for ascending orders up to 1..4, with one and two
variables; every report field must agree, the numbers of ``worst_pair`` to
their coefficients' bits.  A pair whose bound's leading coefficient
underflows, and an order-0 check at a centre with a finite horizon, take
the walk's other paths and must agree too.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D, INF, LCNumber, ONE, Ordering, SamplingPlan, ZERO, monomial, parse_expr,
)
from levicivita.calculus import PartialJet, partial_jet, partial_taylor_sums
from levicivita.core import compare_lead, leading_difference, power_leads
from levicivita.wlud import (
    RESIDUAL_REL_TOL, WludReport, _run_check, _sup_norm, _Tally,
)

F = Fraction

#: Run times on a shared machine vary too much for a per-example deadline.
props = settings(deadline=None, max_examples=60)


# -- the reference: the walk that builds every residual in full -------------------


def _filtered_residual(resid: LCNumber, *refs: LCNumber) -> LCNumber:
    """Drop residual coefficients that are binary64 noise at the refs' scale.

    Exact computations (dyadic data) are unaffected: their residuals are
    exactly zero or carry genuinely sized coefficients.
    """
    if not resid:
        return resid
    scale = max((r.max_abs_coefficient() for r in refs), default=0.0)
    return resid.without_small(RESIDUAL_REL_TOL * scale)


def valuation_gap(lhs: LCNumber, rhs: LCNumber):
    """lambda(rhs) - lambda(lhs), from the two leading grid exponents; -inf
    when lhs has no visible terms, else +inf when rhs has none."""
    if not lhs._iterms:
        return -INF
    if not rhs._iterms:
        return INF
    (a, _), (b, _) = lhs._iterms[0], rhs._iterms[0]
    return Fraction(b * lhs._den - a * rhs._den, rhs._den * lhs._den)


def reference_run_check(f, names, center, ks, jet_order, eps, delta, plan) -> list[WludReport]:
    pts = plan.points_nd(center, delta)
    tallies = [_Tally(k) for k in ks]
    live, orders = tallies, list(ks)
    jets: dict[int, PartialJet] = {}
    constant = (0,) * len(center)
    for i, j in plan.pair_indices(len(pts)):
        xi, eta = pts[i], pts[j]
        for p in (i, j):
            if p not in jets:
                jets[p] = partial_jet(f, names, pts[p], jet_order)
        feta = jets[j].table[constant]
        v = tuple(eta[m] - xi[m] for m in range(len(center)))
        norm = _sup_norm(v)
        dropped = False
        for t, approx in zip(live, partial_taylor_sums(jets[i], v, orders)):
            lhs = abs(_filtered_residual(feta - approx, feta, approx))
            rhs = eps * norm ** t.k
            t.samples += 1
            order = lhs.compare(rhs)
            margin = valuation_gap(lhs, rhs)
            if t.margin is None or margin > t.margin or order is Ordering.GREATER:
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
            t.pair, t.margin, t.inconclusive,
        )
        for t in tallies
    ]


# -- comparing reports bit for bit --------------------------------------------------


def bits(x):
    """A number's grid, its coefficients' exact bits and its horizon with
    its type; tuples (points, pairs) component by component."""
    if isinstance(x, tuple):
        return tuple(bits(c) for c in x)
    if x is None:
        return None
    return (
        x._den,
        tuple((e, c.hex()) for e, c in x._iterms),
        x.horizon,
        type(x.horizon),
    )


def report_bits(r: WludReport) -> tuple:
    return (
        bits(r.x0), r.k, bits(r.epsilon), bits(r.delta), r.samples, r.result,
        bits(r.worst_pair), r.margin, type(r.margin), r.inconclusive,
    )


def assert_same_walk(f, names, center, ks, jet_order, eps, delta, plan):
    args = (f, names, center, ks, jet_order, eps, delta, plan)
    got = [report_bits(r) for r in _run_check(*args)]
    want = [report_bits(r) for r in reference_run_check(*args)]
    assert got == want


# -- inputs -------------------------------------------------------------------------

NAMES = {1: ["x"], 2: ["x", "y"]}

#: Non-polynomial functions of each arity.
ANALYTIC = {
    1: ["exp(x)", "sin(x)", "1/(1-x)"],
    2: ["exp(x+y)", "sin(x)*y + 1", "1/(1-x) + y^2"],
}

#: Polynomial coefficients: dyadic ones, whose residuals are exactly zero,
#: and ones that round.
poly_coefficients = st.sampled_from(["1", "-2", "3", "1/2", "-3/4", "1/3", "0.1", "-7/5"])


@st.composite
def functions(draw, n):
    if draw(st.booleans()):
        return parse_expr(draw(st.sampled_from(ANALYTIC[n])))
    monomials = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4, unique=True)
    )
    terms = []
    for exps in monomials:
        factors = [f"({draw(poly_coefficients)})"]
        factors += [f"{v}^{e}" for v, e in zip(NAMES[n], exps) if e]
        terms.append("*".join(factors))
    return parse_expr(" + ".join(terms))


#: Exact centres, and centres whose horizon is finite (the jet of order k
#: needs a centre horizon of at least k + 1, so at least 6 here).
coordinates = st.sampled_from([
    ZERO,
    LCNumber.from_real(0.5),
    D,
    LCNumber([(0, 0.25), (1, 1.0)]),
    LCNumber([(0, 0.5)], F(6)),
    LCNumber([(0, -0.25), (F(1, 2), 1.5)], F(13, 2)),
    LCNumber([(1, 0.75)], F(8)),
])

epsilons = st.sampled_from([ONE, LCNumber.from_real(0.5), D, monomial(F(-1, 2), 3.0)])
deltas = st.sampled_from([ONE, D, monomial(F(1, 2)), monomial(2, 0.5)])

#: Ascending orders from one order alone up to all of 1..4.
order_lists = st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True).map(sorted)

plans = st.builds(
    SamplingPlan,
    random_offsets=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    max_pairs=st.integers(4, 40),
)


@props
@given(
    st.sampled_from([1, 2]).flatmap(
        lambda n: st.tuples(functions(n), st.tuples(*[coordinates] * n))
    ),
    order_lists,
    st.integers(0, 1),
    epsilons,
    deltas,
    plans,
)
def test_walk_matches_the_full_residual_walk(case, ks, extra, eps, delta, plan):
    f, center = case
    names = NAMES[len(center)]
    assert_same_walk(f, names, center, ks, max(ks) + extra, eps, delta, plan)


# -- a tie between the leading terms --------------------------------------------------


class TwoPoints(SamplingPlan):
    """The points x0 and x0 + d + d^(3/2) alone."""

    def points_nd(self, x0, delta):
        return [tuple(x0), (x0[0] + D + monomial(F(3, 2)),)]


def test_a_tie_of_the_leading_terms_is_decided_on_the_full_residual():
    # For f = x^2 at the pair (0, v) with v = d + d^(3/2), the residual of
    # T_1 is v^2 = d^2 + 2d^(5/2) + d^3 and eps*|v| = d^2 + d^(5/2) with
    # eps = d: equal leading terms.  The residual's second term decides
    # GREATER, where reading the bound's second term against the leading
    # term alone would say LESS.
    f, plan = parse_expr("x^2"), TwoPoints()
    v = D + monomial(F(3, 2))
    lead = abs(leading_difference(v * v, ZERO, 0.0))
    rhs = D * v
    assert compare_lead(lead, rhs)[0] is None
    assert lead.compare(rhs) is Ordering.LESS
    assert (v * v).compare(rhs) is Ordering.GREATER
    (report,) = _run_check(f, ["x"], (ZERO,), [1], 1, D, D, plan)
    assert report.result == "fail"
    assert_same_walk(f, ["x"], (ZERO,), [1], 1, D, D, plan)
    assert_same_walk(f, ["x"], (ZERO,), [1, 2], 2, D, D, plan)


# -- the full bounds' path, and order 0 ------------------------------------------------


class PairPlan(SamplingPlan):
    """The points x0 and x0 + w alone, walked as the one pair (x0, x0 + w)."""

    def __init__(self, w):
        super().__init__(max_pairs=1)
        object.__setattr__(self, "w", w)

    def points_nd(self, x0, delta):
        return [tuple(x0), (x0[0] + self.w,)]


def test_a_bound_whose_lead_underflows_is_read_in_full():
    # |v|^2 = 1e-400*d^2 underflows, so the bounds' leading terms are not
    # formed alone: the pair is read against the full bounds, where
    # eps*|v|^2 has no visible term.
    w = monomial(1, 1e-200)
    assert power_leads(ONE, w, [1, 2]) is None
    plan = PairPlan(w)
    for text in ["exp(x)", "x^3 - 2*x + 1", "x^2"]:
        assert_same_walk(parse_expr(text), ["x"], (ZERO,), [1, 2], 2, ONE, D, plan)
        assert_same_walk(parse_expr(text), ["x"], (ZERO,), [2], 2, ONE, D, plan)


def test_order_0_at_a_centre_with_a_finite_horizon():
    # At k = 0 the bound is eps itself, and |v| carries the centre's finite
    # horizon 6; the walk must agree with the full-bound reference there.
    centre = (LCNumber([(0, 0.5)], F(6)),)
    plan = SamplingPlan(max_pairs=40)
    for eps in [ONE, D, LCNumber([(0, 1.0)], F(9))]:
        for text in ["exp(x)", "sin(x)", "x^2 + 1"]:
            assert_same_walk(parse_expr(text), ["x"], centre, [0], 0, eps, D, plan)
            assert_same_walk(parse_expr(text), ["x"], centre, [0, 1], 1, eps, D, plan)
