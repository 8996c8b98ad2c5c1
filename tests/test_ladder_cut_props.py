"""The delta ladder's cut pair walk against the uncut one, entry for entry.

``_delta_ladder_search_nd`` runs ``wlud._run_check`` verdict-only: a pair
with two or more live orders and lambda(v) > 0 is read first on
approximants cut at H = max(lambda(rhs)) + 1.  A reading of LESS or
EQUAL_AT_HORIZON there is final; every other reading, a tie or a
violation, is read again on the uncut approximants.  ``reference_run_check``
below is the walk without a cut, kept verbatim as the reference, and
``reference_ladder`` the ladder search on it.  Both run on random
polynomials and on exp, sin and 1/(1-x), at one and two variables, exact
centres and centres with a finite horizon, the default and custom ladders,
random plans and a slice of C210; the ladder entries must agree to the
bits.  Further tests pin that the cut sums are the uncut ones truncated,
that ties and violations take the uncut path, and that the cut stays on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicivita import (
    D, INF, LCNumber, ONE, Ordering, SamplingPlan, ZERO, monomial, parse_expr, parse_lc,
)
from levicivita import wlud
from levicivita.calculus import partial_jet, partial_taylor_sums
from levicivita.core import compare_lead, gap_exceeds, gap_value, leading_difference, powers
from levicivita.wlud import (
    WludReport, _Tally, _delta_ladder_search_nd, _noise_floor, _run_check, _sup_norm,
    default_delta_ladder,
)

from _corpus import C210_CENTRES, C210_EXPRESSIONS

F = Fraction

#: Run times on a shared machine vary too much for a per-example deadline.
props = settings(deadline=None, max_examples=150)


# -- the reference: the pair walk without a cut -------------------------------------


def reference_run_check(f, names, center, ks, jet_order, eps, delta, plan) -> list[WludReport]:
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
        _, feta, feta_scale = seen[j]
        v = tuple(eta[m] - xi[m] for m in range(len(center)))
        norm_powers = powers(_sup_norm(v), orders, ONE)
        dropped = False
        for t, approx in zip(live, partial_taylor_sums(seen[i][0], v, orders)):
            floor = _noise_floor(feta_scale, approx)
            rhs = eps * norm_powers[t.k]
            t.samples += 1
            order, margin = compare_lead(abs(leading_difference(feta, approx, floor)), rhs)
            wider = t.margin is None or gap_exceeds(margin, t.margin)
            if wider or order is None or order is Ordering.GREATER:
                lhs = abs((feta - approx).without_small(floor))
                if order is None:  # equal leading terms: the full numbers decide
                    order = lhs.compare(rhs)
                if wider or order is Ordering.GREATER:
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


def reference_ladder(f, names, x0, kmax, ladder, plan):
    # One sweep per candidate decides every order no earlier candidate
    # passed; jets are taken at kmax for all of them.
    ladder = list(ladder) if ladder is not None else default_delta_ladder()
    plan = plan or SamplingPlan()
    pending = list(range(1, kmax + 1))
    passed_at: dict[int, LCNumber] = {}
    for candidate in ladder:
        if not pending:
            break
        for report in reference_run_check(f, names, x0, pending, kmax, ONE, candidate, plan):
            if report.result == "pass":
                passed_at[report.k] = candidate
        pending = [k for k in pending if k not in passed_at]
    return [(k, d, d.valuation()) for k, d in sorted(passed_at.items())]


# -- comparing ladders bit for bit ----------------------------------------------------


def bits(x: LCNumber) -> tuple:
    return (x._den, tuple((e, c.hex()) for e, c in x._iterms), x.horizon)


def outcome(search, *args):
    """The entries with their radii's bits, or the type of what was raised."""
    try:
        return [(k, bits(d), lam) for k, d, lam in search(*args)]
    except ArithmeticError as exc:
        return type(exc).__name__


def assert_same_ladder(f, names, x0, kmax, ladder, plan):
    args = (f, names, x0, kmax, ladder, plan)
    assert outcome(_delta_ladder_search_nd, *args) == outcome(reference_ladder, *args)


# -- inputs ---------------------------------------------------------------------------

NAMES = {1: ["x"], 2: ["x", "y"]}

ANALYTIC = {
    1: ["exp(x)", "sin(x)", "1/(1-x)"],
    2: ["exp(x+y)", "sin(x)*y + 1", "1/(1-x) + y^2"],
}

#: Dyadic coefficients, whose residuals are exactly zero, and ones that round.
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


#: Exact centres, and centres with horizons 6 to 8 (a jet of order k needs
#: a centre horizon of at least k + 1).
coordinates = st.sampled_from([
    ZERO,
    LCNumber.from_real(0.5),
    D,
    LCNumber([(0, 0.25), (1, 1.0)]),
    LCNumber([(0, 0.5)], F(6)),
    LCNumber([(0, -0.25), (F(1, 2), 1.5)], F(13, 2)),
    LCNumber([(1, 0.75)], F(8)),
])

#: The default ladder, and custom ones; d^-1 has lambda < 0, so some of its
#: pairs have lambda(v) <= 0 and take no cut.
ladders = st.sampled_from([
    None,
    [ONE, D],
    [monomial(F(1, 2)), monomial(2)],
    [monomial(-1), ONE, monomial(F(3, 2))],
    [monomial(F(-1, 2), 4.0), D],
])

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
    st.integers(1, 4),
    ladders,
    plans,
)
def test_ladder_matches_the_uncut_ladder(case, kmax, ladder, plan):
    f, center = case
    assert_same_ladder(f, NAMES[len(center)], center, kmax, ladder, plan)


C210_SLICE = [
    ("sin(x)", "d"), ("x*exp(x)", "d"), ("ln(1+x)", "0"), ("exp(x^2)", "1/2"),
    ("cos(x)^3", "d^(1/2)"), ("1/(1-x)", "1-2d^(1/2)+d^3"),
    ("1/(x-x^2)", "1-2d^(1/2)+d^3"), ("sqrt(x)", "1/2+d"),
]


@pytest.mark.parametrize("text, centre", C210_SLICE)
def test_c210_ladders_match_the_uncut_ladder(text, centre):
    assert text in C210_EXPRESSIONS and centre in C210_CENTRES
    plan = SamplingPlan(max_pairs=100)
    assert_same_ladder(parse_expr(text), ["x"], (parse_lc(centre),), 4, None, plan)


# -- the cut sums ------------------------------------------------------------------

#: Centres whose jets carry rounding noise: no dyadic data, several terms.
noisy_centres = st.sampled_from([
    LCNumber([(0, 0.1), (1, 1.0)]),
    LCNumber([(0, 1 / 3), (F(1, 2), -0.7)]),
    LCNumber([(0, -0.3), (1, 0.2), (3, 1.1)], F(9)),
    LCNumber([(F(1, 2), 0.3)]),
])

noisy_functions = st.sampled_from(
    ["exp(x)", "sin(x)", "1/(1-x)", "ln(1+x)", "(0.1)*x^3 - (1/3)*x + 7/5", "exp(x)*cos(x)"]
)


@st.composite
def directions(draw, n):
    """Components with positive exponents and coefficients that round."""
    out = []
    for _ in range(n):
        exps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
        terms = [
            (F(e, 2), draw(st.sampled_from([0.1, -0.7, 1 / 3, 2.5, -1e3, 1e-3])))
            for e in exps
        ]
        out.append(LCNumber(terms))
    return tuple(out)


@props
@given(
    noisy_functions,
    st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(noisy_centres, directions(n))),
    st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True).map(sorted),
    st.fractions(F(1, 2), F(20), max_denominator=6),
)
def test_cut_sums_are_the_truncated_sums(text, case, ks, cut):
    centre, v = case
    n = len(v)
    f = parse_expr(text if n == 1 else text + " + x*y")
    jet = partial_jet(f, NAMES[n], (centre,) * n, max(ks))
    full = partial_taylor_sums(jet, v, ks)
    for approx, cut_approx in zip(full, partial_taylor_sums(jet, v, ks, cut)):
        assert bits(cut_approx) == bits(approx.truncate(cut))


# -- the fallbacks and the spies ------------------------------------------------------


class PairPlan(SamplingPlan):
    """The points x0 and x0 + w alone, walked as the one pair (x0, x0 + w)."""

    def __init__(self, w):
        super().__init__(max_pairs=1)
        object.__setattr__(self, "w", w)

    def points_nd(self, x0, delta):
        return [tuple(x0), (x0[0] + self.w,)]


def counting_sums(monkeypatch):
    """Record, per call of ``partial_taylor_sums`` in the walk, its orders
    and cut."""
    calls = []

    def spy(pj, v, ks, cut=INF):
        calls.append((list(ks), cut))
        return partial_taylor_sums(pj, v, ks, cut)

    monkeypatch.setattr(wlud, "partial_taylor_sums", spy)
    return calls


def verdicts(f, ks, eps, plan, **kwargs):
    return [r.result for r in _run_check(f, ["x"], (ZERO,), ks, max(ks), eps, D, plan, **kwargs)]


def test_a_tie_at_lambda_rhs_takes_the_uncut_path(monkeypatch):
    # f = x^2 and v = d + d^(3/2): the residual of T_1 is v^2 = d^2 + 2d^(5/2)
    # + d^3 and eps*|v| = d^2 + d^(5/2) with eps = d.  The leading terms tie,
    # and the second terms decide GREATER.
    f, plan = parse_expr("x^2"), PairPlan(D + monomial(F(3, 2)))
    calls = counting_sums(monkeypatch)
    got = verdicts(f, [1, 2], D, plan, verdict_only=True)
    assert calls == [([1, 2], F(4)), ([1, 2], INF)]
    assert got == verdicts(f, [1, 2], D, plan) == ["fail", "pass"]
    assert got == [r.result for r in reference_run_check(f, ["x"], (ZERO,), [1, 2], 2, D, D, plan)]


def test_a_lead_inside_the_band_takes_the_uncut_path(monkeypatch):
    # exp at 0, v = d + 1e14*d^40 and eps = d^(3/2).  Cut at H = 9/2, T_1 is
    # 1 + d, and f(v) - T_1 leads with d^2/2, before lambda(rhs) = 5/2, so
    # the cut reads GREATER and the pair goes to the uncut approximants.
    # There T_1 = 1 + d + 1e14*d^40 sets the noise floor at 100, above the
    # lead: it drops every term below f(v)'s horizon 32, and the walk passes.
    f, w, eps = parse_expr("exp(x)"), D + monomial(40, 1e14), monomial(F(3, 2))
    jet = partial_jet(f, ["x"], (ZERO,), 2)
    feta = partial_jet(f, ["x"], (w,), 2).table[(0,)]
    rhs = eps * w
    cut_approx = partial_taylor_sums(jet, (w,), [1, 2], F(9, 2))[0]
    lead = abs(leading_difference(feta, cut_approx, _noise_floor(1.0, cut_approx)))
    assert lead.terms == ((2, 0.5),)
    assert compare_lead(lead, rhs)[0] is Ordering.GREATER

    plan = PairPlan(w)
    calls = counting_sums(monkeypatch)
    got = verdicts(f, [1, 2], eps, plan, verdict_only=True)
    assert calls == [([1, 2], F(9, 2)), ([1, 2], INF)]
    assert got == verdicts(f, [1, 2], eps, plan) == ["pass", "pass"]


def test_a_violation_on_the_cut_takes_the_uncut_path(monkeypatch):
    # x^2 at 0, v = d and eps = d^(3/2): the residual of T_1 is d^2, before
    # lambda(rhs) = 5/2 and far above any noise floor.  The cut approximants
    # read GREATER, which they cannot make final, so the pair is read again
    # on the uncut ones, where order 1 fails; T_2 is exact and passes.
    f, plan, eps = parse_expr("x^2"), PairPlan(D), monomial(F(3, 2))
    calls = counting_sums(monkeypatch)
    got = verdicts(f, [1, 2], eps, plan, verdict_only=True)
    assert calls == [([1, 2], F(9, 2)), ([1, 2], INF)]
    assert got == verdicts(f, [1, 2], eps, plan) == ["fail", "pass"]


def test_the_ladder_keeps_its_cut_and_the_check_takes_none(monkeypatch):
    # The bench's n-D ladder decides every pair on the cut approximants, and
    # wlud_check, which reports a margin, takes no cut at all.
    f, x0 = parse_expr("exp(x+y)"), (ZERO, ZERO)
    calls = counting_sums(monkeypatch)
    entries = _delta_ladder_search_nd(f, ["x", "y"], x0, 5, None, None)
    assert [k for k, _, _ in entries] == [1, 2, 3, 4, 5]
    uncut = [ks for ks, cut in calls if cut is INF]
    assert len(calls) > 300 and len(uncut) <= 3
    calls.clear()
    wlud.wlud_check_nd(f, ["x", "y"], x0, 3, 1, D, SamplingPlan(max_pairs=60))
    assert len(calls) == 60 and all(cut is INF for _, cut in calls)


def test_pairs_with_lambda_v_at_most_0_take_no_cut(monkeypatch):
    seen = []

    def spy(pj, v, ks, cut=INF):
        seen.append((_sup_norm(v).valuation(), len(ks), cut))
        return partial_taylor_sums(pj, v, ks, cut)

    monkeypatch.setattr(wlud, "partial_taylor_sums", spy)
    # d^-1 samples at depths 0 to 3, so some pairs have lambda(v) = 0 and
    # orders 1 and 2 fail there; d^(-1/2) samples at depths 1/2 to 7/2.
    ladder = [monomial(-1), monomial(F(-1, 2))]
    entries = _delta_ladder_search_nd(
        parse_expr("exp(x)"), ["x"], (ZERO,), 3, ladder, SamplingPlan(max_pairs=200)
    )
    assert [(k, lam) for k, _, lam in entries] == [(1, F(-1, 2)), (2, F(-1, 2)), (3, -1)]
    flat = [cut for lam, n, cut in seen if lam <= 0]
    assert flat and all(cut is INF for cut in flat)
    assert any(cut is not INF for lam, n, cut in seen if lam > 0 and n > 1)
