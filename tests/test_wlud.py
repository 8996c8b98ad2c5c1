import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from levicivita import (
    D,
    INF,
    LCNumber,
    ONE,
    Ordering,
    SamplingPlan,
    ZERO,
    analyticity_certificate_1d,
    analyticity_certificate_nd,
    certificate_to_json,
    default_delta_ladder,
    delta_ladder_search,
    eval_lc,
    format_lc,
    lambda0_estimate,
    monomial,
    parse_expr,
    parse_lc,
    report_to_json,
    taylor_jet,
    valuation_to_json,
    wlud_check_1d,
    wlud_check_nd,
)
from levicivita import wlud
from levicivita.wlud import _delta_ladder_search_nd, _run_check

F = Fraction

FAST_PLAN = SamplingPlan(random_offsets=2, max_pairs=120)


# -- sampling plan ------------------------------------------------------------------


def test_plan_offsets_are_inside_ball():
    plan = SamplingPlan()
    delta = D
    for off in plan.offsets(delta):
        assert abs(off).compare(delta) is Ordering.LESS
        assert off.valuation() > delta.valuation()


def test_plan_is_deterministic():
    a = SamplingPlan().offsets(D)
    b = SamplingPlan().offsets(D)
    assert a == b
    c = SamplingPlan(seed=1).offsets(D)
    assert a != c


def test_plan_grid_contains_documented_witness_scales():
    # the |x| witness family (d^(2m), -d^m) needs both exponents in the grid
    offs = SamplingPlan().offsets(D)
    assert monomial(2) in offs and monomial(4) in offs
    assert monomial(2, -1.0) in offs


# -- 1-variable checks ----------------------------------------------------------------


def test_square_passes_exactly():
    r = wlud_check_1d(parse_expr("x^2"), "x", ZERO, 2, 1, D, FAST_PLAN)
    assert r.result == "pass"
    assert r.margin == -math.inf  # remainder exactly zero on every pair
    assert r.samples > 0


def test_cubic_passes_at_k2():
    r = wlud_check_1d(parse_expr("x^3"), "x", ZERO, 2, 1, D, FAST_PLAN)
    assert r.result == "pass"


def test_abs_fails_with_reproducible_witness():
    r = wlud_check_1d(parse_expr("abs(x)"), "x", ZERO, 1, 1, D, FAST_PLAN)
    assert r.result == "fail"
    x, y, lhs, rhs = r.worst_pair
    # the recorded pair reproduces the violation with field operations
    f = parse_expr("abs(x)")
    fy = eval_lc(f, {"x": y})
    fx = eval_lc(f, {"x": x})
    fprime = ONE if x.compare(ZERO) is Ordering.GREATER else -ONE
    re_lhs = abs(fy - fx - fprime * (y - x))
    assert re_lhs.compare(rhs) is Ordering.GREATER


def test_abs_documented_witness_family():
    # x = d^(2m), y = -d^m: lhs = 2 d^(2m) > rhs = |y - x|
    f = parse_expr("abs(x)")
    for m in (2, 3):
        x, y = monomial(2 * m), monomial(m, -1.0)
        lhs = abs(eval_lc(f, {"x": y}) - eval_lc(f, {"x": x}) - (y - x))
        rhs = abs(y - x)
        assert lhs.compare(rhs) is Ordering.GREATER


def test_exp_passes():
    r = wlud_check_1d(parse_expr("exp(x)"), "x", ZERO, 3, 1, D, FAST_PLAN)
    assert r.result == "pass"


def test_eps_scaling_never_turns_pass_into_fail():
    f = parse_expr("sin(x)")
    base = wlud_check_1d(f, "x", ZERO, 2, 1, D, FAST_PLAN)
    assert base.result == "pass"
    for c in (1.0, 2.0, 7.5):
        r = wlud_check_1d(f, "x", ZERO, 2, LCNumber.from_real(c), D, FAST_PLAN)
        assert r.result == "pass"


def test_check_validates_radii():
    with pytest.raises(ValueError):
        wlud_check_1d(parse_expr("x"), "x", ZERO, 1, 1, ZERO, FAST_PLAN)
    with pytest.raises(ValueError):
        wlud_check_1d(parse_expr("x"), "x", ZERO, 1, -1, D, FAST_PLAN)


def test_check_1d_is_check_nd_with_one_variable():
    cases = [
        ("abs(x)", ZERO, 1), ("abs(x)", ONE, 2), ("exp(x)", ZERO, 2),
        ("sin(x)*exp(x)", 0.5 + D, 3), ("x^3", ZERO, 2),
    ]
    for text, x0, k in cases:
        f = parse_expr(text)
        one = wlud_check_1d(f, "x", x0, k, 1, D, FAST_PLAN)
        nd = wlud_check_nd(f, ["x"], [x0], k, 1, D, FAST_PLAN)
        (x,), (y,), lhs, rhs = nd.worst_pair
        assert one == replace(nd, x0=nd.x0[0], worst_pair=(x, y, lhs, rhs)), text


# -- n-variable checks ------------------------------------------------------------------


def test_nd_bilinear_passes_exactly():
    r = wlud_check_nd(parse_expr("x*y"), ["x", "y"], [0, 0], 2, 1, D, FAST_PLAN)
    assert r.result == "pass"
    assert r.margin == -math.inf


def test_nd_cubic_passes():
    r = wlud_check_nd(parse_expr("x^2*y"), ["x", "y"], [0, 0], 3, 1, D, FAST_PLAN)
    assert r.result == "pass"
    assert r.margin == -math.inf


def test_nd_exp_passes():
    r = wlud_check_nd(parse_expr("exp(x+y)"), ["x", "y"], [0, 0], 2, 1, D, FAST_PLAN)
    assert r.result == "pass"


def test_nd_agrees_with_1d_for_single_variable():
    f = parse_expr("exp(x)")
    r1 = wlud_check_1d(f, "x", ZERO, 2, 1, D, FAST_PLAN)
    rn = wlud_check_nd(f, ["x"], [ZERO], 2, 1, D, FAST_PLAN)
    assert r1.result == rn.result
    assert r1.samples == rn.samples


# -- delta ladder -------------------------------------------------------------------------


def test_default_ladder_is_descending():
    ladder = default_delta_ladder()
    for a, b in zip(ladder, ladder[1:]):
        assert a.compare(b) is Ordering.GREATER


def test_ladder_square():
    entries = delta_ladder_search(
        parse_expr("x^2"), "x", ZERO, 3, plan=FAST_PLAN
    )
    assert [k for k, _, _ in entries] == [1, 2, 3]
    # first passing candidate is the largest radius: 1 = d^0
    for _, delta, lam in entries:
        assert delta == ONE and lam == 0


def test_ladder_empty():
    entries = delta_ladder_search(
        parse_expr("x^2"), "x", ZERO, 2, ladder=[], plan=FAST_PLAN
    )
    assert entries == []


def test_ladder_exp_passes_at_d():
    entries = delta_ladder_search(
        parse_expr("exp(x)"), "x", ZERO, 3, ladder=[D], plan=FAST_PLAN
    )
    assert [k for k, _, _ in entries] == [1, 2, 3]
    assert all(delta == D for _, delta, _ in entries)


@pytest.mark.parametrize(
    "text, x0, kmax, radii",
    [
        ("1/x", ("d^(1/2)",), 5, ["d", "d^(3/2)", "d^2", "d^(5/2)", "d^3"]),
        ("sqrt(x)", ("d^(1/2)",), 5, ["1", "d^(1/2)", "d", "d^(3/2)", "d^2"]),
        ("1/(x+y)", ("d^(1/2)", "d"), 3, ["d", "d^(3/2)", "d^2"]),
    ],
)
def test_ladder_radius_shrinks_with_the_order(text, x0, kmax, radii):
    # every candidate's sweep passes some orders and leaves the rest to the
    # next candidate
    names = ["x", "y"][: len(x0)]
    center = tuple(parse_lc(c) for c in x0)
    entries = _delta_ladder_search_nd(parse_expr(text), names, center, kmax, None, FAST_PLAN)
    assert [(k, format_lc(delta)) for k, delta, _ in entries] == list(enumerate(radii, 1))
    assert all(lam == delta.valuation() for _, delta, lam in entries)


@pytest.mark.parametrize("text, names", [("abs(x)", ["x"]), ("abs(x)+y", ["x", "y"])])
def test_ladder_of_abs_is_empty_after_every_candidate(monkeypatch, text, names):
    reached = []
    require_positive = wlud._require_positive

    def spy(value, name):
        reached.append(value)
        return require_positive(value, name)

    monkeypatch.setattr(wlud, "_require_positive", spy)
    center = (ZERO,) * len(names)
    assert _delta_ladder_search_nd(parse_expr(text), names, center, 3, None, FAST_PLAN) == []
    assert reached == default_delta_ladder()


@pytest.mark.parametrize("bad", [ZERO, monomial(1, -1.0)])
def test_ladder_rejects_a_non_positive_candidate_only_when_reached(bad):
    with pytest.raises(ValueError, match="ladder candidate"):
        delta_ladder_search(parse_expr("abs(x)"), "x", ZERO, 2, ladder=[ONE, bad], plan=FAST_PLAN)
    # every order passes at 1, so the sweep never reaches the bad candidate
    entries = delta_ladder_search(
        parse_expr("exp(x)"), "x", ZERO, 3, ladder=[ONE, D, bad], plan=FAST_PLAN
    )
    assert [(k, delta) for k, delta, _ in entries] == [(1, ONE), (2, ONE), (3, ONE)]


@pytest.mark.parametrize(
    "text, x0, results",
    [
        ("x*y^2 - 3*x^2", ("0", "0"), ["pass"] * 3),
        ("exp(x+y)", ("0", "0"), ["pass"] * 3),
        ("1/(x+y)", ("d^(1/2)", "d"), ["pass", "fail", "fail"]),
    ],
)
def test_one_walk_decides_every_order_as_its_own_check(text, x0, results):
    f, names = parse_expr(text), ["x", "y"]
    center = tuple(parse_lc(c) for c in x0)
    reports = _run_check(f, names, center, [1, 2, 3], 3, ONE, D, FAST_PLAN)
    assert [r.result for r in reports] == results
    for r in reports:
        alone = wlud_check_nd(f, names, center, r.k, 1, D, FAST_PLAN)
        assert (r.result, r.samples, r.inconclusive, r.margin) == (
            alone.result, alone.samples, alone.inconclusive, alone.margin
        )


# -- certificates --------------------------------------------------------------------------


def test_certificate_exp():
    cert = analyticity_certificate_1d(
        parse_expr("exp(x)"), "x", ZERO, jmax=16, kmax=4, plan=FAST_PLAN
    )
    assert cert.verdict == "certified_at_scale"
    assert cert.lambda0 == 0
    assert cert.lambda0_head == 0
    assert cert.t == 1
    assert cert.required_radius_lambda == 1
    assert cert.delta == monomial(2)
    assert len(cert.delta_ladder) == 4
    assert cert.identity_checks
    assert all(lam == INF for _, _, lam in cert.identity_checks)


def test_certificate_cubic_polynomial():
    cert = analyticity_certificate_1d(
        parse_expr("x^3"), "x", ZERO, jmax=10, kmax=4, plan=FAST_PLAN
    )
    assert cert.verdict == "certified_at_scale"
    assert cert.lambda0 == -math.inf  # window sees only zero tail
    assert cert.lambda0_head == 0  # head still records the cubic coefficient
    assert cert.required_radius_lambda is not None


def test_certificate_geometric():
    cert = analyticity_certificate_1d(
        parse_expr("1/(1-x)"), "x", ZERO, jmax=12, kmax=3, plan=FAST_PLAN
    )
    assert cert.verdict == "certified_at_scale"
    assert cert.lambda0 == 0


def test_certificate_inconclusive_on_empty_ladder():
    cert = analyticity_certificate_1d(
        parse_expr("exp(x)"), "x", ZERO, jmax=8, kmax=2, ladder=[], plan=FAST_PLAN
    )
    assert cert.verdict == "inconclusive"
    assert cert.t is None and cert.delta is None
    assert cert.identity_checks == ()


def test_certificate_nd_polynomial():
    cert = analyticity_certificate_nd(
        parse_expr("x + y + x*y"), ["x", "y"], [0, 0], jmax=6, kmax=3, plan=FAST_PLAN
    )
    assert cert.verdict == "certified_at_scale"
    assert all(lam == INF for _, _, lam in cert.identity_checks)


def test_certificate_nd_exp():
    cert = analyticity_certificate_nd(
        parse_expr("exp(x+y)"), ["x", "y"], [0, 0], jmax=12, kmax=3, plan=FAST_PLAN
    )
    assert cert.verdict == "certified_at_scale"
    assert cert.lambda0 == 0
    assert cert.required_radius_lambda == 1


def test_certificate_short_jet_is_inconclusive_not_refuted():
    # at jmax=8 the truncation tail is visible below horizon 32: the jet is
    # too short for the working horizon, which must not count as refutation
    cert = analyticity_certificate_1d(
        parse_expr("exp(x)"), "x", ZERO, jmax=8, kmax=2, plan=FAST_PLAN
    )
    assert cert.verdict == "inconclusive"
    # the truncation tail is recorded as a finite residual lambda-level
    assert any(lam != INF for _, _, lam in cert.identity_checks)


def test_certificate_monotone_in_jmax():
    # increasing jmax never downgrades the verdict on the same plan
    rank = {"refuted": 0, "inconclusive": 1, "certified_at_scale": 2}
    verdicts = []
    for jmax in (8, 12, 16):
        cert = analyticity_certificate_1d(
            parse_expr("exp(x)"), "x", ZERO, jmax=jmax, kmax=3, plan=FAST_PLAN
        )
        assert cert.verdict != "refuted"
        verdicts.append(rank[cert.verdict])
    assert verdicts == sorted(verdicts)
    assert verdicts[-1] == 2


@pytest.mark.parametrize("window", [0, -3, 9])
@pytest.mark.parametrize(
    "certify",
    [
        lambda f, **kw: analyticity_certificate_1d(f, "x", ZERO, **kw),
        lambda f, **kw: analyticity_certificate_nd(f, ["x", "y"], [0, 0], **kw),
    ],
    ids=["1d", "nd"],
)
def test_certificate_rejects_window_outside_1_to_jmax(certify, window):
    # y is unbound in the 1-D case: the window is checked before any jet
    with pytest.raises(ValueError, match=f"window must be in 1..8, got {window}"):
        certify(parse_expr("exp(x+y)"), jmax=8, kmax=1, window=window)


@pytest.mark.parametrize("window", [1, 3, 8])
def test_certificate_1d_growth_is_lambda0_estimate_of_the_jet(window):
    # at x0 = d the jet of 1/x has a_j = (-1)^j d^-(j+1): every window differs
    f = parse_expr("1/x + x^3")
    cert = analyticity_certificate_1d(
        f, "x", D, jmax=8, kmax=1, ladder=[monomial(2)], window=window, plan=FAST_PLAN
    )
    series = taylor_jet(f, "x", D, 8).to_power_series()
    assert cert.lambda0 == lambda0_estimate(series, window)
    assert cert.lambda0_head == lambda0_estimate(series, 8)


# -- serialization ---------------------------------------------------------------------------


def test_valuation_serialization():
    assert valuation_to_json(F(3, 2)) == {"num": 3, "den": 2}
    assert valuation_to_json(INF) == "inf"
    assert valuation_to_json(-math.inf) == "-inf"
    assert valuation_to_json(None) is None
    assert valuation_to_json(2) == {"num": 2, "den": 1}


def test_report_serialization_shape():
    r = wlud_check_1d(parse_expr("x^2"), "x", ZERO, 2, 1, D, FAST_PLAN)
    payload = report_to_json(r)
    assert set(payload) == {
        "x0", "k", "epsilon", "delta", "samples", "result", "worst_pair", "margin",
    }
    assert payload["result"] == "pass"
    assert payload["margin"] == "-inf"
    json.dumps(payload)  # serializable


def test_certificate_serialization_shape():
    cert = analyticity_certificate_1d(
        parse_expr("exp(x)"), "x", ZERO, jmax=16, kmax=2, plan=FAST_PLAN
    )
    payload = certificate_to_json(cert)
    assert payload["verdict"] == "certified_at_scale"
    assert payload["lambda0"] == {"num": 0, "den": 1}
    assert payload["delta_ladder"][0]["k"] == 1
    assert isinstance(payload["identity_checks"][0]["x"], str)
    json.dumps(payload)


def test_nd_report_serializes_tuples():
    r = wlud_check_nd(parse_expr("x*y"), ["x", "y"], [0, 0], 2, 1, D, FAST_PLAN)
    payload = report_to_json(r)
    assert isinstance(payload["x0"], list)
    json.dumps(payload)
