"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest output.
"""

import math
import random
import time
from fractions import Fraction
from levicivita import (
    D,
    INF,
    LCNumber,
    ONE,
    Ordering,
    PowerSeries,
    Verdict,
    ZERO,
    analyticity_certificate_1d,
    analyticity_certificate_nd,
    compare,
    converges_at,
    differentiate_termwise,
    diff_symbolic,
    eval_lc,
    lhopital_limit,
    monomial,
    multi_indices,
    parse_expr,
    partial_jet,
    recenter,
    taylor_jet,
    ultrametric,
    valuation,
    wlud_check_1d,
)
from levicivita.calculus import partial_taylor_eval

from _corpus import (
    CORPUS_30,
    dyadic_invertible_number,
    field_suite_number,
    general_invertible_number,
    infinitesimal_vector,
)

F = Fraction


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


# -- criterion 1: field / valuation suite -------------------------------------------


def test_criterion_1_field_valuation_suite():
    rng = random.Random(20260801)
    t0 = time.perf_counter()
    nums = [field_suite_number(rng) for _ in range(10_000)]
    ok = True
    for i in range(0, 9_999, 3):
        x, y, z = nums[i], nums[i + 1], nums[i + 2]
        ok &= compare(x + y, y + x) is Ordering.EQUAL_AT_HORIZON
        ok &= compare(x * y, y * x) is Ordering.EQUAL_AT_HORIZON
        ok &= compare((x + y) + z, x + (y + z)) is Ordering.EQUAL_AT_HORIZON
        ok &= compare((x * y) * z, x * (y * z)) is Ordering.EQUAL_AT_HORIZON
        ok &= compare(x * (y + z), x * y + x * z) is Ordering.EQUAL_AT_HORIZON
        if x and y:
            ok &= valuation(x * y) == valuation(x) + valuation(y)
            s = x + y
            if s:
                ok &= valuation(s) >= min(valuation(x), valuation(y))
                if valuation(x) != valuation(y):
                    ok &= valuation(s) == min(valuation(x), valuation(y))
        lam_xz = (x - z).valuation()
        ok &= lam_xz >= min((x - y).valuation(), (y - z).valuation())
        ok &= ultrametric(x, z) <= max(ultrametric(x, y), ultrametric(y, z)) + 1e-15
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: field/valuation suite on 10000 numbers",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


# -- criterion 2: inverse round trip --------------------------------------------------


def test_criterion_2_inverse_round_trip():
    rng = random.Random(20260802)
    exact_ok = True
    for _ in range(500):
        x = dyadic_invertible_number(rng)
        r = x * x.inv()
        exact_ok &= r.terms == ((F(0), 1.0),)
    general_ok = True
    worst = 0.0
    for _ in range(500):
        x = general_invertible_number(rng)
        if x.is_zero:
            continue
        inv = x.inv()
        resid = x * inv - 1
        if resid.is_zero:
            continue
        scale = max(1.0, x.max_abs_coefficient() * inv.max_abs_coefficient())
        rel = max(abs(c) for _, c in resid.terms) / scale
        worst = max(worst, rel)
        general_ok &= rel <= 1e-12
    report(
        "criterion 2: mul(x, inv(x)) == 1 up to horizon, exact for dyadics",
        exact_ok and general_ok,
        f"500 dyadic exact, 500 general worst rel {worst:.2e}",
    )


# -- criterion 3: derivative oracle ----------------------------------------------------

BASE_POINTS = [F(0), F(1, 2), F(-1, 4), F(1), F(-1, 2)]
INTEGER_POLYS = ["x^2", "x^3 - 2*x", "x^8 - 3*x^5 + 2*x^2 - 7*x + 1", "5*x^4 + x", "x^6 - x"]


def test_criterion_3_derivative_oracle():
    t0 = time.perf_counter()
    ok = True
    for text in CORPUS_30:
        f = parse_expr(text)
        chain = [f]
        for _ in range(8):
            chain.append(diff_symbolic(chain[-1], "x"))
        for pt in BASE_POINTS:
            x0 = LCNumber.from_real(pt)
            jet = taylor_jet(f, "x", x0, 8)
            for j, g in enumerate(chain):
                ref = eval_lc(g, {"x": x0}).real_part()
                mine = jet.coeffs[j].real_part() * math.factorial(j)
                if text in INTEGER_POLYS and pt.denominator == 1:
                    ok &= mine == ref  # exact for integer polynomials
                else:
                    ok &= abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3: derivative oracle, 30 expressions x orders<=8 x 5 points",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


# -- criterion 4: term-by-term differentiation ----------------------------------------


def test_criterion_4_termwise_differentiation():
    ok = True
    for text in CORPUS_30:
        f = parse_expr(text)
        jet = taylor_jet(f, "x", ZERO, 9)
        termwise = differentiate_termwise(jet, 1)
        oracle = taylor_jet(diff_symbolic(f, "x"), "x", ZERO, 8)
        for mine, ref in zip(termwise.coeffs, oracle.coeffs):
            m, r = mine.real_part(), ref.real_part()
            if r == 0.0:
                ok &= abs(m) <= 1e-10
            else:
                ok &= abs(m - r) <= 1e-10 * max(1.0, abs(r))
    report("criterion 4: termwise derivative of jet equals jet of derivative", ok)


# -- criterion 5: recentering -----------------------------------------------------------


def test_criterion_5_recentering():
    rng = random.Random(20260805)
    ok = True
    # polynomials of degree <= 8, exact reproduction at 1 and at d
    for _ in range(10):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[-1] = 1
        text = " + ".join(f"{c}*x^{j}" for j, c in enumerate(coeffs) if c)
        f = parse_expr(text)
        jmax = 2 * deg + 2  # growth window must see only the zero tail
        base = taylor_jet(f, "x", ZERO, jmax)
        for center in (ONE, D):
            direct = taylor_jet(f, "x", center, jmax)
            moved = recenter(base, center)
            ok &= all(
                (a - b).is_zero for a, b in zip(moved.coeffs, direct.coeffs)
            )
    # exp and sin recentered to d agree with direct jets up to truncation order
    for text in ("exp(x)", "sin(x)"):
        f = parse_expr(text)
        jmax = 12
        base = taylor_jet(f, "x", ZERO, jmax)
        moved = recenter(base, D)
        direct = taylor_jet(f, "x", D, jmax)
        for j, (a, b) in enumerate(zip(moved.coeffs, direct.coeffs)):
            cut = F(jmax - j) + 1
            diff = a.truncate(cut) - b.truncate(cut)
            scale = max(1.0, b.max_abs_coefficient())
            ok &= diff.is_zero or all(abs(c) <= 1e-12 * scale for _, c in diff.terms)
    report("criterion 5: recentering reproduces direct jets", ok)


# -- criterion 6: convergence classifier --------------------------------------------------


def test_criterion_6_convergence_classifier():
    s = PowerSeries(ZERO, tuple(monomial(-j) for j in range(13)))
    expected = [
        (F(1, 2), Verdict.DIVERGES),
        (F(1), Verdict.BOUNDARY),
        (F(3, 2), Verdict.CONVERGES),
        (F(2), Verdict.CONVERGES),
    ]
    ok = all(
        converges_at(s, monomial(lam)).verdict is verdict
        for lam, verdict in expected
    )
    report("criterion 6: convergence classifier on a_j = d^(-j)", ok)


# -- criterion 7: multivariate Taylor identity ---------------------------------------------


def test_criterion_7_trivariate_taylor_identity():
    rng = random.Random(20260807)
    names = ["x", "y", "z"]
    centers = [
        (F(0), F(0), F(0)),
        (F(1), F(-1), F(2)),
        (F(1, 2), F(0), F(-3, 2)),
    ]
    ok = True
    checked = 0
    for center_vals in centers:
        terms = []
        for alpha in multi_indices(3, 5):
            if rng.random() < 0.25:
                c = rng.randint(-4, 4)
                if c:
                    terms.append((alpha, c))
        if not terms:
            terms = [((1, 1, 1), 2)]
        text = " + ".join(
            f"{c}*x^{a}*y^{b}*z^{g}" for (a, b, g), c in terms
        )
        f = parse_expr(text)
        center = [LCNumber.from_real(v) for v in center_vals]
        pj = partial_jet(f, names, center, 5)
        for _ in range(17):
            eta = infinitesimal_vector(rng, 3)
            target = eval_lc(
                f, dict(zip(names, (c + e for c, e in zip(center, eta))))
            )
            # the factorial-cancelled directional Taylor sum: exact algebra
            total = partial_taylor_eval(pj, eta, 5)
            ok &= (target - total).is_zero
            checked += 1
            if not ok:
                break
    report(
        "criterion 7: trivariate Taylor identity exact",
        ok and checked >= 50,
        f"{checked} sampled directions",
    )


# -- criterion 8: WLUD verdicts ---------------------------------------------------------------


def test_criterion_8_wlud_verdicts():
    abs_report = wlud_check_1d(parse_expr("abs(x)"), "x", ZERO, 1, 1, D)
    ok = abs_report.result == "fail"
    # documented witness family x = d^(2m), y = -d^m violates the bound
    fam = parse_expr("abs(x)")
    for m in (2, 3):
        x, y = monomial(2 * m), monomial(m, -1.0)
        lhs = abs(eval_lc(fam, {"x": y}) - eval_lc(fam, {"x": x}) - (y - x))
        ok &= lhs.compare(abs(y - x)) is Ordering.GREATER
    polys = {"x^2": 2, "x^3 - 2*x": 3, "x^4 + x^2": 4, "x^6 - x": 6, "x + 1": 1}
    for text, deg in polys.items():
        f = parse_expr(text)
        for k in range(1, 7):
            r = wlud_check_1d(f, "x", ZERO, k, 1, D)
            ok &= r.result == "pass"
            if deg <= k:
                ok &= r.margin == -math.inf  # lhs exactly 0 on every pair
    report("criterion 8: |x| fails, polynomials pass with exact zero remainder", ok)


# -- criterion 9: L'Hopital -------------------------------------------------------------------


def test_criterion_9_lhopital():
    cases = [
        ("sin(x)", "x", 1.0),
        ("1-cos(x)", "x^2", 0.5),
        ("exp(x)-1", "x", 1.0),
    ]
    ok = True
    for fnum, fden, expected in cases:
        v = lhopital_limit(parse_expr(fnum), parse_expr(fden), "x", 0)
        ok &= abs(v.real_part() - expected) <= 1e-12
    report("criterion 9: L'Hopital limits to 1e-12", ok)


# -- criterion 10: analyticity certificates -----------------------------------------------------


def test_criterion_10_certificates():
    t0 = time.perf_counter()
    cert1 = analyticity_certificate_1d(
        parse_expr("exp(x)"), "x", ZERO, jmax=32, kmax=8
    )
    t1 = time.perf_counter() - t0
    ok1 = (
        cert1.verdict == "certified_at_scale"
        and cert1.lambda0 == 0
        and cert1.required_radius_lambda is not None
        and cert1.required_radius_lambda != INF
        and t1 < 5.0
    )
    t0 = time.perf_counter()
    cert2 = analyticity_certificate_nd(
        parse_expr("exp(x+y)"), ["x", "y"], [ZERO, ZERO], jmax=12, kmax=5
    )
    t2 = time.perf_counter() - t0
    ok2 = (
        cert2.verdict == "certified_at_scale"
        and cert2.lambda0 == 0
        and cert2.required_radius_lambda is not None
        and cert2.required_radius_lambda != INF
        and t2 < 5.0
    )
    report(
        "criterion 10: analyticity certificates (exp 1d, exp(x+y) 2d)",
        ok1 and ok2,
        f"1d {t1:.2f}s, 2d {t2:.2f}s",
    )
