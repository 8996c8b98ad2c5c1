"""The ``certify`` workload: the paper's question, is f analytic at x0?

One round runs the 1-D certificate set, the n-D certificate set and the
criterion-8 WLUD checks.  The seed draws the integer coefficients of the
polynomials; which monomials they carry is fixed, so the cost of a round
does not depend on the seed.  Most of the time goes to the delta ladders in
``wlud`` and to jets in ``calculus`` at multi-term sample points.
"""

from __future__ import annotations

import math
import random
import statistics
from functools import partial

from levicivita import (
    D,
    LCNumber,
    Ordering,
    ZERO,
    analyticity_certificate_1d,
    analyticity_certificate_nd,
    parse_expr,
    partial_jet,
    wlud_check_1d,
)

from common import Inputs, close

NAME = "certify"
CERTIFIED = "certified_at_scale"
NEG_INF = -math.inf


def _coeffs(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(n)]


def poly_text(terms, names=("x",)) -> str:
    """Render [(coefficient, exponents)] as an expression, e.g. ``3*x^2*y - 1``."""
    out = []
    for c, exps in terms:
        factors = [str(abs(c))] + [
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
        ]
        body = "*".join(factors)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def _poly(rng, powers, names=("x",)):
    """A seeded integer polynomial over fixed monomials; returns (text, degree)."""
    exps = [p if isinstance(p, tuple) else (p,) for p in powers]
    terms = list(zip(_coeffs(rng, len(exps)), exps))
    return poly_text(terms, names), max(sum(e) for e in exps)


def build(seed: int, probe: bool) -> Inputs:
    """Parse every expression of the round; the probe set is a small slice."""
    rng = random.Random(f"certify:{seed}")
    half = LCNumber.from_real(0.5)
    if probe:
        p1, _ = _poly(rng, (2, 1, 0))
        p2, _ = _poly(rng, ((1, 1), (0, 1), (0, 0)), ("x", "y"))
        certs_1d = [("poly@0", p1, ZERO, 4, 1, NEG_INF)]
        certs_nd = [("poly2@0", p2, (ZERO, ZERO), 3, 1, NEG_INF)]
        wlud_polys = [_poly(rng, (2, 1))]
        ks = (1, 2)
        table = None
    else:
        p1, _ = _poly(rng, (4, 3, 1, 0))
        p2, _ = _poly(rng, ((2, 1), (1, 1), (0, 3), (0, 0)), ("x", "y"))
        certs_1d = [
            ("exp@0", "exp(x)", ZERO, 32, 8, 0),
            ("geometric@0", "1/(1-x)", ZERO, 16, 4, 0),
            ("sin@1/2", "sin(x)", half, 16, 4, 0),
            ("exp@d", "exp(x)", D, 16, 4, 0),
            ("poly@0", p1, ZERO, 8, 4, NEG_INF),
        ]
        certs_nd = [
            ("exp(x+y)@0", "exp(x+y)", (ZERO, ZERO), 12, 5, 0),
            ("poly2@0", p2, (ZERO, ZERO), 6, 3, NEG_INF),
        ]
        wlud_polys = [_poly(rng, (2, 1)), _poly(rng, (3, 1)), _poly(rng, (6, 2, 0))]
        ks = range(1, 7)
        table = (parse_expr("exp(x+y)"), 12)
    checks = [("abs", parse_expr("abs(x)"), 1, None, "fail")]
    for text, degree in wlud_polys:
        f = parse_expr(text)
        checks += [(text, f, k, degree, "pass") for k in ks]
    data = {
        "1d": [(lab, parse_expr(t), c, j, k, lam) for lab, t, c, j, k, lam in certs_1d],
        "nd": [(lab, parse_expr(t), c, j, k, lam) for lab, t, c, j, k, lam in certs_nd],
        "table": table,
        "wlud": checks,
    }
    ops = len(certs_1d) + len(certs_nd) + (table is not None) + len(checks)
    return Inputs(ops, data)


def phases(inputs: Inputs):
    """Each phase is a list of operations, one certificate or check each."""
    d = inputs.data
    one_d = [
        partial(analyticity_certificate_1d, f, "x", c, jmax=j, kmax=k)
        for _, f, c, j, k, _ in d["1d"]
    ]
    n_d = [
        partial(analyticity_certificate_nd, f, ["x", "y"], c, jmax=j, kmax=k)
        for _, f, c, j, k, _ in d["nd"]
    ]
    if d["table"] is not None:
        f, order = d["table"]
        n_d.append(partial(partial_jet, f, ["x", "y"], [ZERO, ZERO], order))
    checks = [partial(wlud_check_1d, f, "x", ZERO, k, 1, D) for _, f, k, _, _ in d["wlud"]]
    return [("1d", one_d), ("nd", n_d), ("wlud", checks)]


def check_certificate(spec, cert) -> list[str]:
    label, _, _, _, kmax, lambda0 = spec
    problems = []
    if cert.verdict != CERTIFIED:
        problems.append(f"{label}: verdict {cert.verdict}, expected {CERTIFIED}")
    if cert.lambda0 != lambda0:
        problems.append(f"{label}: lambda0 {cert.lambda0}, expected {lambda0}")
    ks = sorted(k for k, _, _ in cert.delta_ladder)
    if ks != list(range(1, kmax + 1)):
        problems.append(f"{label}: delta ladder covers k={ks}, expected 1..{kmax}")
    if not cert.identity_checks:
        problems.append(f"{label}: no identity checks")
    return problems


def check_exp_table(pj) -> list[str]:
    """d^alpha exp(x+y)(0)/alpha! must be 1/(alpha_1! alpha_2!), a pure real."""
    problems = []
    for (a, b), value in pj.table.items():
        want = 1.0 / (math.factorial(a) * math.factorial(b))
        terms = value.terms
        if len(terms) != 1 or terms[0][0] != 0 or not close(terms[0][1], want, 1e-12):
            problems.append(f"exp(x+y) partial {(a, b)}: {value}, expected {want!r}")
    return problems


def replay_abs_witness(report) -> bool:
    """Recompute |f(y) - T_1[f,x](y)| > |y-x| for f = |.| with field operations."""
    if report.worst_pair is None:
        return False
    x, y = report.worst_pair[0], report.worst_pair[1]
    sign = x.compare(ZERO)
    if sign is Ordering.EQUAL_AT_HORIZON:
        return False
    slope = 1.0 if sign is Ordering.GREATER else -1.0
    lhs = abs(abs(y) - (abs(x) + (y - x) * slope))
    return lhs.compare(abs(y - x)) is Ordering.GREATER


def check_wlud(spec, report) -> list[str]:
    label, _, k, degree, expected = spec
    name = f"wlud {label} k={k}"
    if report.result != expected:
        return [f"{name}: result {report.result}, expected {expected}"]
    if report.samples < 1:
        return [f"{name}: no pairs sampled"]
    if expected == "fail" and not replay_abs_witness(report):
        return [f"{name}: witness does not replay to a violation"]
    if degree is not None and degree <= k and report.margin != NEG_INF:
        return [f"{name}: remainder not exactly zero (margin {report.margin})"]
    return []


def check(inputs: Inputs, outputs) -> tuple[int, list[str]]:
    d = inputs.data
    problems = []
    for spec, cert in zip(d["1d"], outputs["1d"]):
        problems += check_certificate(spec, cert)
    for spec, cert in zip(d["nd"], outputs["nd"]):
        problems += check_certificate(spec, cert)
    if d["table"] is not None:
        problems += check_exp_table(outputs["nd"][-1])
    for spec, report in zip(d["wlud"], outputs["wlud"]):
        problems += check_wlud(spec, report)
    return 0, problems


def evidence(outputs) -> dict:
    reports = outputs["wlud"]
    certs = outputs["1d"] + [c for c in outputs["nd"] if hasattr(c, "identity_checks")]
    return {
        "wlud.pairs_checked": sum(r.samples for r in reports),
        "wlud.pairs_inconclusive": sum(r.inconclusive for r in reports),
        "wlud.identity_checks": sum(len(c.identity_checks) for c in certs),
    }


def end_to_end(inputs: Inputs, times) -> dict:
    checks = len(inputs.data["wlud"])
    return {
        "certify_1d_s": (statistics.median(times["1d"]), "s"),
        "certify_nd_s": (statistics.median(times["nd"]), "s"),
        "wlud_checks_per_s": (checks / statistics.median(times["wlud"]), "checks/s"),
    }
