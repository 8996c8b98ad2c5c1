"""Self-test of the benchmark's output checks.

Runs one small round of each workload, checks that its real outputs pass,
then perturbs them one way at a time and checks that every checker rejects
the perturbed result.  From the repository root:

    python3 bench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from run import SRC, Speedometer, Tally, run_round

sys.path.insert(0, str(SRC))

from levicivita import D, LCNumber, Ordering, ZERO, monomial, parse_expr, partial_jet  # noqa: E402

import arith  # noqa: E402
import certify  # noqa: E402
import derive  # noqa: E402

failures: list[str] = []
METER = Speedometer()


def expect_rejected(label: str, problems) -> None:
    if not problems:
        failures.append(f"{label}: perturbed result was accepted")


def expect_accepted(label: str, problems) -> None:
    if problems:
        failures.append(f"{label}: real result was rejected: {problems[:3]}")


def round_of(workload):
    inputs = workload.build(1, probe=True)
    return inputs, run_round(workload, inputs, Tally(), METER)[1]


def test_certify():
    inputs, out = round_of(certify)
    d = inputs.data
    expect_accepted("certify", certify.check(inputs, out)[1])
    spec, cert = d["1d"][0], out["1d"][0]
    for label, bad in [
        ("verdict", replace(cert, verdict="inconclusive")),
        ("lambda0", replace(cert, lambda0=0)),
        ("ladder", replace(cert, delta_ladder=())),
        ("identity checks", replace(cert, identity_checks=())),
    ]:
        expect_rejected(f"certificate {label}", certify.check_certificate(spec, bad))
    table = partial_jet(parse_expr("exp(x+y)"), ["x", "y"], [ZERO, ZERO], 4)
    expect_accepted("exp(x+y) table", certify.check_exp_table(table))
    bent = dict(table.table)
    bent[(1, 2)] = bent[(1, 2)] * (1 + 1e-9)
    expect_rejected("exp(x+y) table", certify.check_exp_table(replace(table, table=bent)))
    bent[(1, 2)] = table.table[(1, 2)] + D
    expect_rejected("exp(x+y) table, non-real", certify.check_exp_table(replace(table, table=bent)))
    checks = list(zip(d["wlud"], out["wlud"]))
    spec, report = next((s, r) for s, r in checks if s[0] == "abs")
    expect_rejected("wlud verdict", certify.check_wlud(spec, replace(report, result="pass")))
    harmless = (monomial(2), monomial(1)) + report.worst_pair[2:]
    expect_rejected("wlud witness", certify.check_wlud(spec, replace(report, worst_pair=harmless)))
    spec, report = next((s, r) for s, r in checks if s[3] is not None and s[3] <= s[2])
    expect_rejected("wlud exact margin", certify.check_wlud(spec, replace(report, margin=0)))
    expect_rejected("wlud no samples", certify.check_wlud(spec, replace(report, samples=0)))


def test_derive():
    inputs, out = round_of(derive)
    texts = inputs.data["texts"]
    expect_accepted("derive", derive.check(inputs, out)[1])
    poly = texts.index(next(t for t in texts if t in derive.INTEGER_POLYS))
    other = texts.index(next(t for t in texts if t not in derive.INTEGER_POLYS))

    def with_jet(i, j, value):
        jets = [list(row) for row in out["jets"]]
        jet = jets[i][0]
        coeffs = list(jet.coeffs)
        coeffs[j] = value
        jets[i][0] = replace(jet, coeffs=tuple(coeffs))
        return {**out, "jets": jets}

    c = out["jets"][poly][0].coeffs[3].real_part()
    one_ulp = LCNumber.from_real(math.nextafter(c, math.inf))
    expect_rejected("integer polynomial jet, one ulp", derive.check(inputs, with_jet(poly, 3, one_ulp))[1])
    c = out["jets"][other][0].coeffs[5]
    expect_rejected("jet, 1e-6 relative", derive.check(inputs, with_jet(other, 5, c * (1 + 1e-6)))[1])
    expect_rejected("jet, not real", derive.check(inputs, with_jet(other, 5, c + D))[1])
    evals = [[list(row) for row in rows] for rows in out["evals"]]
    evals[other][0][4] = evals[other][0][4] * (1 + 1e-9)
    expect_rejected("eval_lc, 1e-9 relative", derive.check(inputs, {**out, "evals": evals})[1])


def test_arith():
    inputs = arith.build(1, probe=True)
    inputs.data["edge"] = LCNumber.from_real(1e200)
    out = run_round(arith, inputs, Tally(), METER)[1]
    failed, problems = arith.check(inputs, out)
    expect_accepted("arith", problems)
    if failed != arith.EDGE_OPS:
        failures.append(f"overflow edge: {failed} failed, expected {arith.EDGE_OPS}")
    if arith.edge_failures([LCNumber.from_real(1.0), ValueError("raised")]) != 1:
        failures.append("overflow edge: a finite result or a raised error is miscounted")
    (x, y, _), result = inputs.data["triples"][0], out["field"][0][0]
    values, laws, diff, xy, yx = result
    inf = out["edge"][0][0]
    for label, bad in [
        ("law", (values, (Ordering.LESS,) + laws[1:], diff, xy, yx)),
        ("antisymmetry", (values, laws, diff, xy, xy if xy is not Ordering.EQUAL_AT_HORIZON else Ordering.LESS)),
        ("product valuation", ((values[0], values[1], values[2] * D) + values[3:], laws, diff, xy, yx)),
        ("non-finite", (values[:-1] + (inf,), laws, diff, xy, yx)),
    ]:
        expect_rejected(f"field {label}", arith.check_field(x, y, bad))
    dyadic, general = inputs.data["dyadic"][0], inputs.data["general"][0]
    invs = [inv for chunk in out["inv"] for inv in chunk]
    inv_d, inv_g = invs[0], invs[len(inputs.data["dyadic"])]
    expect_rejected("dyadic inverse", arith.check_inverse(dyadic, inv_d * (1 + 2.0**-40), exact=True))
    expect_rejected("general inverse", arith.check_inverse(general, inv_g * (1 + 1e-9), exact=False))
    a, results = inputs.data["elementary"][0][0], out["elementary"][0]
    for i, name in enumerate(("exp", "exp(-a)", "sin", "cos", "ln(exp)", "sqrt")):
        bent = list(results)
        bent[i] = bent[i] * (1 + 1e-9)
        expect_rejected(f"elementary {name}", arith.check_elementary(a, tuple(bent)))
        bent[i] = results[i] + monomial(3, 1e-3)
        expect_rejected(f"elementary {name}, infinitesimal", arith.check_elementary(a, tuple(bent)))


def main() -> int:
    with METER:
        for test in (test_certify, test_derive, test_arith):
            test()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
