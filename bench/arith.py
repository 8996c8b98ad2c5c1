"""The ``arith`` workload: the Levi-Civita field itself.

One round runs ``+ - * compare`` on seeded multi-term numbers whose exponent
denominators go up to 6 (horizon 32), evaluating both sides of the field
laws; ``inv`` on dyadic and general numbers; and ``exp ln sin cos nth_root``
on arguments with infinitesimal parts.  The work is pure ``core`` plus
``series`` summation: no ``expr``, ``calculus`` or ``wlud``.

The seed draws every coefficient; the shapes of the numbers (term counts and
exponents) are the same for every seed, so the cost of a round does not
depend on it.  The elementary arguments take their exponents from a fixed
list, because series cost grows quickly as the valuation of the
infinitesimal part falls.

Each round also makes two overflow-edge operations on inputs that do not
depend on the seed: ``from_real(1e200)**2`` and its difference with itself.
The library returns them with an ``inf`` and a ``nan`` coefficient, so both
are counted as failed.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from functools import partial

from levicivita import LCNumber, Ordering, cos, exp, ln, nth_root, sin
from levicivita.errors import LCError

from common import Inputs, close, max_abs, nonfinite, rel_residual

NAME = "arith"
HORIZON = Fraction(32)
REL_TOL = 1e-12
EQUAL = Ordering.EQUAL_AT_HORIZON
MIRROR = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS, EQUAL: EQUAL}
F = Fraction

#: (exponent of the first, exponent of the second infinitesimal term) of the
#: elementary arguments, taken in turn.
ELEMENTARY_SHAPES = [
    (F(1, 2), F(3, 2)),
    (F(2, 3), F(1)),
    (F(1), F(5, 3)),
    (F(3, 4), F(5, 2)),
]
FIELD_OPS_PER_TRIPLE = 21
ELEMENTARY_CALLS_PER_ARG = 6
EDGE_OPS = 2
#: Triples or inverses timed as one sample.
CHUNK = 25


def _exponents(shape: random.Random, count: int, dens) -> list[Fraction]:
    """Distinct exponents in [-5, 5], each with a denominator drawn from dens."""
    out: set[Fraction] = set()
    while len(out) < count:
        den = shape.choice(dens)
        out.add(F(shape.randint(-5 * den, 5 * den), den))
    return sorted(out)


def _dyadic(value: random.Random) -> float:
    return value.choice((-1, 1)) * value.randint(1, 16) / 2.0 ** value.randint(0, 4)


def field_number(shape: random.Random, value: random.Random) -> LCNumber:
    """1 to 8 terms, exponents in [-5, 5] with denominators <= 6, nonzero
    dyadic coefficients, horizon 32."""
    exps = _exponents(shape, shape.randint(1, 8), range(1, 7))
    return LCNumber([(e, _dyadic(value)) for e in exps], HORIZON)


def dyadic_number(shape: random.Random, value: random.Random) -> LCNumber:
    """Integer exponents, power-of-two leading coefficient, horizon lambda+6:
    the inverse round trip is exact in binary64."""
    exps = _exponents(shape, shape.randint(1, 8), (1,))
    lead = value.choice((-1, 1)) * 2.0 ** value.randint(-2, 2)
    terms = [(exps[0], lead)] + [(e, _dyadic(value)) for e in exps[1:]]
    return LCNumber(terms, exps[0] + 6)


def general_number(shape: random.Random, value: random.Random) -> LCNumber:
    """Float coefficients on the field exponent family, horizon lambda+6.

    Coefficients have sizes in [1/4, 1], the leading one four times that.
    When later coefficients outweigh the leading one, the geometric series
    in ``inv`` loses digits to cancellation (x*inv(x) - 1 reaches 1e-3 on a
    few inputs in a thousand), which would fail the check on some seeds only.
    """
    exps = _exponents(shape, shape.randint(1, 8), range(1, 7))
    coeffs = [value.uniform(0.25, 1.0) * value.choice((-1.0, 1.0)) for _ in exps]
    coeffs[0] *= 4
    return LCNumber(list(zip(exps, coeffs)), exps[0] + 6)


def elementary_arg(value: random.Random, exps) -> LCNumber:
    """r + c1*d^e1 + c2*d^e2 with r in [1, 2], so ln and sqrt apply, and
    |c1|, |c2| in [1/8, 1/2].

    Once the infinitesimal part outweighs about half of r, or its
    coefficients pass 1/2, the binary64 series behind ln(exp(a)) and
    sqrt(a) lose digits near the horizon to cancellation (up to all of them),
    which would fail the identity checks on some seeds and not others.
    """
    terms = [(F(0), value.uniform(1.0, 2.0))]
    for e in exps:
        terms.append((e, value.uniform(0.125, 0.5) * value.choice((-1.0, 1.0))))
    return LCNumber(terms, HORIZON)


def build(seed: int, probe: bool) -> Inputs:
    """The seed draws the coefficients; the shapes (term counts and
    exponents) come from a fixed stream, so the cost of a round does not
    depend on the seed: inverse cost alone swings by 40% between seeds when
    the shapes are drawn too."""
    shape, value = random.Random("arith:shapes"), random.Random(f"arith:{seed}")
    triples, invs, args = (50, 50, 1) if probe else (800, 600, 8)
    nums = [field_number(shape, value) for _ in range(3 * triples)]
    elementary = [
        elementary_arg(value, ELEMENTARY_SHAPES[i % len(ELEMENTARY_SHAPES)])
        for i in range(args)
    ]
    data = {
        "triples": [tuple(nums[3 * i : 3 * i + 3]) for i in range(triples)],
        "dyadic": [dyadic_number(shape, value) for _ in range(invs)],
        "general": [general_number(shape, value) for _ in range(invs)],
        "elementary": [(a, -a) for a in elementary],
        "edge": None if probe else LCNumber.from_real(1e200),
    }
    ops = (
        FIELD_OPS_PER_TRIPLE * triples
        + 2 * invs
        + ELEMENTARY_CALLS_PER_ARG * args
        + (0 if probe else EDGE_OPS)
    )
    return Inputs(ops, data)


def _field_laws(x, y, z):
    """Both sides of each field law, plus x - y and the two comparisons."""
    s1, s2 = x + y, y + x
    p1, p2 = x * y, y * x
    yz = y + z
    a1, a2 = s1 + z, x + yz
    m1, m2 = p1 * z, x * (y * z)
    d1, d2 = x * yz, p1 + x * z
    laws = (s1.compare(s2), p1.compare(p2), a1.compare(a2), m1.compare(m2), d1.compare(d2))
    values = (s1, s2, p1, p2, yz, a1, a2, m1, m2, d1, d2)
    return values, laws, x - y, x.compare(y), y.compare(x)


def _attempt(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError, LCError) as exc:
        return exc


def _chunks(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def phases(inputs: Inputs):
    """Each phase is a list of operations: a chunk of triples or inverses,
    the six elementary calls on one argument, or the two edge operations."""
    d = inputs.data

    def field(triples):
        return [_field_laws(x, y, z) for x, y, z in triples]

    def inverses(xs):
        return [x.inv() for x in xs]

    def elementary(a, neg):
        ea = exp(a)
        return ea, exp(neg), sin(a), cos(a), ln(ea), nth_root(a, 2)

    def edge(big):
        square = _attempt(lambda: big**2)
        if not isinstance(square, LCNumber):
            return square, square
        return square, _attempt(lambda: square - square)

    out = [
        ("field", [partial(field, c) for c in _chunks(d["triples"], CHUNK)]),
        ("inv", [partial(inverses, c) for c in _chunks(d["dyadic"] + d["general"], CHUNK)]),
        ("elementary", [partial(elementary, a, neg) for a, neg in d["elementary"]]),
    ]
    if d["edge"] is not None:
        out.append(("edge", [partial(edge, d["edge"])]))
    return out


def check_field(x, y, result) -> list[str]:
    values, laws, diff, xy, yx = result
    problems = []
    if any(v is not EQUAL for v in laws):
        problems.append(f"field law broken for x={x}, y={y}: {laws}")
    if MIRROR[xy] is not yx:
        problems.append(f"compare not antisymmetric for x={x}, y={y}: {xy}, {yx}")
    want = EQUAL if not diff else (Ordering.GREATER if diff.terms[0][1] > 0 else Ordering.LESS)
    if xy is not want:
        problems.append(f"compare({x}, {y}) = {xy}, but x - y = {diff}")
    s, p = values[0], values[2]
    if x and y and p.valuation() != x.valuation() + y.valuation():
        problems.append(f"valuation of x*y is {p.valuation()} for x={x}, y={y}")
    lx, ly = x.valuation(), y.valuation()
    if s and (s.valuation() < min(lx, ly) or (lx != ly and s.valuation() != min(lx, ly))):
        problems.append(f"valuation of x+y is {s.valuation()} for x={x}, y={y}")
    if any(nonfinite(v) for v in values + (diff,)):
        problems.append(f"non-finite field result for x={x}, y={y}")
    return problems


def check_inverse(x, inv, exact: bool) -> list[str]:
    if nonfinite(inv):
        return [f"inv({x}) has a non-finite coefficient"]
    one = x * inv
    if exact:
        if one.terms != ((F(0), 1.0),):
            return [f"dyadic x*inv(x) = {one} for x={x}"]
        return []
    rel = rel_residual(one - 1, max_abs(x) * max_abs(inv))
    if rel > REL_TOL:
        return [f"x*inv(x) - 1 has relative size {rel:.2e} for x={x}"]
    return []


def check_elementary(a, results) -> list[str]:
    ea, ena, s, c, l, root = results
    if any(nonfinite(v) for v in results):
        return [f"non-finite elementary result at a={a}"]
    r = a.real_part()
    problems = []
    identities = [
        ("exp(a)*exp(-a) - 1", ea * ena - 1, max_abs(ea) * max_abs(ena)),
        ("sin^2 + cos^2 - 1", s * s + c * c - 1, max(max_abs(s), max_abs(c)) ** 2),
        ("ln(exp(a)) - a", l - a, max(max_abs(l), max_abs(a))),
        ("sqrt(a)^2 - a", root * root - a, max_abs(root) ** 2),
    ]
    for name, resid, scale in identities:
        rel = rel_residual(resid, scale)
        if rel > REL_TOL:
            problems.append(f"{name} has relative size {rel:.2e} at a={a}")
    reals = [
        ("exp", ea, math.exp(r)),
        ("sin", s, math.sin(r)),
        ("cos", c, math.cos(r)),
        ("ln(exp)", l, math.log(math.exp(r))),
        ("sqrt", root, math.sqrt(r)),
    ]
    for name, value, want in reals:
        if not close(value.real_part(), want, 1e-15):
            problems.append(f"real part of {name}(a) is {value.real_part()!r}, math gives {want!r}")
    return problems


def edge_failures(results) -> int:
    """Edge operations that raised or returned a non-finite coefficient."""
    return sum(not isinstance(v, LCNumber) or nonfinite(v) for v in results)


def check(inputs: Inputs, outputs) -> tuple[int, list[str]]:
    d = inputs.data
    problems = []
    field = [r for chunk in outputs["field"] for r in chunk]
    for (x, y, _), result in zip(d["triples"], field):
        problems += check_field(x, y, result)
    invs = [inv for chunk in outputs["inv"] for inv in chunk]
    for i, (x, inv) in enumerate(zip(d["dyadic"] + d["general"], invs)):
        problems += check_inverse(x, inv, exact=i < len(d["dyadic"]))
    for (a, _), results in zip(d["elementary"], outputs["elementary"]):
        problems += check_elementary(a, results)
    failed = edge_failures(outputs["edge"][0]) if "edge" in outputs else 0
    return failed, problems


def evidence(outputs) -> dict:
    return {}


def end_to_end(inputs: Inputs, times) -> dict:
    d = inputs.data
    field_ops = FIELD_OPS_PER_TRIPLE * len(d["triples"])
    invs = len(d["dyadic"]) + len(d["general"])
    calls = ELEMENTARY_CALLS_PER_ARG * len(d["elementary"])
    return {
        "arith_ops_per_s": (field_ops / statistics.median(times["field"]), "ops/s"),
        "inv_per_s": (invs / statistics.median(times["inv"]), "inv/s"),
        "elementary_per_s": (calls / statistics.median(times["elementary"]), "calls/s"),
    }
