"""The ``derive`` workload: derivatives of real expressions at real points.

One round takes order-8 jets of the 30-expression criterion-3 corpus at five
real points and evaluates each expression's 8-deep ``diff_symbolic`` chain
there with ``eval_lc``.  Point 0 is always one of the five; the seed draws
the other four from the dyadics k/8, k in [-6, 8], k != 0, so every point is
a single-term (real) number and the cost of a round does not depend on the
seed.  ``wlud`` does not run here, and ``series`` runs only on real
arguments.

The checks are the benchmark's own: a float interpreter over the expression
tree, written with ``math``, and exact ``Fraction`` derivatives of the
integer polynomials.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from functools import partial

from levicivita import (
    Add,
    Apply,
    Div,
    IntPow,
    LCNumber,
    Mul,
    RationalConst,
    Sub,
    Variable,
    diff_symbolic,
    eval_lc,
    parse_expr,
    taylor_jet,
)

from common import Inputs, close

NAME = "derive"
ORDER = 8

CORPUS_30 = [
    "x^2", "x^3 - 2*x", "x^8 - 3*x^5 + 2*x^2 - 7*x + 1", "5*x^4 + x", "x^6 - x",
    "exp(x)", "exp(2*x)", "exp(-x)", "x*exp(x)", "exp(x^2)",
    "ln(1+x)", "ln(1+x^2)", "x*ln(1+x)", "ln(1+x)/(2+x)", "ln(1+x/2)",
    "sin(x)", "cos(x)", "sin(2*x)", "sin(x)*cos(x)", "x^2*sin(x)",
    "exp(x)*sin(x)", "exp(x)*cos(x)", "cos(x^2)", "sin(x)^2", "cos(x)^3",
    "x^3*exp(x)", "exp(sin(x))", "sin(exp(x)-1)", "(1+x^2)*cos(x)", "exp(x)*ln(1+x)",
]
PROBE_CORPUS = ["exp(x)*sin(x)", "x^8 - 3*x^5 + 2*x^2 - 7*x + 1"]

#: The integer polynomials of the corpus as {power: coefficient}.
INTEGER_POLYS = {
    "x^2": {2: 1},
    "x^3 - 2*x": {3: 1, 1: -2},
    "x^8 - 3*x^5 + 2*x^2 - 7*x + 1": {8: 1, 5: -3, 2: 2, 1: -7, 0: 1},
    "5*x^4 + x": {4: 5, 1: 1},
    "x^6 - x": {6: 1, 1: -1},
}

JET_REL_TOL = 1e-9  # jets against derivative chains, as in criterion 3
EVAL_REL_TOL = 1e-12  # eval_lc against the float interpreter


def build(seed: int, probe: bool) -> Inputs:
    """Parse the corpus and build each symbolic derivative chain."""
    rng = random.Random(f"derive:{seed}")
    ks = [k for k in range(-6, 9) if k]
    if probe:
        texts, points = PROBE_CORPUS, sorted(rng.sample(ks, 2))
    else:
        texts, points = CORPUS_30, [0] + sorted(rng.sample(ks, 4))
    points = [Fraction(k, 8) for k in points]
    chains = []
    for text in texts:
        chain = [parse_expr(text)]
        for _ in range(ORDER):
            chain.append(diff_symbolic(chain[-1], "x"))
        chains.append(chain)
    data = {
        "texts": texts,
        "chains": chains,
        "points": points,
        "lc_points": [LCNumber.from_real(p) for p in points],
        "refs": None,
    }
    ops = len(texts) * len(points) * (1 + ORDER + 1)
    return Inputs(ops, data)


def phases(inputs: Inputs):
    """Each phase is a list of operations, one expression at every point each."""
    points = inputs.data["lc_points"]

    def jets(f):
        return [taylor_jet(f, "x", p, ORDER) for p in points]

    def evals(chain):
        return [[eval_lc(g, {"x": p}) for g in chain] for p in points]

    chains = inputs.data["chains"]
    return [
        ("jets", [partial(jets, chain[0]) for chain in chains]),
        ("evals", [partial(evals, chain) for chain in chains]),
    ]


def _fpow(b: float, n: int) -> float:
    # Square-and-multiply in the order LCNumber.__pow__ uses.
    if n < 0:
        b, n = 1.0 / b, -n
    r = 1.0
    while n:
        if n & 1:
            r = r * b
        n >>= 1
        if n:
            b = b * b
    return r


_FUNCS = {
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
}


def float_eval(e, x: float, memo: dict) -> float:
    """Evaluate an expression tree at a real point with binary64 and ``math``.

    Derivative chains share subtrees, so results are memoized per node.
    """
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, RationalConst):
        v = float(e.value)
    elif isinstance(e, Variable):
        v = x
    elif isinstance(e, Add):
        v = float_eval(e.left, x, memo) + float_eval(e.right, x, memo)
    elif isinstance(e, Sub):
        v = float_eval(e.left, x, memo) - float_eval(e.right, x, memo)
    elif isinstance(e, Mul):
        v = float_eval(e.left, x, memo) * float_eval(e.right, x, memo)
    elif isinstance(e, Div):
        v = float_eval(e.left, x, memo) * (1.0 / float_eval(e.right, x, memo))
    elif isinstance(e, IntPow):
        v = _fpow(float_eval(e.base, x, memo), e.exponent)
    elif isinstance(e, Apply):
        v = _FUNCS[e.func](float_eval(e.arg, x, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = v
    return v


def poly_derivative(coeffs: dict, j: int, x: Fraction) -> Fraction:
    """The exact j-th derivative of sum(c * x^n) at a rational point."""
    return sum(
        (c * math.perm(n, j) * x ** (n - j) for n, c in coeffs.items() if n >= j),
        Fraction(0),
    )


def references(inputs: Inputs) -> list:
    """refs[i][p][j]: the j-th derivative of expression i at point p."""
    d = inputs.data
    if d["refs"] is None:
        d["refs"] = [
            [[float_eval(g, float(x), {}) for g in chain] for x in d["points"]]
            for chain in d["chains"]
        ]
    return d["refs"]


def _real(x) -> float | None:
    """The value of a number that must be real, or None if it is not."""
    terms = x.terms
    if not terms:
        return 0.0
    if len(terms) == 1 and terms[0][0] == 0:
        return terms[0][1]
    return None


def check(inputs: Inputs, outputs) -> tuple[int, list[str]]:
    d = inputs.data
    refs = references(inputs)
    problems = []
    for i, text in enumerate(d["texts"]):
        poly = INTEGER_POLYS.get(text)
        for p, x in enumerate(d["points"]):
            jet = outputs["jets"][i][p]
            for j in range(ORDER + 1):
                where = f"{text} at {x}, order {j}"
                got = _real(jet.coeffs[j])
                if got is None:
                    problems.append(f"jet {where}: not real: {jet.coeffs[j]}")
                    continue
                got *= math.factorial(j)
                if poly is not None:
                    want = float(poly_derivative(poly, j, x))
                    ok = got == want
                else:
                    want = refs[i][p][j]
                    ok = close(got, want, JET_REL_TOL)
                if not ok:
                    problems.append(f"jet {where}: {got!r}, expected {want!r}")
                value = _real(outputs["evals"][i][p][j])
                if value is None or not close(value, refs[i][p][j], EVAL_REL_TOL):
                    problems.append(
                        f"eval_lc {where}: {outputs['evals'][i][p][j]}, "
                        f"expected {refs[i][p][j]!r}"
                    )
    return 0, problems


def evidence(outputs) -> dict:
    return {}


def end_to_end(inputs: Inputs, times) -> dict:
    d = inputs.data
    jets = len(d["chains"]) * len(d["points"])
    return {
        "derive_jets_per_s": (jets / statistics.median(times["jets"]), "jets/s"),
        "eval_points_per_s": (jets * (ORDER + 1) / statistics.median(times["evals"]), "evals/s"),
    }
