"""Shared random-input generators for the test suite (seeded, deterministic),
and its one tolerant comparison of LC numbers."""

from __future__ import annotations

import random
from fractions import Fraction

from levicivita import LCNumber
from levicivita.core import as_lc

#: Criterion 3's expressions in x: polynomials, exp, ln, sin, cos and mixes.
CORPUS_30 = [
    "x^2", "x^3 - 2*x", "x^8 - 3*x^5 + 2*x^2 - 7*x + 1", "5*x^4 + x", "x^6 - x",
    "exp(x)", "exp(2*x)", "exp(-x)", "x*exp(x)", "exp(x^2)",
    "ln(1+x)", "ln(1+x^2)", "x*ln(1+x)", "ln(1+x)/(2+x)", "ln(1+x/2)",
    "sin(x)", "cos(x)", "sin(2*x)", "sin(x)*cos(x)", "x^2*sin(x)",
    "exp(x)*sin(x)", "exp(x)*cos(x)", "cos(x^2)", "sin(x)^2", "cos(x)^3",
    "x^3*exp(x)", "exp(sin(x))", "sin(exp(x)-1)", "(1+x^2)*cos(x)", "exp(x)*ln(1+x)",
]

#: The verdict corpus C210: its 35 expressions (criterion 3's and five with
#: poles or a branch point) at its 6 centres, given as LC literals, make 210
#: certificates with jmax 16, kmax 4 and the default plan.
C210_EXPRESSIONS = CORPUS_30 + ["1/(1-x)", "1/x", "sqrt(x)", "x^4-3*x+1", "1/(x-x^2)"]
C210_CENTRES = ["0", "1/2", "d", "1/2+d", "d^(1/2)", "1-2d^(1/2)+d^3"]

#: Criterion 3's points.
BASE_POINTS = [Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(1), Fraction(-1, 2)]


def field_suite_number(rng: random.Random, max_terms: int = 8) -> LCNumber:
    """Exponent denominators <= 6 in [-5, 5], dyadic coefficients, horizon 32."""
    nterms = rng.randint(1, max_terms)
    terms = []
    for _ in range(nterms):
        den = rng.randint(1, 6)
        num = rng.randint(-5 * den, 5 * den)
        c = rng.randint(-16, 16) / 2.0 ** rng.randint(0, 4)
        if c:
            terms.append((Fraction(num, den), c))
    return LCNumber(terms, Fraction(32))


def dyadic_invertible_number(rng: random.Random) -> LCNumber:
    """Power-of-two leading coefficient, integer exponents, shallow horizon.

    On this family the inverse round trip is exact in binary64: dividing by
    the leading coefficient is exact scaling and coefficient bit growth
    along the depth-6 geometric series stays under 2^53.
    """
    nterms = rng.randint(1, 8)
    exps = sorted(rng.sample(range(-5, 6), nterms))
    terms = [(Fraction(exps[0]), rng.choice([-1, 1]) * 2.0 ** rng.randint(-2, 2))]
    for e in exps[1:]:
        m = rng.randint(-16, 16)
        if m:
            terms.append((Fraction(e), m / 2.0 ** rng.randint(0, 4)))
    return LCNumber(terms, Fraction(exps[0] + 6))


def general_invertible_number(rng: random.Random) -> LCNumber:
    """Float coefficients on the criterion-1 exponent family, horizon lambda+6."""
    nterms = rng.randint(1, 8)
    terms = []
    for _ in range(nterms):
        den = rng.randint(1, 6)
        num = rng.randint(-5 * den, 5 * den)
        c = rng.uniform(0.25, 4.0) * rng.choice([-1.0, 1.0])
        terms.append((Fraction(num, den), c))
    lam = min(e for e, _ in terms)
    return LCNumber(terms, lam + 6)


def infinitesimal_vector(rng: random.Random, n: int) -> tuple[LCNumber, ...]:
    """Exact infinitesimals with dyadic coefficients and integer exponents."""
    out = []
    for _ in range(n):
        nterms = rng.randint(1, 3)
        exps = sorted(rng.sample(range(1, 5), nterms))
        terms = []
        for e in exps:
            m = rng.randint(-8, 8)
            if m:
                terms.append((Fraction(e), m / 4.0))
        if not terms:
            terms = [(Fraction(exps[0]), 0.5)]
        out.append(LCNumber(terms))
    return tuple(out)


def close(x: LCNumber, y, rel_tol: float = 1e-12) -> bool:
    """x == y up to binary64 noise: each coefficient of x - y is at most
    rel_tol times the largest coefficient magnitude of either operand."""
    y = as_lc(y)
    scale = max(x.max_abs_coefficient(), y.max_abs_coefficient())
    return all(abs(c) <= rel_tol * scale for _, c in (x - y).terms)
