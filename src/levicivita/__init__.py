"""Truncated Levi-Civita field arithmetic and calculus built on it.

Quick start::

    from levicivita import D, parse_expr, taylor_jet

    f = parse_expr("exp(x)")
    jet = taylor_jet(f, "x", 0, 5)      # f^(j)(0)/j! for j = 0..5
    print((1 + D).inv())                # 1 - d + d^2 - ... up to horizon
"""

from .core import (
    D,
    INF,
    LCNumber,
    ONE,
    Ordering,
    ZERO,
    compare,
    default_horizon,
    format_lc,
    horizon,
    monomial,
    ultrametric,
    valuation,
)
from . import errors
from .series import (
    ConvergenceVerdict,
    PowerSeries,
    Verdict,
    apply_elementary,
    converges_at,
    cos,
    differentiate_termwise,
    exp,
    lambda0_estimate,
    ln,
    nth_root,
    recenter,
    sin,
)
from .expr import (
    Add,
    Apply,
    Div,
    Expr,
    IntPow,
    Mul,
    RationalConst,
    Sub,
    Variable,
    diff_symbolic,
    eval_lc,
    parse_expr,
    parse_lc,
    print_expr,
    variables,
)
from .calculus import (
    PartialJet,
    derivative_at,
    lhopital_limit,
    multi_indices,
    partial_jet,
    taylor_jet,
)
from .wlud import (
    AnalyticityCertificate,
    SamplingPlan,
    WludReport,
    analyticity_certificate_1d,
    analyticity_certificate_nd,
    certificate_to_json,
    default_delta_ladder,
    delta_ladder_search,
    report_to_json,
    valuation_to_json,
    wlud_check_1d,
    wlud_check_nd,
)

__version__ = "0.2.0"
