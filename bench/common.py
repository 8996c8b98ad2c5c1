"""Helpers shared by the workload modules: input records and output checks."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class Inputs:
    """Everything one workload round needs, built from the seed.

    ``ops`` is the number of library operations one round attempts; it does
    not depend on the seed, so every round has the same size.
    """

    ops: int
    data: dict


def nonfinite(x) -> bool:
    """True when an LC number carries an inf or nan coefficient."""
    return not all(math.isfinite(c) for _, c in x.terms)


def max_abs(x) -> float:
    return max((abs(c) for _, c in x.terms), default=0.0)


def rel_residual(resid, scale: float) -> float:
    """Largest residual coefficient relative to ``max(1, scale)``."""
    return max_abs(resid) / max(1.0, scale)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))
