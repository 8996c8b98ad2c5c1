"""Per-layer metrics read from a cProfile run of one workload round.

A layer is a module of the library (``core``, ``series``, ``expr``,
``calculus``, ``wlud``) or the stdlib ``fractions`` module.  Self times sum
the profiler's own-time column over a layer's functions; calls count entries
at the layer's entry points; phase times are cumulative times of the
functions that make up a phase.
"""

from __future__ import annotations

import pstats
from pathlib import Path

LAYERS = ("core", "series", "expr", "calculus", "wlud")

#: Functions of ``series`` whose direct ``__mul__`` calls make up the
#: elementary-function summations (``steps`` are their term generators).
ELEMENTARY = ("exp", "ln", "sin", "cos", "nth_root")
ELEMENTARY_BODIES = ELEMENTARY + ("_sin_cos", "steps")

#: What a certificate does before its identity phase.
CERTIFICATES = ("analyticity_certificate_1d", "analyticity_certificate_nd")
CERTIFICATE_SETUP = (
    ("calculus", "taylor_jet"),
    ("calculus", "partial_jet"),
    ("series", "lambda0_estimate"),
    ("wlud", "delta_ladder_search"),
    ("wlud", "_delta_ladder_search_nd"),
    ("wlud", "_per_order_growth"),
    ("wlud", "_window_max"),
)

#: Per-layer metric names in output order, with their units.
METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS + ("fractions",)]
    + [
        ("core.mul_calls", "count"),
        ("core.add_calls", "count"),
        ("core.inv_calls", "count"),
        ("core.compare_calls", "count"),
        ("fractions.new_calls", "count"),
        ("series.elementary_calls", "count"),
        ("series.muls_per_call", "muls/call"),
        ("expr.eval_lc_calls", "count"),
        ("calculus.jet_calls", "count"),
        ("expr.eval_lc_s", "s"),
        ("calculus.jet_s", "s"),
        ("wlud.ladder_s", "s"),
        ("wlud.identity_s", "s"),
        ("wlud.pairs_checked", "count"),
        ("wlud.pairs_inconclusive", "count"),
        ("wlud.identity_checks", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def layer_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "levicivita" and path.stem in LAYERS:
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def layer_metrics(profile) -> dict[str, float]:
    """Self times, entry-point calls and phase times of one profiled round."""
    stats = pstats.Stats(profile).stats
    by_name: dict[tuple[str, str], list] = {}
    self_s = dict.fromkeys(LAYERS + ("fractions",), 0.0)
    for key, row in stats.items():
        layer = layer_of(key[0])
        if layer is None:
            continue
        self_s[layer] += row[2]
        by_name.setdefault((layer, key[2]), []).append((key, row))

    def rows(layer, *names):
        return [entry for name in names for entry in by_name.get((layer, name), [])]

    def calls(layer, *names):
        return sum(row[1] for _, row in rows(layer, *names))

    def cumulative(layer, *names):
        return sum(row[3] for _, row in rows(layer, *names))

    mul_from_series = sum(
        edge[0]
        for _, row in rows("core", "__mul__")
        for caller, edge in row[4].items()
        if layer_of(caller[0]) == "series" and caller[2] in ELEMENTARY_BODIES
    )
    elementary_calls = calls("series", *ELEMENTARY)
    certs = rows("wlud", *CERTIFICATES)
    cert_keys = {key for key, _ in certs}
    before_identity = sum(
        edge[3]
        for layer, name in CERTIFICATE_SETUP
        for _, row in rows(layer, name)
        for caller, edge in row[4].items()
        if caller in cert_keys
    )
    out = {f"{layer}.self_s": t for layer, t in self_s.items()}
    out.update(
        {
            "core.mul_calls": calls("core", "__mul__"),
            "core.add_calls": calls("core", "__add__"),
            "core.inv_calls": calls("core", "inv"),
            "core.compare_calls": calls("core", "compare"),
            "fractions.new_calls": calls("fractions", "__new__"),
            "series.elementary_calls": elementary_calls,
            "series.muls_per_call": mul_from_series / elementary_calls if elementary_calls else 0.0,
            "expr.eval_lc_calls": calls("expr", "eval_lc"),
            "calculus.jet_calls": calls("calculus", "taylor_jet", "partial_jet"),
            "expr.eval_lc_s": cumulative("expr", "eval_lc"),
            "calculus.jet_s": cumulative("calculus", "taylor_jet", "partial_jet"),
            "wlud.ladder_s": cumulative("wlud", "delta_ladder_search", "_delta_ladder_search_nd"),
            "wlud.identity_s": sum(row[3] for _, row in certs) - before_identity,
        }
    )
    return out
