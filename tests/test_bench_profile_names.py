"""The benchmark's per-layer metrics find library functions by name.

``bench/layers.py`` reads a cProfile table keyed by (module, function name),
so a rename in the library would silently zero a metric.  These tests read
that file (without importing it as a module) and check the names against the
library source.
"""

import ast
import cProfile
import fractions
import pstats
import runpy
from pathlib import Path

import pytest

import levicivita

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SRC = Path(levicivita.__file__).resolve().parent
LAYERS = runpy.run_path(str(LAYERS_PY))


def _defs(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _string_lookups() -> set:
    """(layer, name) pairs passed as literals to calls/cumulative/rows."""
    tree = ast.parse(LAYERS_PY.read_text())
    out = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("calls", "cumulative", "rows")
        ):
            args = [a.value for a in node.args if isinstance(a, ast.Constant)]
            out.update((args[0], name) for name in args[1:])
    return out


def _profiled_names() -> list:
    names = {("wlud", name) for name in LAYERS["CERTIFICATES"]}
    names |= set(LAYERS["CERTIFICATE_SETUP"])
    names |= {("series", name) for name in LAYERS["ELEMENTARY_BODIES"]}
    return sorted(names | _string_lookups())


#: Names that bench/layers.py still reads but the library deleted on purpose,
#: each kept out of the lookups above until the benchmark's own files change:
#: ``steps``, the term generator of the elementary series, gave way to the
#: one-pass recurrences in ``core``; ``_per_order_growth`` and ``_window_max``,
#: the certificate's growth window, gave way to the one window loop
#: ``series._growth`` that ``lambda0_estimate`` also reads.
RETIRED = [("series", "steps"), ("wlud", "_per_order_growth"), ("wlud", "_window_max")]
PROFILED = [name for name in _profiled_names() if name not in RETIRED]


def test_lookups_cover_the_entry_points():
    for entry in [("core", "__mul__"), ("core", "__add__"), ("core", "inv"),
                  ("core", "compare"), ("expr", "eval_lc")]:
        assert entry in PROFILED


@pytest.mark.parametrize("layer, name", PROFILED, ids=[f"{l}.{n}" for l, n in PROFILED])
def test_profiled_function_is_defined(layer, name):
    if layer == "fractions":
        assert name in vars(fractions.Fraction)
    else:
        assert name in _defs(layer)


@pytest.mark.parametrize("layer, name", RETIRED, ids=[f"{l}.{n}" for l, n in RETIRED])
def test_retired_name_is_gone(layer, name):
    # a retired name that came back would be a lookup this file skips
    assert name not in _defs(layer)


def _direct_calls(fn: ast.FunctionDef) -> set:
    """Names called in fn's own frame: nested functions are not walked."""
    out = set()
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _wlud_function(name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / "wlud.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


@pytest.mark.parametrize("certificate", LAYERS["CERTIFICATES"])
def test_certificate_takes_jet_and_ladder_in_its_own_frame(certificate):
    # layers.py charges these calls to certificate setup only when the
    # certificate itself is their caller
    assert {"partial_jet", "_delta_ladder_search_nd"} <= _direct_calls(_wlud_function(certificate))


def test_ladder_runs_the_check_loop_in_its_own_frame():
    # wlud.ladder_s is the cumulative time of _delta_ladder_search_nd, so
    # the ladder runs its pair walks through the one check loop itself, not
    # through another entry point
    calls = _direct_calls(_wlud_function("_delta_ladder_search_nd"))
    assert "_run_check" in calls
    assert not calls & {"_delta_ladder_search_nd", "wlud_check_nd"}


def test_every_series_multiplication_is_charged_to_an_elementary_body():
    # series.muls_per_call counts only the __mul__ calls made from frames
    # named in ELEMENTARY_BODIES; a multiplication moved into a lambda, a
    # generator expression or a helper of another name would drop out of it
    x = levicivita.parse_lc("3/2 + 2d^(1/2) - d^(5/3) + 4d^3")
    profile = cProfile.Profile()
    profile.enable()
    for fn in (levicivita.exp, levicivita.ln, levicivita.sin, levicivita.cos):
        fn(x)
    levicivita.nth_root(x, 3)
    profile.disable()
    layer_of = LAYERS["layer_of"]
    callers = {
        caller[2]
        for key, row in pstats.Stats(profile).stats.items()
        if layer_of(key[0]) == "core" and key[2] == "__mul__"
        for caller in row[4]
        if layer_of(caller[0]) == "series"
    }
    assert callers <= set(LAYERS["ELEMENTARY_BODIES"])
