"""The cross-checks live in tests/oracles.py, outside the package, and stay independent of what they check."""

import ast
import importlib
from pathlib import Path

import pytest

import tribvp

ORACLES = Path(__file__).with_name("oracles.py")

MOVED = (
    "picard_iterate",
    "picard_solutions",
    "shooting_residual",
    "ShootingResult",
    "apply_operator_A",
    "PICARD_TOL",
    "PICARD_MAX_ITER",
    "DIVERGENCE_NORM",
    "BLOWUP_LIMIT",
    "solve_linear_oracle",
    "check_gamma_bound",
    "GammaBoundCheck",
    "GAMMA_BOUND_TOL",
    "residuals",
    "simpson_integral",
    "BoundaryStencils",
)


def test_star_import_binds_the_public_names_and_no_cross_check():
    namespace = {}
    exec("from tribvp import *", namespace)
    assert set(tribvp.__all__) <= namespace.keys()
    for module in ("tribvp", "tribvp.nonlinear", "tribvp.linear", "tribvp.grid", "tribvp.constants"):
        left = [name for name in MOVED if hasattr(importlib.import_module(module), name)]
        assert not left, (module, left)


def _module_tree():
    """The parsed oracles module, what each name it imports from tribvp comes from, and its functions."""
    tree = ast.parse(ORACLES.read_text())
    sources = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "tribvp" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tribvp":
            sources.update({alias.asname or alias.name: node.module for alias in node.names})
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return sources, functions


def _names_reached(functions, name, seen=None):
    """Every name a function of the module reads, following its calls into the module's own functions."""
    seen = set() if seen is None else seen
    seen.add(name)
    names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
    for callee in names & functions.keys() - seen:
        names |= _names_reached(functions, callee, seen)
    return names


def test_oracles_import_nothing_of_the_newton_route():
    sources, _ = _module_tree()
    assert sources
    assert all(module.startswith("tribvp.") and module != "tribvp.nonlinear" for module in sources.values()), sources


@pytest.mark.parametrize(
    "name, allowed",
    [
        ("solve_linear_oracle", {"tribvp.grid", "tribvp.problem", "tribvp.errors"}),
        ("shooting_residual", {"tribvp.grid", "tribvp.problem"}),
    ],
)
def test_linear_and_rk4_oracles_use_only_the_problem_and_the_quadrature(name, allowed):
    sources, functions = _module_tree()
    reached = _names_reached(functions, name)
    assert not reached & {"LinearPlan", "solve_linear"}
    used = {sources[n] for n in reached if n in sources}
    assert used <= allowed, used
