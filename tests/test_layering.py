"""Module layering: each polyfw module imports only from the layers below it, and scipy
only inside the functions that use it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polyfw"
# core is the bottom layer; oracles and objectives are siblings, so neither imports the other
LAYER = {"core": 0, "oracles": 1, "objectives": 1, "solvers": 2, "geometry": 3, "bench": 4,
         "cli": 5}


def _polyfw_imports(path):
    """The polyfw modules that ``path`` imports, at module level or inside a function."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polyfw":
            yield from node.module.split(".")[1:2] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("polyfw."))


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_module_imports_only_from_lower_layers(module):
    names = set(_polyfw_imports(SRC / f"{module}.py"))
    above = sorted(name for name in names if LAYER[name] >= LAYER[module])
    assert not above, f"polyfw.{module} (layer {LAYER[module]}) imports {above}"


# Perfbench's tracer patches geometry.linprog; no polyfw code calls it or solves an LP, and
# the face lattice is numpy's, so this hook is polyfw's only scipy import.
SCIPY_ALLOWED = {("geometry", "linprog", "scipy.optimize.linprog")}


def _scipy_imports(path):
    """(enclosing function or None, imported name) for each scipy import in ``path``."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            yield from ((owner, name) for name in names if name.split(".")[0] == "scipy")
            yield from visit(child, owner)

    return list(visit(ast.parse(path.read_text()), None))


def test_no_module_imports_scipy_at_module_level():
    """scipy loads on first use, inside the function that needs it, never on import."""
    top = sorted(f"{p.stem}: {name}" for p in SRC.glob("*.py")
                 for owner, name in _scipy_imports(p) if owner is None)
    assert not top, f"module-level scipy imports: {top}"


def test_scipy_is_imported_only_by_the_linprog_hook():
    """No scipy.spatial (or any other scipy) import outside ``geometry.linprog``."""
    found = {(p.stem, owner, name) for p in SRC.glob("*.py") for owner, name in _scipy_imports(p)}
    assert found <= SCIPY_ALLOWED, sorted(found - SCIPY_ALLOWED)


# The quadratic structure (Q, b, Qx, atom images, Wolfe's corral) stays behind the state's
# methods in ``objectives``: ``solvers`` runs on ``Objective`` and ``ObjectiveState`` alone.
SOLVERS_OBJECTIVES_IMPORTS = {"Objective", "ObjectiveState"}
SOLVERS_HIDDEN_NAMES = {"QuadraticState", "IdentityState", "Corral"}
SOLVERS_HIDDEN_ATTRIBUTES = {"images", "corral", "Qx", "b", "obj"}


def test_solvers_leave_the_quadratic_state_to_objectives():
    tree = ast.parse((SRC / "solvers.py").read_text())
    nodes = list(ast.walk(tree))
    imported = {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                and node.module == "polyfw.objectives" for alias in node.names}
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {alias.asname or alias.name for node in nodes
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert imported == SOLVERS_OBJECTIVES_IMPORTS
    assert not names & SOLVERS_HIDDEN_NAMES, sorted(names & SOLVERS_HIDDEN_NAMES)
    read = attributes & SOLVERS_HIDDEN_ATTRIBUTES
    assert not read, sorted(read)
