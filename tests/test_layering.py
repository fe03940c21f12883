"""Module layering: each polyfw module imports only from the layers below it."""

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
