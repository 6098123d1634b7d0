"""Every name a package module imports is used in that module, and no
module reaches into another one's private names.

A deletion that leaves an unused import behind fails here.  Each module of
`src/gtqft` except `__init__.py` (which imports to re-export) is parsed
with `ast`; a name bound by ``import`` or ``from ... import`` counts as
used when it appears anywhere else in the module as a name.  A relative
import of an underscore name is private: the one allowed is
`algebra._once`, through which the evaluator keeps its piece and layer
caches in the algebra's ``_built``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parents[1] / "src" / "gtqft").glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def private_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and f"{node.module}.{alias.name}" != "algebra._once"
    ]


def test_the_package_has_modules():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from fractions import Fraction\nimport math, os.path as osp\nmath.lcm(1)\n"
    assert unused_imports(source) == ["Fraction", "osp"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_found():
    source = "from .tqft import Evaluator, _identity_rows\nfrom .algebra import _once\n"
    assert private_imports(source) == ["tqft._identity_rows"]
