"""Every name a package module imports is used in that module, and no
module reaches into another one's private names.

A deletion that leaves an unused import behind fails here.  Each module of
`src/gtqft` except `__init__.py` (which imports to re-export) is parsed
with `ast`; a name bound by ``import`` or ``from ... import`` counts as
used when it appears anywhere else in the module as a name.  A relative
import of an underscore name is private: the one allowed is
`algebra._once`, through which the evaluator keeps its piece and layer
caches in the algebra's ``_built``.  No module but `algebra.py` names the
attribute ``_built`` at all, so every table derived from an algebra is
built by its one owner, through `_once`.
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


def built_attributes(source: str) -> list[int]:
    """The lines of `source` that name the attribute ``_built``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_built"
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_only_the_algebra_names_its_built_tables(path):
    assert built_attributes(path.read_text()) == []


def test_a_built_attribute_is_found():
    source = "image = table_image(a)\na._built['product'] = image\nb = a.built\n"
    assert built_attributes(source) == [2]
