"""Every public function, class and method that ``binmat``, ``raptor``,
``sim`` or ``cli`` defines is named somewhere in the package, so API that only tests call
cannot creep back in.

The check works by name over the AST of ``src/erasurelab/*.py``: a definition
passes when its name appears anywhere in the package as a variable, an
attribute or an imported name (its own ``def`` or ``class`` line does not
count). A name that another object also uses, such as ``rank`` or a method
named like a builtin, therefore passes even when nothing calls this one.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "erasurelab"


def _names_in_package():
    names = set()
    for path in PKG.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _public_defs(module):
    """(qualified name, bare name) of each public module-level function or
    class and each public method of a module-level class."""
    defs = []
    for node in ast.parse((PKG / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
    return [(q, name) for q, name in defs if not name.startswith("_")]


@pytest.mark.parametrize("module", ["binmat", "raptor", "sim", "cli"])
def test_public_api_is_named_in_the_package(module):
    names = _names_in_package()
    assert [q for q, name in _public_defs(module) if name not in names] == []
