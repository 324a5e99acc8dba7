"""Every public function, class and method that ``binmat``, ``raptor``,
``sim`` or ``cli`` defines is named somewhere in the package, so API that only tests call
cannot creep back in.

The check works by name over the AST of ``src/erasurelab/*.py``: a definition
passes when its name appears anywhere in the package as a variable, an
attribute or an imported name (its own ``def`` or ``class`` line does not
count). A name that another object also uses, such as ``rank`` or a method
named like a builtin, therefore passes even when nothing calls this one.

A second check, by the same walk, keeps numpy's bit packers inside ``binmat``.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "erasurelab"


def _names_in(path):
    """(name, line) of each variable, attribute and imported name in a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _names_in_package():
    return {name for path in PKG.glob("*.py") for name, _ in _names_in(path)}


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


def test_only_binmat_packs_bits():
    """``binmat`` alone knows the packed-bit format: no other module names
    numpy's bit packers, so every conversion between bits and packed words
    goes through ``BinVector.from_bits`` and ``BinVector.unpacked``."""
    found = [f"{path.name}:{line}" for path in sorted(PKG.glob("*.py"))
             if path.name != "binmat.py"
             for name, line in _names_in(path) if name in ("packbits", "unpackbits")]
    assert found == []
