"""Every public function, class and method that a module of the package
defines is named somewhere in the package or in the benchmark and demo
scripts, so API that only tests call cannot creep back in.

The check works by name over the AST of ``src/erasurelab/*.py`` and of the
``.py`` files of ``bench/`` and ``demos/`` that are not tests: a function
or class passes when its name appears anywhere in them as a variable, an
attribute or an imported name (its own ``def`` or ``class`` line does not
count), and a method only when its name appears as an attribute
(``obj.name``), so a local variable of the same name does not keep it. A
name that another object also uses, such as ``rank`` or a method named like
a builtin, therefore passes even when nothing calls this one.

A second check, by the same walk, keeps numpy's bit packers inside ``binmat``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "erasurelab"
MODULES = sorted(path.stem for path in PKG.glob("*.py") if not path.stem.startswith("_"))


def _names_in(path):
    """(name, line) of each variable, attribute and imported name in a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _callers():
    """The package's files and the benchmark and demo scripts, tests aside."""
    scripts = [path for folder in ("bench", "demos") for path in (ROOT / folder).glob("*.py")
               if not path.name.startswith("test_")]
    return [*PKG.glob("*.py"), *scripts]


def _names_in_callers():
    return {name for path in _callers() for name, _ in _names_in(path)}


def _attributes_in_callers():
    return {node.attr for path in _callers()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _public_defs(module):
    """(qualified name, bare name) of each public module-level function or
    class and each public method of a module-level class; a method's
    qualified name holds a dot."""
    defs = []
    for node in ast.parse((PKG / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.name) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
    return [(q, name) for q, name in defs if not name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_public_api_is_named_in_the_package(module):
    names, attributes = _names_in_callers(), _attributes_in_callers()
    assert [q for q, name in _public_defs(module)
            if name not in (attributes if "." in q else names)] == []


def test_only_binmat_packs_bits():
    """``binmat`` alone knows the packed-bit format: no other module names
    numpy's bit packers, so every conversion between bits and packed words
    goes through ``BinVector.from_bits`` and ``BinVector.unpacked``."""
    found = [f"{path.name}:{line}" for path in sorted(PKG.glob("*.py"))
             if path.name != "binmat.py"
             for name, line in _names_in(path) if name in ("packbits", "unpackbits")]
    assert found == []
