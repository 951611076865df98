"""Modules of the package reach each other only through public names.

An underscore name is private to its module. A sibling that imports one
holds a second, hidden definition site: the rule it names can no longer
change in one place.
"""

import ast
from pathlib import Path

import fracsync

PACKAGE = Path(fracsync.__file__).resolve().parent


def _private_imports(path):
    """(line, module, name) for each underscore name `path` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fracsync")):
            found += [(node.lineno, node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: _private_imports(path) for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
