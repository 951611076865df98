"""Modules of the package reach each other only through public names.

An underscore name is private to its module. A sibling that imports one
holds a second, hidden definition site: the rule it names can no longer
change in one place. Within the command line module, artifacts are written
and the config is loaded in one place each.
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


def _names_by_function(path):
    """{top-level function name, or "<module>": names it refers to} for `path`."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        key = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        found[key] = found.get(key, set()) | names
    return found


def test_cli_writes_artifacts_and_loads_config_in_one_place():
    names = _names_by_function(PACKAGE / "cli.py")
    writers = {"_write_csv", "_write_report"}
    assert {key for key, used in names.items() if used & writers} == {"_write"}
    assert {key for key, used in names.items() if "_load_config" in used} == {"main"}
    handlers = [key for key in names if key.startswith("_cmd_")]
    assert len(handlers) == 4
    for key in handlers:
        assert names[key] & (writers | {"_write", "_load_config"}) == set(), key
