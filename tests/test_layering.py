"""Modules of the package reach each other only through public names.

An underscore name is private to its module. A sibling that imports one
holds a second, hidden definition site: the rule it names can no longer
change in one place. Within the command line module, artifacts are written
and the config is loaded in one place each. The package itself names each
public name once, in a table from home module to names.
"""

import ast
import importlib
import linecache
from pathlib import Path

import pytest

import fracsync
from fracsync import cli, kernels

PACKAGE = Path(fracsync.__file__).resolve().parent
STEP_LOOP = "<fracsync step loop, d=3>"


def _sources():
    """{name: source} of every package module, and of the step loop `kernels` writes out for d = 3.

    The loop's template is a string in kernels.py, so a scan of the module
    files alone does not see the code it compiles to.
    """
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    kernels._step_loop(3)
    sources[STEP_LOOP] = "".join(linecache.getlines(STEP_LOOP))
    assert "def step_loop(" in sources[STEP_LOOP]
    return sources


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


def test_the_cli_keeps_no_step_cap():
    # How many steps a horizon may take is `SolverConfig.for_horizon`'s rule alone.
    compared = [node.lineno for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                if isinstance(node, ast.Compare)
                and any(isinstance(n, ast.Attribute) and n.attr == "n_steps" for n in ast.walk(node))]
    assert compared == []


def test_the_cli_writes_the_blowup_entry_in_one_place_and_no_backend():
    # A run report's "blowup" entry is built by `_run_report` alone, whatever
    # the subcommand, and no report carries a constant "backend" entry.
    source = (PACKAGE / "cli.py").read_text()
    writers = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Dict):
                keys = node.keys
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                keys = [node.slice]
            else:
                continue
            if any(isinstance(k, ast.Constant) and k.value == "blowup" for k in keys):
                writers.append(getattr(top, "name", "<module>"))
    assert writers == ["_run_report"]
    assert "backend" not in source


def test_per_component_numbers_broadcast_by_one_rule():
    # Orders and error rates broadcast in `systems.broadcast_numbers` alone:
    # neither the command line nor the controllers spread a number over the
    # components themselves, and the config loader takes every flag alike,
    # with no branch on the key of one.
    found = []
    for name in ("cli.py", "control.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in {"broadcast_to", "full"}:
                found.append((name, node.lineno, node.func.attr))
    load = next(node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_load_config")
    found += [("cli.py", node.lineno, node.value) for node in ast.walk(load)
              if isinstance(node, ast.Constant) and node.value in cli._FLAGS]
    assert found == []


def test_the_number_rule_reads_the_dtype_kind_in_one_place():
    # `systems.number_array` is the one rule for numbers: every other module,
    # the driver's first rhs value and the written-out step loop included,
    # calls it rather than testing an array's `dtype.kind` itself.
    found = []
    for label, source in _sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == "kind" \
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                found.append((label, node.lineno))
    assert [label for label, _ in found] == ["systems.py"], found


# Routines that hand a sum to BLAS, whose kernel the CPU selects at run time.
BLAS_SUMS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "vecdot"}


def test_no_sum_goes_through_blas():
    # Results must not depend on the machine's BLAS kernel, so no module may
    # use `@` or a BLAS-backed product. The one LAPACK call is `eigen3`'s
    # spectrum, which the argument criterion needs; `eigen3` also names the
    # error numpy raises when that call does not converge.
    found, linalg = [], []
    for label, source in _sources().items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.append((label, node.lineno, "@"))
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in BLAS_SUMS:
                    found.append((label, node.lineno, name))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                        and node.value.attr == "linalg":
                    linalg.append((label, getattr(top, "name", "<module>"), node.attr))
    assert found == []
    assert sorted(linalg) == [("control.py", "eigen3", "LinAlgError"),
                              ("control.py", "eigen3", "eigvals")]


# The package's public names before they became one table, less the
# array-field wrappers `financial_rhs` and `volta_rhs`, with the eight
# refusal classes folded into `InvalidInput`.
PUBLIC = (
    "ConfigError", "Controller", "ConvergenceProblem", "ConvergenceReport", "ExactCancellation",
    "FINANCIAL_CHAOS_ONSET_REFERENCE", "FinancialParams", "FracsyncError", "FractionalOrders",
    "InvalidInput", "LiteralFeedback", "NonFiniteState", "SolverConfig", "StabilityReport",
    "SyncSummary", "SystemDef", "Trajectory", "VoltaParams", "chaos_threshold",
    "closed_loop_error_matrix", "control_exact", "control_literal", "convergence_order",
    "coupled_system", "divergence_factor", "eigen3", "empirical_orders", "financial_equilibria",
    "financial_jacobian", "financial_system", "gain_matrix_default", "integrate",
    "matignon_check", "mittag_leffler", "predicted_error", "sync_time", "volta_jacobian",
    "volta_system", "weights_a", "weights_b", "zero_system",
)


def test_each_public_name_is_its_home_modules_object():
    assert fracsync.__all__ == list(PUBLIC)
    for home, names in fracsync._PUBLIC.items():
        module = importlib.import_module(f"fracsync.{home}")
        assert getattr(fracsync, home) is module
        for name in names:
            assert getattr(fracsync, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["financial_rhs", "volta_rhs"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(fracsync, name)
    assert not hasattr(fracsync, name)


def test_dir_and_star_import_cover_every_public_name():
    assert set(fracsync.__all__) <= set(dir(fracsync))
    namespace = {}
    exec("from fracsync import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fracsync.__all__)
    for name in fracsync.__all__:
        assert namespace[name] is getattr(fracsync, name)


def _raises(source):
    """(line, raised name) for each `raise` in `source`; the name is None for anything but a name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, exc.id if isinstance(exc, ast.Name) else None))
    return found


def test_every_raise_names_a_package_error():
    # One refusal type: a raise names a FracsyncError subclass that its module
    # imports from `errors`, never a bare ValueError or a helper's return value.
    # The generated step loop runs in the globals of kernels.py, so it sees
    # that module's imports.
    errors = importlib.import_module("fracsync.errors")
    sources = _sources()
    count, bad = 0, []
    for label, source in sources.items():
        tree = ast.parse(sources["kernels.py" if label == STEP_LOOP else label])
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.level == 1 and node.module == "errors" for a in node.names}
        for line, name in _raises(source):
            count += 1
            cls = getattr(errors, name, None) if name in imported else None
            if not (isinstance(cls, type) and issubclass(cls, errors.FracsyncError)):
                bad.append((label, line, name))
    assert count > 40
    assert len(_raises(sources[STEP_LOOP])) == 2
    assert bad == []


def test_the_cli_catches_only_the_package_refusal_and_io_errors():
    # cli._read translates InvalidInput alone: a bare TypeError or ValueError from a
    # builder is a fault and must propagate, not turn into a config error.
    caught = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}
    assert caught == {"InvalidInput", "UnicodeDecodeError", "JSONDecodeError",
                      "RecursionError", "OSError", "ConfigError"}


def test_each_cli_read_names_its_package_rule():
    # _read(key, build, *args) calls build(*args), so no lambda adapts a rule's
    # arguments between a config key and the package code that reads it.
    reads = [node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read"]
    assert len(reads) > 10
    assert [ast.unparse(n) for n in reads if any(isinstance(a, ast.Lambda) for a in n.args)] == []


def _functions_with(predicate):
    """(module, top-level function or "<module>") of each package node that `predicate` accepts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            key = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            found += [(path.name, key) for node in ast.walk(top) if predicate(node)]
    return found


def test_a_blowup_is_caught_in_one_runner():
    # `experiments.run_simulation` is the one runner: every other caller of
    # `integrate` either goes through it or lets NonFiniteState propagate.
    def catches(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(getattr(t, "id", getattr(t, "attr", None)) == "NonFiniteState" for t in types)

    assert _functions_with(catches) == [("experiments.py", "run_simulation")]


def test_the_cli_times_each_run_in_one_place():
    def reads_the_clock(node):
        return isinstance(node, ast.Attribute) and node.attr == "perf_counter"

    assert [key for name, key in _functions_with(reads_the_clock) if name == "cli.py"] == \
        ["_timed", "_timed"]
