"""The layout of the tests: the oracles share no code with the package they
check, no test module imports another (shared code is in ``oracles.py``
and ``cases.py``), ``cases.py`` holds only what two modules share, and only
the row-view tests read the row types that the benchmark reads."""

import ast
import pathlib

from poisson_matching import assignment, geometry

TESTS = pathlib.Path(__file__).parent


def _imported(path):
    """The top-level packages and modules ``path`` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or ".").partition(".")[0]


def _read(tree):
    """The names ``tree`` reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_test_module_imports_another():
    assert [(path.name, name) for path in sorted(TESTS.glob("test_*.py"))
            for name in _imported(path) if name.startswith("test_")] == []


def test_oracles_import_nothing_from_the_package():
    # nor from cases.py, which does
    assert not {"poisson_matching", "cases"} & set(_imported(TESTS / "oracles.py"))


def test_oracle_tolerances_are_the_packages():
    import oracles  # here, so a missing oracles.py fails this test, not the module
    assert (oracles.EPS_TIE, oracles.EPS_GEOM) == (assignment.EPS_TIE, geometry.EPS_GEOM)


def test_every_shared_case_has_two_users():
    # each helper of cases.py is used by two test modules or more, itself or
    # through a helper of cases.py that calls it; one module's helper lives
    # in that module
    helpers = {node.name: node for node in ast.parse((TESTS / "cases.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    read = {path.name: _read(ast.parse(path.read_text())) for path in TESTS.glob("test_*.py")}
    users = {name: {module for module, names in read.items() if name in names}
             for name in helpers}
    for _ in helpers:  # each pass carries the users one call deeper
        for name, node in helpers.items():
            for callee in _read(node) & set(helpers) - {name}:
                users[callee] |= users[name]
    assert {name: sorted(found) for name, found in users.items() if len(found) < 2} == {}


# per module, the tests of the row views (``StageState.records`` and
# iterating an ``ArcTable``), which the benchmark reads: a class, a function
# or an assignment of that name
ROW_VIEW_TESTS = {"test_hierarchy.py": {"TestBlockRecordsView"}, "test_walks.py": {"TestArcTable"},
                  "test_geometry.py": {"ROWS", "test_rows_are_frozen_values"}}


def _outside(node, skip):
    """The nodes below ``node``, less the classes, functions and assignments
    named in ``skip`` and everything below them."""
    for child in ast.iter_child_nodes(node):
        names = {getattr(child, "name", None)} | {
            target.id for target in getattr(child, "targets", ()) if isinstance(target, ast.Name)}
        if not names & skip:
            yield child
            yield from _outside(child, skip)


def test_only_the_row_view_tests_read_rows():
    # every other test reads the level and arc tables' columns
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in _outside(ast.parse(path.read_text()), ROW_VIEW_TESTS.get(path.name, set())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in {"ArcSpec", "BlockRecord"} or name == "records" and isinstance(
                    node, ast.Attribute):
                found.append((path.name, node.lineno, name))
    assert found == []
