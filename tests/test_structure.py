"""The layout of the tests: the oracles share no code with the package they
check, no test module imports another (shared code is in ``oracles.py``
and ``cases.py``), and ``cases.py`` holds only what two modules share."""

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
