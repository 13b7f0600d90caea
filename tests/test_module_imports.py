"""Import rules between sfcalc modules: each module imports the public names
of the others, at module level, so the import graph is what the top of
each file says it is."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sfcalc").glob("*.py"))


def import_faults(source):
    """The lines of ``source`` that import a private name from a sibling
    module, or import anything inside a function body."""
    faults = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            faults |= {f"line {node.lineno}: private name {alias.name}"
                       for alias in node.names
                       if alias.name.startswith("_") and not alias.name.startswith("__")}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            faults |= {f"line {inner.lineno}: import inside a function"
                       for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return sorted(faults)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_modules_import_public_names_at_module_level(source):
    assert import_faults(source.read_text()) == []


def test_the_rule_sees_private_and_function_local_imports():
    source = ("from .geometry import _dirac_path, standard_metric_paths\n"
              "from . import __version__\n"
              "def check():\n"
              "    def inner():\n"
              "        from .engines import sf_crossing\n")
    assert import_faults(source) == ["line 1: private name _dirac_path",
                                     "line 5: import inside a function"]
