"""Module boundaries of ``src/phl``, read from the source with ``ast``."""

import ast
from pathlib import Path

import phl

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(Path(phl.__file__).resolve().parent.glob("*.py"))
}

# the hom-search engine's internals: search plans, the walk, its bucket
# lookups, map assembly from a value vector, and the cut, the parts and
# their shapes of the split fibrancy verdict
SEARCH_INTERNALS = {
    "_SearchPlan", "_walk", "_watches", "_assemble", "_split",
    "_shape", "_shaped",
}


def test_only_core_imports_the_search_internals():
    importers = {
        (module, alias.name)
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in SEARCH_INTERNALS
    }
    assert {(module, name) for module, name in importers if module != "core"} == set()


def test_the_only_function_level_import_breaks_the_cylinder_cycle():
    # simplicial imports cylinder, so cylinder.get_instance reaches the
    # simplicial instances only at call time; every other import is at
    # module level
    local = {
        (module, function.name)
        for module, tree in SOURCES.items()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert local == {("cylinder", "get_instance")}


def test_only_core_reads_the_structural_keys():
    # objects and maps compare and hash by their structure; every other
    # module keys a cache by the object itself
    readers = {
        module
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_key"
    }
    assert readers <= {"core"}


def test_the_package_binds_no_name_but_its_version():
    # callers import the modules (``from phl import core``, ``phl.cli.main``);
    # the package re-exports none of their names
    tree = SOURCES["__init__"]
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    bound |= {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert bound == {"__version__"}
