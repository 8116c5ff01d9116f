"""Module boundaries of ``src/phl``, read from the source with ``ast``."""

import ast
import re
from pathlib import Path

import phl

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(Path(phl.__file__).resolve().parent.glob("*.py"))
}


def test_no_module_imports_another_modules_private_name():
    # a name that starts with an underscore belongs to its module: the
    # hom-search engine's plans, walk and split stay inside core, and a
    # helper that another module needs is public
    importers = {
        (module, node.module, alias.name)
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert importers == set()


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


def _caches(tree):
    """(function name, nested) for each function that ``cache`` or
    ``lru_cache`` wraps, as a decorator or a call; ``nested`` says whether
    the cache is made inside a function body, so that it dies with the
    call."""
    def names_a_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in {"cache", "lru_cache"}

    found = []

    def visit(node, nested):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend((node.name, nested) for d in node.decorator_list if names_a_cache(d))
            for child in node.body:
                visit(child, True)
            return
        if isinstance(node, ast.Call) and names_a_cache(node.func):
            found.append((ast.unparse(node.args[0]) if node.args else None, nested))
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(tree, False)
    return found


def test_the_only_process_wide_cache_is_the_parser():
    # a cache on a module-level function or a method lives as long as the
    # process and keeps everything it was asked about: a dict of search
    # plans keyed by ``id(plan)`` failed two tests, and a process-wide memo
    # of ``simplicial.delta`` raised the benchmark's peak memory by 14%.
    # Every other cache is made inside the call that fills it.
    caches = [(module, name, nested) for module, tree in SOURCES.items()
              for name, nested in _caches(tree)]
    assert {(module, name) for module, name, nested in caches if not nested} == {
        ("cli", "build_parser")
    }
    assert any(nested for *_, nested in caches)


def test_every_parameter_of_a_module_level_function_is_read():
    # a parameter that the body never reads takes a value and ignores it.
    # Two are kept: ``cmd_verify`` takes the handler's ``args`` like every
    # other subcommand, and ``bench/workloads.py`` passes ``guard`` to
    # ``check_monad_laws``
    unread = set()
    for module, tree in SOURCES.items():
        for function in tree.body:
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = function.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg]
            read = {node.id for node in ast.walk(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread |= {(module, function.name, p.arg) for p in params if p.arg not in read}
    assert unread == {("cli", "cmd_verify", "args"), ("monads", "check_monad_laws", "guard")}


def _reached(roots):
    """The ``(module, name)`` pairs bound at module level in ``src/phl``,
    and those that ``roots`` reach through names, sibling imports and
    ``module.attr`` reads.  A def or class is reached whole, so a reached
    class reaches its method bodies.  Imports are read at every level, so
    the function-level one in ``cylinder.get_instance`` counts."""
    bound, imported = {}, {}
    for module, tree in SOURCES.items():
        for node in tree.body:
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in ast.walk(node) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            for name in names:
                bound.setdefault((module, name), []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # ``from . import core`` binds a module, with no name in it
                    imported[module, alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module else (alias.name, None))

    def resolve(module, name):
        while (module, name) in imported:
            module, name = imported[module, name]
        return module, name

    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in bound and key not in reached:
            reached.add(key)
            for node in (node for statement in bound[key] for node in ast.walk(statement)):
                if isinstance(node, ast.Name):
                    stack.append(resolve(key[0], node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    module, name = resolve(key[0], node.value.id)
                    if name is None:
                        stack.append((module, node.attr))
    return set(bound), reached


# Module-level names kept for a reader outside phl, each with its reader.
# They are roots of the walk too: what they use stays with them.
KEPT_FOR_OTHER_READERS = {
    ("__init__", "__version__"),  # the package's version
    ("lifting", "has_rlp"),  # the tests' reference for ``fibrant``; bench/spans.py traces it
    ("equivalence", "alternative_we_check"),  # bench/workloads.py calls it in ``algebra``
    ("fixtures", "all_small_graphs"),  # bench/workloads.py builds workload inputs with it
    ("fixtures", "we_algebras"),  # and with this one
}


def test_every_module_level_name_is_reached_from_a_command():
    # a name that no command reaches is code that only the tests run, and
    # it belongs in the tests.  The roots are ``cli.main`` and the
    # ``cmd_*`` handlers, which ``run_command`` finds by name in
    # ``globals()``; a kept name must exist and no command may reach it
    bound, _ = _reached(())
    assert KEPT_FOR_OTHER_READERS <= bound
    commands = {(m, n) for m, n in bound if m == "cli" and (n == "main" or n.startswith("cmd_"))}
    assert _reached(commands)[1] & KEPT_FOR_OTHER_READERS == set()
    assert bound - _reached(commands | KEPT_FOR_OTHER_READERS)[1] == set()


READ_ATTRIBUTES = {node.attr for tree in SOURCES.values() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)}


def test_every_method_is_read_somewhere_in_phl():
    # a method that no module of phl reads as an attribute is called only
    # from the tests, or not at all
    read = READ_ATTRIBUTES
    unread = {
        (module, cls.name, method.name)
        for module, tree in SOURCES.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in read
    }
    assert unread == set()


FIELDS_FOR_OTHER_READERS = {
    # the benchmark's checks and counters read these (bench/workloads.py,
    # bench/spans.py); no command does
    ("equivalence", "AltWeReport", "found"),
    ("monads", "LawReport", "assoc_checked"),
    ("monads", "LawReport", "skipped_count"),
    ("monads", "LawReport", "failures"),
}


def test_every_dataclass_field_is_read_somewhere_in_phl():
    # an annotated field that no module of phl reads as an attribute is
    # read only by the tests, or only by the dataclass's equality and repr
    unread = {
        (module, cls.name, field.target.id)
        for module, tree in SOURCES.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in READ_ATTRIBUTES
    }
    assert unread == FIELDS_FOR_OTHER_READERS


def test_the_readme_names_every_shared_test_helper():
    # README's ``## Tests`` section lists what ``tests/conftest.py``
    # offers the test modules; it names other things too, so only this
    # direction is checked
    tests = Path(__file__).resolve().parent
    readme = (tests.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tests", 1)[1].split("\n## ", 1)[0]
    conftest = ast.parse((tests / "conftest.py").read_text(encoding="utf-8"))
    helpers = {node.name for node in conftest.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert helpers - set(re.findall(r"`(\w+)`", section)) == set()
