"""Every public module-level function and class of the package, every
public method and property of its classes, and every public field of its
dataclasses is read by the package itself or by the benchmark harness: one
that only tests read is code the system does not run.  So is every private
module-level function and class and every private method: a private copy
that only tests call is not the code the system runs.

The check is syntactic.  It collects every name, attribute and import alias
in the source of `adaptsmooth` and of `bench/`, test files excluded, and
asks that each definition of `adaptsmooth` appear among them; a method or
property counts as read when its name does.  Dunder methods are called by
Python itself and are not checked.  A dataclass field counts as read when
its name is loaded as a name or an attribute, or passed as a keyword
argument; being assigned is not being read.  Every parameter of every
function, method and lambda of `adaptsmooth`, ``self`` and ``cls`` aside,
is loaded as a name in its body: a parameter that nothing reads is a
calling mode that nothing honours.
"""

import ast
from pathlib import Path

import adaptsmooth

PACKAGE = Path(adaptsmooth.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

# public definitions that only tests read, each with the reason it stays
TEST_REFERENCES = {
    # the oracle weight vector that shows the phantom is linearly separable
    ("phantom", "separability_weights"),
}


def _defined(nodes):
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _definitions():
    """(module, name) of each module-level function and class and of each
    method and property of a module-level class, named ``Class.method``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _defined(ast.parse(path.read_text()).body):
            yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in _defined(node.body):
                    yield path.stem, f"{node.name}.{item.name}"


def _public_definitions():
    """Definitions whose every part is public: a public class's public methods."""
    return [(module, name) for module, name in _definitions()
            if not any(part.startswith("_") for part in name.split("."))]


def _private_definitions():
    """Private module-level functions and classes and private methods,
    dunder methods excluded."""
    return [(module, name) for module, name in _definitions()
            if name.split(".")[-1].startswith("_") and not name.endswith("__")]


def _dataclass_fields():
    """(module, ``Class.field``) of each public field of a dataclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d, "func", d).id == "dataclass" for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                        yield path.stem, f"{node.name}.{item.target.id}"


def _source_nodes():
    """Every syntax node of the package and of bench/, test files excluded."""
    assert BENCH.is_dir(), "run from a checkout, which holds bench/"
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            yield from ast.walk(ast.parse(path.read_text()))


def _names_read():
    names = set()
    for node in _source_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _names_loaded():
    names = set()
    for node in _source_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_every_public_definition_is_read():
    read = _names_read()
    unread = [f"{module}.{name}" for module, name in _public_definitions()
              if name.split(".")[-1] not in read and (module, name) not in TEST_REFERENCES]
    assert unread == []


def test_every_private_definition_is_read():
    read = _names_read()
    private = _private_definitions()
    assert ("trainer", "_forward_batch") in private
    unread = [f"{module}.{name}" for module, name in private
              if name.split(".")[-1] not in read]
    assert unread == []


def test_every_dataclass_field_is_read():
    loaded = _names_loaded()
    unread = [f"{module}.{name}" for module, name in _dataclass_fields()
              if name.split(".")[-1] not in loaded]
    assert unread == []


def test_test_references_are_still_unread_definitions():
    # an entry whose definition is gone, or that the package now reads,
    # leaves the list
    assert TEST_REFERENCES <= set(_public_definitions())
    read = _names_read()
    assert [name for _, name in TEST_REFERENCES if name.split(".")[-1] in read] == []


def _unread_parameters(tree):
    """``function.parameter`` of each parameter of a function or lambda in
    `tree` that its body never loads; ``self`` and ``cls`` are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from (f"{name}.{p}" for p in params
                    if p not in ("self", "cls") and p not in loaded)


def test_every_parameter_is_read():
    # the scan finds what it looks for: stored is not loaded, and a lambda
    # is a function of its own
    tree = ast.parse("def f(self, a, b, *c, d=0, **e):\n    b = a + d\n"
                     "    return lambda x, y: (x, c)\n")
    assert list(_unread_parameters(tree)) == ["f.b", "f.e", "<lambda>.y"]
    unread = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []
