"""The package's public surface, read statically: every top-level function
and class member is called from inside the package or named as an entry
point, the benchmark trace wraps functions that exist, and numpy is the one
runtime dependency."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vqchem"


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _referenced_names(trees: dict) -> set:
    """Every name and attribute any module of the package refers to, plus
    the original name of each import that is used under an alias."""
    referenced = set()
    for tree in trees.values():
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
        referenced |= used | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname in used}
    return referenced


def test_every_function_has_a_caller_or_is_a_named_entry_point():
    """A top-level function that no module of the package refers to (as a
    name or an attribute, or through the alias it is imported under) must
    be named, as :func:`name`, in its module's docstring.  The PEP 562
    ``__getattr__`` is called by the import system and is exempt."""
    trees = _package_trees()
    referenced = _referenced_names(trees)
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in referenced and node.name != "__getattr__"
        and f":func:`{node.name}`" not in (ast.get_docstring(tree) or "")
    ]
    assert uncalled == []


def test_every_class_member_has_a_caller_or_is_a_named_entry_point():
    """A method or property of a class (dunders aside, as Python calls
    them) that no module of the package refers to by name must be named,
    as :meth:`Class.name`, in its module's docstring.  The scan goes by
    name alone, so a member that shares its name with a used one passes."""
    trees = _package_trees()
    referenced = _referenced_names(trees)
    uncalled = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
        and f":meth:`{cls.name}.{node.name}`"
        not in (ast.get_docstring(tree) or "")
    ]
    assert uncalled == []


def test_only_the_engine_constructor_reads_hard_core_boson():
    """A problem's engine is chosen once, when the problem is built: no
    code in the package reads ``.hard_core_boson`` but
    ``ansatz._engine``, so a new engine is added there and not as one
    more branch at every site that differs between engines.  (The
    ``UCCProblem`` field that stores it is a declaration, not a read.)"""
    readers = []
    for module, tree in _package_trees().items():
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "hard_core_boson"):
                scope = node
                while scope in parents and not isinstance(
                        scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = parents[scope]
                readers.append(f"{module}.{getattr(scope, 'name', '')}")
    assert readers == ["ansatz._engine"]


def test_traced_layers_name_package_functions():
    """Every function that ``bench/layertrace.py`` wraps by name exists, so
    a traced benchmark run cannot fail on a deleted or renamed function."""
    tree = ast.parse((ROOT / "bench" / "layertrace.py").read_text(
        encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["LAYERS"])
    missing = [
        f"{module}.{name}" for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"vqchem.{module}"),
                                name, None))
    ]
    assert layers and missing == []


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


def test_package_imports_numpy_and_the_standard_library_alone():
    """Every import statement in the package, those inside functions too,
    names numpy, the package itself (absolute or relative) or a
    standard-library module, so no undeclared runtime dependency can slip
    past the ``pyproject.toml`` check above."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in
                        {"numpy", "vqchem"} | sys.stdlib_module_names]
    assert foreign == []
