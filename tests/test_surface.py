"""The package's public surface, read statically: every top-level function
is called from inside the package or named as an entry point, the benchmark
trace wraps functions that exist, and numpy is the one runtime
dependency."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vqchem"


def test_every_function_has_a_caller_or_is_a_named_entry_point():
    """A top-level function that no module of the package refers to (as a
    name or an attribute) must be named, as :func:`name`, in its module's
    docstring.  The PEP 562 ``__getattr__`` is called by the import system
    and is exempt."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in referenced and node.name != "__getattr__"
        and f":func:`{node.name}`" not in (ast.get_docstring(tree) or "")
    ]
    assert uncalled == []


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
