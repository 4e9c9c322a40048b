"""Static checks on the library's sources, and on the library names that
the benchmark's tracer binds."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted(p for p in (SRC / "sylres").glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(_imported(tree)) - read) == []


def _tracing():
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_definition_is_read():
    # a module-level function or class, or a method, that no library code
    # reads is dead unless it is public (`__all__`) or the benchmark's
    # tracer wraps it; dunder methods are read by the interpreter
    read, defined = set(), []
    for path in (Path(__file__).parent.parent / "src" / "sylres").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
    held = set(importlib.import_module("sylres").__all__)
    held |= {part for _, name in _tracing().TRACED
             for part in name.split(".")}
    unread = [(module, qualname) for module, qualname, name in defined
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read and name not in held]
    assert sorted(unread) == []


def test_benchmark_tracer_names_resolve():
    # `perfbench/run.py --trace 1` wraps these by name; a library change
    # that removes one would crash the benchmark's per-layer mode
    tracing = _tracing()
    for mod, name in tracing.TRACED:
        obj = importlib.import_module(f"sylres.{mod}")
        for attr in name.split("."):
            assert hasattr(obj, attr), f"sylres.{mod}.{name}"
            obj = getattr(obj, attr)
        assert callable(obj), f"sylres.{mod}.{name}"
    owners = {name: mod for mod, name in tracing.TRACED}
    for name in tracing.CACHED:
        obj = getattr(importlib.import_module(f"sylres.{owners[name]}"), name)
        assert hasattr(obj, "cache_info"), name
    assert callable(importlib.import_module("sylres.sylvester").sylm_terms)


def test_cli_import_loads_no_introspection_modules():
    # `dataclasses` imports these for its code generation; together they
    # were about half the time of `import sylres.cli`, which every command
    # line call pays
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def loaded(code):
        out = subprocess.run(
            [sys.executable, "-c", code + "; print(*sorted(sys.modules))"],
            capture_output=True, text=True, check=True, env=env, timeout=60)
        return set(out.stdout.split())

    added = loaded("import sys, sylres.cli") - loaded("import sys")
    assert "sylres.cli" in added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert sorted(added & banned) == []
