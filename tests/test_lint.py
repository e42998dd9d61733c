"""Static checks on the package source, built on the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "duxwb"


def _unused_imports(path: Path) -> list:
    """"file:line name" for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport math\nimport os.path\n"
                      "from typing import List, Optional as Opt\n\ndef f(x: Opt[int]):\n    return os.sep\n")
    assert _unused_imports(module) == ["m.py:2 math", "m.py:4 List"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unused_parameters(path: Path) -> list:
    """"file:line name" for each parameter of a function or lambda that its
    body never reads; self and cls are exempt."""
    unused = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unused += [(p.lineno, p.col_offset, p.arg) for p in params if p.arg not in read | {"self", "cls"}]
    return [f"{path.name}:{line} {name}" for line, _, name in sorted(unused)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert _unused_parameters(path) == []


def test_unused_parameter_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class A:\n    def m(self, x, y=1, *args, z, **kw):\n        return x + len(args) + kw['k']\n\n"
                      "    @classmethod\n    def c(cls, n):\n        n = 2\n        return cls\n\n"
                      "def outer(a, b):\n    def inner(c):\n        return a\n    return inner, lambda d, e: e\n")
    assert _unused_parameters(module) == ["m.py:2 y", "m.py:2 z", "m.py:6 n", "m.py:10 b", "m.py:11 c",
                                          "m.py:13 d"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set:
    """Names a node reads: variables, attributes, imported names, and string
    constants that are identifiers (the benchmark wraps functions named as
    strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _unreferenced(defining: list, referring: list) -> list:
    """"file:line name" for each top-level function or class of the defining
    modules that no module reads outside its own definition. Dunder names are
    exempt."""
    defined, read = [], set()
    for path in dict.fromkeys(defining + referring):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _names(node)
            if isinstance(node, DEFINITIONS):
                names.discard(node.name)
                if path in defining:
                    defined.append((path, node))
            read |= names
    return [f"{path.name}:{node.lineno} {node.name}" for path, node in defined
            if node.name not in read and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_top_level_definition_is_referenced():
    root = SRC.parents[1]
    referring = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))
                 if not any(part.startswith(".") for part in p.relative_to(root).parts)]
    assert _unreferenced(sorted(SRC.glob("*.py")), referring) == []


def test_unreferenced_definition_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
                      "class Node:\n    def child(self) -> 'Node':\n        return Node()\n\n"
                      "def __getattr__(name):\n    return used()\n")
    assert _unreferenced([module], [module]) == ["m.py:4 recursive", "m.py:7 Node"]
    caller = tmp_path / "c.py"
    caller.write_text("from m import Node\nPATCHES = [('m', 'recursive')]\n")
    assert _unreferenced([module], [module, caller]) == []
