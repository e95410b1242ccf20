"""Guard against recursion creeping back into the package.

Every module under src/inqcheck is parsed with ast into a call graph whose
nodes are functions (nested functions and methods included) and whose edges
are calls by plain name or by `self.<name>` to a method of the same class.
(A call to an inherited method cannot close a cycle without dynamic
dispatch back into the subclass, which a static graph cannot see anyway.)
A function on a cycle of that graph can run out of Python frames on deep
input; only the allowlisted ones may, because they recurse on something
other than the formula tree or are kept as plain recursion on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import inqcheck

PACKAGE = Path(inqcheck.__file__).parent

ALLOWED = {
    "checker._eval_naive.go",  # the trusted reference engine, and sparse with a memo
    "qbf.random_qbf.gen",  # seeded output the benchmark inputs depend on
}


def _collect(module: str, tree: ast.Module):
    """Functions of one module as {qualified name: (def node, scope, class)},
    plus its `from .x import name` bindings."""
    functions = {}
    imports = {}

    def visit(node, prefix, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                functions[name] = (child, scope, cls)
                visit(child, name, {**scope, **_local_defs(child, name)}, None)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
                visit(child, name, scope, name)
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                for alias in child.names:
                    imports[alias.asname or alias.name] = f"{child.module}.{alias.name}"

    visit(tree, module, _local_defs(tree, module), None)
    return functions, imports


def _local_defs(node, prefix: str) -> dict[str, str]:
    """Names that functions and classes defined directly in node bind."""
    return {
        child.name: f"{prefix}.{child.name}"
        for child in ast.iter_child_nodes(node)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """The call graph of modules given as {module name: source text}."""
    functions = {}
    imports = {}
    for module, source in sources.items():
        module_functions, imports[module] = _collect(module, ast.parse(source))
        functions.update(module_functions)

    graph: dict[str, set[str]] = {}
    for name, (node, scope, cls) in functions.items():
        module = name.split(".")[0]
        callees = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            target = None
            if isinstance(call.func, ast.Name):
                ident = call.func.id
                target = scope.get(ident) or imports[module].get(ident)
            elif (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and cls is not None
            ):
                target = f"{cls}.{call.func.attr}"
            if target in functions:
                callees.add(target)
        graph[name] = callees
    return graph


def on_a_cycle(graph: dict[str, set[str]]) -> set[str]:
    """Functions that can reach themselves through one or more calls."""
    cyclic = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            node = stack.pop()
            if node == start:
                cyclic.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(graph.get(node, ()))
    return cyclic


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


SAMPLE = {
    "a": """
from .b import helper

class Base:
    def peek(self):
        return 0

class Parser(Base):
    def expr(self):
        self.peek()
        return self.atom()

    def atom(self):
        return self.expr()

def outer():
    def inner(n):
        return inner(n - 1)
    return inner(3)

def loop():
    return helper()
""",
    "b": """
from .a import loop

def helper():
    return loop()

def leaf():
    return len([])
""",
}


def test_guard_finds_every_kind_of_cycle():
    # a nested function calling itself, methods calling each other through
    # self, and plain calls across modules; builtins are not nodes
    graph = call_graph(SAMPLE)
    assert on_a_cycle(graph) == {"a.outer.inner", "a.Parser.expr", "a.Parser.atom", "a.loop", "b.helper"}
    assert graph["a.Parser.expr"] == {"a.Parser.atom"}
    assert graph["b.leaf"] == set()


def test_only_allowlisted_functions_recurse():
    assert on_a_cycle(call_graph(package_sources())) == ALLOWED
