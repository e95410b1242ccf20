"""The package's public surface: each module's __all__ names its public
part, and `inqcheck` re-exports exactly those names, each written once."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import inqcheck
from inqcheck import checker, kernels, model, qbf, reduction, switching, syntax

ROOT = Path(__file__).resolve().parents[1]
MODULES = (syntax, model, checker, kernels, switching, qbf, reduction)


def imported_from_inqcheck(source: str) -> set[str]:
    """Names that `from inqcheck import ...` statements in source bind."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "inqcheck" and node.level == 0
        for alias in node.names
    }


def test_all_is_the_modules_lists_in_order():
    assert inqcheck.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]
    assert len(set(inqcheck.__all__)) == len(inqcheck.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from inqcheck import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(inqcheck.__all__)
    for m in MODULES:
        for name in m.__all__:
            assert namespace[name] is getattr(m, name), f"{m.__name__}.{name}"
    assert namespace["__version__"] == inqcheck.__version__


def test_all_covers_what_callers_import():
    library_use = re.search(r"## Library use\n.*?```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert library_use, "README has no Library use example"
    sources = [library_use.group(1)]
    sources += [(ROOT / "perfbench" / name).read_text(encoding="utf-8") for name in ("run.py", "workloads.py")]
    wanted = set().union(*map(imported_from_inqcheck, sources))
    assert {"active_kernel", "evaluate", "reduce_tqbf", "parse_formula"} <= wanted
    assert sorted(wanted - set(inqcheck.__all__)) == []
