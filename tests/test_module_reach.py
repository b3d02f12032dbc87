"""Every module under ``src/repro`` is on some path that runs.

A static ``ast`` import graph, nothing executed.  Roots are the CLI
(``repro.__main__``) and every ``repro…`` name the benchmarks import
(``benchmarks/e2e/surface.py``, ``benchmarks/common.py``, the
paper-figure ``benchmarks/bench_*.py``).  A name imported from a
package is resolved, through the ``__init__`` re-export chain, to the
module that defines it; beyond that an ``__init__`` is not followed —
being re-exported does not make a module reached, which is how three
modules once stayed alive on nothing but ``core/__init__.py``, their
own tests and one example.  A package counts as reached when one of
its modules is.
"""

import ast
from functools import cache
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_FILES = [
    REPO / "benchmarks" / "e2e" / "surface.py",
    REPO / "benchmarks" / "common.py",
    *sorted((REPO / "benchmarks").glob("bench_*.py")),
]


def _modules() -> dict:
    """``{dotted name: path}`` for every module file under src/repro."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


@cache
def _imports(path: Path) -> list:
    """Every ``(module, name or None)`` the file imports, at any depth
    (function-level lazy imports count: they run when the path does)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _resolve(module: str, name) -> str:
    """The repro module an import lands in (None for anything else)."""
    if module not in MODULES:
        return None
    if name is None or not _is_package(module):
        return module
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    for source, imported in _imports(MODULES[module]):
        if imported == name:
            return _resolve(source, name)
    return module  # defined in the __init__ itself


def _targets(path: Path) -> set:
    return {
        target for module, name in _imports(path)
        if (target := _resolve(module, name)) is not None
    }


def _reached() -> set:
    frontier = {"repro.__main__"}.union(*map(_targets, ROOT_FILES))
    reached = set()
    while frontier:
        module = frontier.pop()
        reached.add(module)
        if not _is_package(module):
            frontier |= _targets(MODULES[module]) - reached
    for module in list(reached):
        while "." in module:
            module = module.rpartition(".")[0]
            reached.add(module)
    return reached


def test_every_module_is_reached():
    assert len(ROOT_FILES) > 2, "the bench_*.py roots were not found"
    assert all(path.exists() for path in ROOT_FILES)
    assert sorted(set(MODULES) - _reached()) == []
