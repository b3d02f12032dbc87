"""Every module under ``src/repro``, and every name a ``repro`` package
exports, is on some path that runs.

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

Names are held to the same rule, with ``examples/*.py`` as roots too:
a name in a package's ``__all__`` is reached when a root or a reached
module imports it (or reads it as an attribute of an imported module),
or when the reached module that defines it uses it.  The few names
only tests need are listed in :data:`TEST_ONLY` with the reason.
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
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Exported names no program path reaches, each with what keeps it.
TEST_ONLY = {
    "build_qctree_reference": "the differential oracle construction "
                              "is checked against",
    "active_segments": "the /dev/shm leak check the shard tests assert",
}


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


def _reached(roots=tuple(ROOT_FILES)) -> set:
    frontier = {"repro.__main__"}.union(*map(_targets, roots))
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


def _exported() -> list:
    """``(package, name)`` for every name in a package's ``__all__``."""
    out = []
    for module, path in MODULES.items():
        if not _is_package(module):
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["__all__"]):
                out += [(module, name)
                        for name in ast.literal_eval(node.value)]
    return out


@cache
def _names_used(path: Path) -> set:
    """``(defining module, name)`` for every repro name the file imports
    or reads as an attribute of an imported repro module."""
    tree = ast.parse(path.read_text())
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = _resolve(node.module, alias.name)
                if target == f"{node.module}.{alias.name}":
                    modules[alias.asname or alias.name] = target
                elif target is not None:
                    used.add((target, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id) in MODULES):
            used.add((_resolve(modules[node.value.id], node.attr),
                      node.attr))
    return used


@cache
def _names_loaded(path: Path) -> set:
    return {node.id for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_is_reached():
    roots = ROOT_FILES + EXAMPLES
    assert EXAMPLES, "the examples/*.py roots were not found"
    reached = _reached(tuple(roots))
    files = roots + [MODULES[m] for m in sorted(reached)
                     if not _is_package(m)]
    used = set().union(*map(_names_used, files))
    unreached = []
    for package, name in _exported():
        home = _resolve(package, name)
        if (home, name) in used or (
                home in reached and not _is_package(home)
                and name in _names_loaded(MODULES[home])):
            continue
        unreached.append(name)
    assert sorted(set(unreached) - set(TEST_ONLY)) == []
    # An exception that is reached after all is stale.
    assert sorted(set(TEST_ONLY) - set(unreached)) == []
