"""Surface guard: every public top-level function and class of the package,
every public method and property of those classes, and every module-level
UPPER_CASE constant, is read somewhere besides its own definition: in the
package, in the acceptance suite or in the benchmark. An export from
``__init__`` is not a read. A name that only unit tests read is surface to
delete, or an oracle to move into the tests.
Every name a package module imports is used there, unless its line says
``noqa: F401``; such a line is allowed only where the benchmark's tracer
(``benchmarks/spans.py``) wraps that name in that module.
Every module-level cache (``functools.cache`` or ``lru_cache`` on a
top-level function) is named in ``CACHES``."""

import ast
import re
from pathlib import Path

from conftest import bench_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "resetchannel"
READERS = [*sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
           ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "benchmarks").rglob("*.py"))]

# the cache rule (ROADMAP item 10): a module-level cache stays when its
# uncached cost is at least 1% of some workload's pass; a new one is
# measured against it and named here
CACHES = {"_pauli_structure", "_initial_columns", "_hermitian_basis_gather"}


def _public(nodes):
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in _public(ast.parse(path.read_text()).body):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in _public(node.body)
                             if isinstance(item, ast.FunctionDef))
    return names


def constant_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(target.id for target in targets if isinstance(target, ast.Name)
                             and target.id.lstrip("_").isupper())
    return names


def _read_only_where_defined(names: set[str], definition: str) -> list[str]:
    """The names that the readers mention only where the regex
    ``definition``, formatted with the name, matches."""
    text = "\n".join(path.read_text() for path in READERS)
    return sorted(name for name in names
                  if len(re.findall(rf"\b{name}\b", text))
                  == len(re.findall(definition.format(name=name), text, re.MULTILINE)))


def test_every_public_name_is_read():
    unread = _read_only_where_defined(public_names(), r"\b(?:def|class)\s+{name}\b")
    assert not unread, f"read only where defined: {unread}"


def test_every_constant_is_read():
    unread = _read_only_where_defined(constant_names(), r"^{name}\s*[:=]")
    assert not unread, f"constants read only where defined: {unread}"


def _bound_imports(tree: ast.Module, lines: list[str]):
    """(name, line, marked) of each name an import binds, except
    ``__future__`` imports; ``marked`` when its line carries ``noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield ((alias.asname or alias.name).split(".")[0], alias.lineno,
                       "noqa: F401" in lines[alias.lineno - 1])


def _module_imports():
    """(module path, tree, bound imports) of each package module; the
    imports of ``__init__`` are the package's exports and are left out."""
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        source = path.read_text()
        tree = ast.parse(source)
        yield path, tree, list(_bound_imports(tree, source.splitlines()))


def test_every_import_is_used():
    unused = []
    for path, tree, imports in _module_imports():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line, marked in imports
                   if not marked and name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_unused_imports_are_traced_names(monkeypatch):
    # an import kept only for the tracer goes when the tracer drops the name
    traced = {(module.__name__.rsplit(".", 1)[1], attr)
              for module, attr, _, _ in bench_module("spans", monkeypatch).program_targets()}
    untraced = [f"{path.name}:{line} {name}" for path, _, imports in _module_imports()
                for name, line, marked in imports
                if marked and (path.stem, name) not in traced]
    assert not untraced, f"noqa: F401 on a name the tracer does not wrap there: {untraced}"


def _is_cache(decorator) -> bool:
    """Whether ``decorator`` is ``cache`` or ``lru_cache``, called or not,
    bare or as an attribute of ``functools``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_module_level_caches_are_named():
    cached = {node.name for path in PACKAGE.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list))}
    assert cached == CACHES, f"module-level caches: {sorted(cached)}"
