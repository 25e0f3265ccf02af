"""Surface guard: every public top-level function and class of the package,
every public method and property of those classes, and every module-level
UPPER_CASE constant, is read somewhere besides its own definition: in the
package, in the acceptance suite or in the benchmark. An export from
``__init__`` is not a read. A name that only unit tests read is surface to
delete, or an oracle to move into the tests.
Every name a package module imports is used there, unless its line says
``noqa: F401``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "resetchannel"
READERS = [*sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
           ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "benchmarks").rglob("*.py"))]


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
    """(name, line) of each name an import binds, except ``__future__``
    imports and names whose line carries ``noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_every_import_is_used():
    # the imports of __init__ are the package's exports
    unused = []
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        source = path.read_text()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _bound_imports(tree, source.splitlines())
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"
