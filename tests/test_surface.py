"""Surface guard: every public top-level function and class of the package,
and every public method and property of those classes, is read somewhere
besides its own definition: in the package, in the acceptance suite or in
the benchmark. An export from ``__init__`` is not a read. A name that only
unit tests read is surface to delete, or an oracle to move into the tests."""

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


def test_every_public_name_is_read():
    text = "\n".join(path.read_text() for path in READERS)
    unread = sorted(name for name in public_names()
                    if len(re.findall(rf"\b{name}\b", text))
                    == len(re.findall(rf"\b(?:def|class)\s+{name}\b", text)))
    assert not unread, f"read only where defined: {unread}"
