"""The README's one Python example runs as written against the package,
its JSON configs validate, so the API and schema it shows stay in step
with the code, its tolerance table states the values the code holds, its
preset table states every preset's ``--list`` note and no other, its
Layout block names every file of the package and no other, and every
attribute it names on a package class exists."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

from resetchannel.config import list_presets, validate_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "resetchannel"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_json_configs_validate():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))


def test_tolerance_table_matches_the_code():
    # each row's constant, bare in resetchannel.spectra or prefixed with
    # its module, holds the value the row states
    section = README.read_text().split("## Tolerance policy", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", section, flags=re.M)
    assert rows
    for name, value in rows:
        module, _, constant = name.rpartition(".")
        source = importlib.import_module(f"resetchannel.{module or 'spectra'}")
        assert getattr(source, constant) == float(value), name


def test_preset_table_states_every_preset_note():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = section.split("| preset | what it computes |\n", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| (\S+) +\| (.*) \|$", table, flags=re.M) == list_presets()


def test_layout_block_names_every_package_file():
    section = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\nsrc/resetchannel/\n(.*?)```", section, flags=re.S).group(1)
    named = re.findall(r"^  (\S+)", block, flags=re.M)
    files = sorted(path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    assert sorted(named) == files


def test_class_attributes_exist():
    # each backticked `Class.attr` (or `module.Class.attr(...)`) whose Class
    # is a public class of the package names a field, property or method
    modules = [importlib.import_module(f"resetchannel.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    classes = {name: obj for module in modules for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and not name.startswith("_")}
    refs = [(cls, attr) for cls, attr
            in re.findall(r"`(?:[a-z_]\w*\.)*([A-Z]\w*)\.(\w+)", README.read_text())
            if cls in classes]
    assert refs
    for cls, attr in refs:
        fields = ({f.name for f in dataclasses.fields(classes[cls])}
                  if dataclasses.is_dataclass(classes[cls]) else set())
        assert attr in fields or hasattr(classes[cls], attr), f"{cls}.{attr}"
