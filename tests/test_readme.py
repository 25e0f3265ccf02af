"""The README's one Python example runs as written against the package,
its JSON configs validate, so the API and schema it shows stay in step
with the code, and its tolerance table states the values the code holds."""

import importlib
import json
import re
from pathlib import Path

from resetchannel.config import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


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
