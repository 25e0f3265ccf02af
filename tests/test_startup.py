"""Start-up footprint: importing the package, validating every preset and
the CLI commands that compute nothing load no numpy; running any analysis,
the EP probes included, loads no scipy module at all. And a whole preset
run raises no warning in Python's development mode.

Each check runs in a fresh interpreter, because this test session has
already imported numpy and ``scipy.stats`` (and with it the modules checked
here).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resetchannel

SRC = Path(resetchannel.__file__).resolve().parents[1]

# loads the package, validates every preset and runs the CLI commands that
# compute nothing, then runs each named config in order; it prints, after
# each step, which scipy modules are loaded and whether numpy is; then it
# imports the modules named in argv[2], the positive control
PROBE = """
import contextlib, importlib, io, json, sys, tempfile

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def step():
    return {"loaded": scipy_loaded(), "numpy": "numpy" in sys.modules}

report = {}
import resetchannel
report["import"] = step()
from resetchannel.config import PRESETS, preset_config, validate_config
for name in PRESETS:
    preset_config(name)
report["presets"] = step()
from resetchannel.cli import main
with tempfile.TemporaryDirectory() as tmp:
    with open(f"{tmp}/tiny.json", "w") as fh:
        json.dump(json.loads(sys.argv[1])[0][1], fh)
    open(f"{tmp}/spectrum.csv", "w").close()  # plots fails where it finds no known CSV
    for label, argv in (("validate", ["validate", f"{tmp}/tiny.json"]),
                        ("preset --list", ["preset", "--list"]), ("plots", ["plots", tmp])):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        report[label] = dict(step(), code=code)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--help"])
    except SystemExit as exc:
        report["--help"] = dict(step(), code=exc.code)

from resetchannel.runner import run_experiment
with tempfile.TemporaryDirectory() as tmp:
    for label, raw in json.loads(sys.argv[1]):
        manifest = run_experiment(validate_config(raw), f"{tmp}/{label}")
        report[label] = dict(step(), ep_probes=manifest.get("ep_probes"),
                             failures=manifest["failures"])
for module in json.loads(sys.argv[2]):
    importlib.import_module(module)
report["control"] = step()
print(json.dumps(report))
"""

CHAIN = {"model": "xxx", "layout": {"n_s": 2, "n_b": 2}, "time": 10.0,
         "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0}}
SWEEP = {"parameter": "jxxx", "start": 0.0, "stop": 0.2, "points": 5}

NO_EP_RUNS = [
    ("spectrum", dict(CHAIN, model="aah", params={"j2": 1.0, "jzz": 0.2, "jz": 0.3},
                      analyses=["spectrum", "histogram"])),
    ("qmi", dict(CHAIN, analyses=["qmi"],
                 qmi={"n_k": 3, "cases": [{"name": "chaotic", "jxxx": 2.0, "jz": 0.1}]})),
    ("bands", dict(CHAIN, analyses=["bands"], sweep=SWEEP)),
]
# the small EP pipeline of tests/test_config_cli.py::TestEpPipeline
EP_RUN = ("ep", dict(CHAIN, layout={"n_s": 3, "n_b": 3}, time=50.0, analyses=["ep"],
                     sweep=SWEEP, ep={"start": 0.0, "stop": 0.1, "points": 11,
                                      "resolution": 1e-6, "max_eps": 2}))


def _run(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def _probe(runs, control) -> dict:
    res = _run("-c", PROBE, json.dumps(runs), json.dumps(control))
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def report():
    return _probe(NO_EP_RUNS + [EP_RUN], ["scipy.sparse.linalg"])


def test_import_loads_no_deferred_scipy_module(report):
    assert report["import"]["loaded"] == []


@pytest.mark.parametrize("label", ["import", "presets", "validate", "preset --list", "plots",
                                   "--help"])
def test_steps_that_compute_nothing_load_no_numpy(report, label):
    assert report[label]["numpy"] is False
    assert report[label].get("code", 0) == 0  # the CLI steps exit 0


def test_probe_reports_numpy_once_a_run_loads_it(report):
    # positive control: the first run of the probe loads numpy
    assert report[NO_EP_RUNS[0][0]]["numpy"] is True


@pytest.mark.parametrize("label", [label for label, _ in NO_EP_RUNS])
def test_run_without_ep_loads_no_deferred_scipy_module(report, label):
    assert report[label]["failures"] == []
    assert report[label]["loaded"] == []


def test_ep_run_loads_no_scipy_module(report):
    ep = report["ep"]
    assert ep["failures"] == []
    assert ep["ep_probes"]["near"] > 0
    assert ep["loaded"] == []


def test_probe_reports_an_imported_scipy_module(report):
    # positive control: the probe notices a scipy module the process imports
    assert "scipy.sparse.linalg" in report["control"]["loaded"]


def test_preset_run_is_clean_in_development_mode(tmp_path):
    # every warning an error, with the development-mode checks on: an
    # unclosed file, a resource or a deprecation warning fails the run
    res = _run("-X", "dev", "-W", "error", "-m", "resetchannel.cli", "preset", "fig3",
               "--out", str(tmp_path / "fig3"))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
