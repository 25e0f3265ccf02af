"""Tests of the benchmark itself: span arithmetic, trace transparency, the
seeded generator, the output check and the result format.

Run from the repository root: python -m pytest benchmarks/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
import workloads
from resetchannel.config import PRESETS, preset_config
from resetchannel.runner import run_experiment

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent, 0, attrs)


def test_self_times_subtract_nested_children():
    trace = [
        _span("runner.run_experiment", 0.0, 10.0),
        _span("runner.build_channel", 1.0, 4.0, 0, key="a"),
        _span("hamiltonians.build", 2.0, 3.0, 1),
        _span("spectra.full_spectrum", 5.0, 6.5, 0, dim=4),
    ]
    assert spans.self_times(trace) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_times_count_overlapping_children_once():
    trace = [_span("a", 0.0, 10.0), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 7.0, 0),
             _span("d", 9.0, 12.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_restores_targets():
    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Mod.inner(x) * 2

    Mod.outer = staticmethod(outer)
    original = Mod.inner
    tracer = spans.Tracer()
    with tracer.patched([(Mod, "inner", "inner", lambda a, k, r: {"arg": a[0]}),
                         (Mod, "outer", "outer", None)]):
        assert Mod.outer(1) == 4
    assert Mod.inner is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert tracer.spans[1].attrs == {"arg": 1}
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_layer_metrics_on_synthetic_pass():
    trace = [
        _span("runner.run_experiment", 0.0, 10.0),
        _span("ep_analysis.locate_eps", 1.0, 5.0, 0, eps=2),
        _span("runner.build_channel", 2.0, 3.0, 1, key="x"),
        _span("runner.build_channel", 3.0, 4.0, 1, key="x"),
        _span("spectra.full_spectrum", 6.0, 7.0, 0, dim=3),
    ]
    m = spans.layer_metrics(trace, 10.0)
    assert m["runner.build_channel.calls"][0] == 2
    assert m["runner.build_channel.distinct_ratio"][0] == pytest.approx(0.5)
    assert m["ep_analysis.locate_eps.builds_per_ep"][0] == pytest.approx(1.0)
    assert m["ep_analysis.locate_eps.self_s"][0] == pytest.approx(2.0)
    assert m["spectra.full_spectrum.dim3_sum"][0] == 27
    assert m["runner.self_s"][0] == pytest.approx(5.0 + 2.0)
    assert m["trace.accounted_frac"][0] == pytest.approx(1.0)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_traced_run_leaves_csvs_byte_identical(preset, tmp_path):
    config = preset_config(preset)
    run_experiment(config, tmp_path / "plain")
    tracer = spans.Tracer()
    with tracer.patched(spans.program_targets()):
        with tracer.span("runner.run_experiment"):
            manifest = run_experiment(config, tmp_path / "traced")
    assert len(tracer.spans) > 1
    for name in manifest["outputs"]:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    metrics = spans.layer_metrics(tracer.spans, tracer.spans[0].end - tracer.spans[0].start)
    assert metrics["trace.accounted_frac"][0] == pytest.approx(1.0)


def test_seed_zero_reproduces_presets():
    for name, runs in workloads.WORKLOADS.items():
        for run, config in workloads.generate(name, 0):
            shipped = PRESETS[run.preset]()
            expected = preset_config(run.preset, list(run.overrides))
            assert config.to_dict() == expected.to_dict()
            if not run.overrides:
                assert config.to_dict() == preset_config(run.preset).to_dict()
            if run.overrides:
                assert config.n_s == 5 and shipped["layout"]["n_s"] != 5
                same = dict(config.to_dict(), n_s=shipped["layout"]["n_s"])
                assert same == preset_config(run.preset).to_dict()


@pytest.mark.parametrize("seed", [1, 2, 12345])
def test_other_seeds_shift_only_grid_positions(seed):
    for name in workloads.WORKLOADS:
        for (run, config), (_, base) in zip(workloads.generate(name, seed),
                                            workloads.generate(name, 0)):
            got, ref = config.to_dict(), base.to_dict()
            for key in ("sweep", "ep", "phase"):
                if key in ref:
                    assert got[key]["points"] == ref[key]["points"]
                    assert got[key]["start"] != ref[key]["start"]
                    got[key] = dict(got[key], start=ref[key]["start"], stop=ref[key]["stop"])
            assert got == ref, run.label
    assert [c.to_dict() for _, c in workloads.generate("spectra", seed)] == \
        [c.to_dict() for _, c in workloads.generate("spectra", seed)]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = [_span("runner.run_experiment", 0.0, 1.0)]
    layer = set(spans.layer_metrics(trace, 1.0)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in layer | {m["name"] for m in spec["end_to_end"]}:
        assert NAME_RE.match(name), name


def test_check_accepts_reference_and_rejects_drift(tmp_path):
    index = check.load_index()
    label = "fig9"
    config = next(c for r, c in workloads.generate("spectra", 0) if r.label == label)
    ref_dir = check.REFERENCE_DIR / label
    out = tmp_path / label
    out.mkdir()
    for name in index[label]["files"]:
        (out / name).write_bytes((ref_dir / name).read_bytes())
    manifest = {"failures": [], "outputs": index[label]["files"]}
    assert check.check_run(label, config, out, manifest, index) == []

    rows = (out / "bands.csv").read_text().splitlines()
    cells = rows[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-8)
    rows[5] = ",".join(cells)
    (out / "bands.csv").write_text("\n".join(rows) + "\n")
    problems = check.check_run(label, config, out, manifest, index)
    assert len(problems) == 1 and "bands.csv row 5 re" in problems[0]

    assert check.check_run(label, config, out, dict(manifest, failures=[{"x": 1}]), index)


def test_benchmark_prints_result_line():
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "dynamics",
           "--seed", "3", "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
