import json
import re

import pytest

from resetchannel import runner
from resetchannel.cli import main
from resetchannel.config import (
    ConfigError,
    apply_overrides,
    list_presets,
    load_config,
    preset_config,
    validate_config,
)
from resetchannel.ep_analysis import SweepGrid, count_complex
from resetchannel.plots import emit_plots
from resetchannel.runner import analysis_matrix, build_channel, run_experiment
from resetchannel.spectra import full_spectrum

TINY_CONFIG = {
    "name": "tiny",
    "model": "aah",
    "layout": {"n_s": 2, "n_b": 2},
    "time": 10.0,
    "params": {"j2": 1.0, "jzz": 0.2, "jz": 0.3},
    "analyses": ["spectrum", "histogram"],
}


class TestValidation:
    def test_presets_all_validate(self):
        names = [name for name, _ in list_presets()]
        assert len(names) == 8
        for name in names:
            config = preset_config(name)
            assert config.name == name

    def test_unknown_key_rejected(self):
        raw = dict(TINY_CONFIG, extra=1)
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            validate_config(raw)

    def test_negative_layout_rejected(self):
        raw = json.loads(json.dumps(TINY_CONFIG))
        raw["layout"]["n_s"] = -1
        with pytest.raises(ConfigError, match="config.layout.n_s"):
            validate_config(raw)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="config.model"):
            validate_config(dict(TINY_CONFIG, model="ising"))

    def test_param_not_in_model_rejected(self):
        raw = json.loads(json.dumps(TINY_CONFIG))
        raw["params"]["jxxx"] = 1.0  # aah has no three-site coupling
        with pytest.raises(ConfigError, match="config.params"):
            validate_config(raw)

    def test_sweep_needs_distinct_endpoints(self):
        raw = json.loads(json.dumps(TINY_CONFIG))
        raw["sweep"] = {"parameter": "jz", "start": 0.1, "stop": 0.1, "points": 5}
        with pytest.raises(ConfigError, match="config.sweep.stop"):
            validate_config(raw)

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ConfigError, match="unknown analysis"):
            validate_config(dict(TINY_CONFIG, analyses=["fourier"]))

    def test_overrides(self):
        raw = apply_overrides(TINY_CONFIG, ["params.jz=5.0", "time=20"])
        config = validate_config(raw)
        assert config.params["jz"] == 5.0
        assert config.time == 20.0

    def test_hash_is_stable_and_sensitive(self):
        c1 = validate_config(TINY_CONFIG)
        c2 = validate_config(json.loads(json.dumps(TINY_CONFIG)))
        assert c1.config_hash() == c2.config_hash()
        c3 = validate_config(apply_overrides(TINY_CONFIG, ["params.jz=0.4"]))
        assert c3.config_hash() != c1.config_hash()

    def test_tolerance_overrides(self):
        raw = dict(TINY_CONFIG, tolerances={"tol_im": 1e-7})
        assert validate_config(raw).tol_im == 1e-7
        with pytest.raises(ConfigError, match="config.tolerances"):
            validate_config(dict(TINY_CONFIG, tolerances={"tol_re": 1.0}))

    @pytest.mark.parametrize("raw, path", [
        (dict(TINY_CONFIG, analyses=["bands"]), "config.sweep"),
        (dict(TINY_CONFIG, analyses=["complex_count"]), "config.sweep"),
        (dict(TINY_CONFIG, analyses=["ep"]), "config.ep"),
        (dict(TINY_CONFIG, analyses=["qmi"]), "config.qmi"),
        (dict(TINY_CONFIG, analyses=["phase"]), "config.phase"),
        (dict(TINY_CONFIG, qmi={"n_k": 2, "cases": [{"name": "c", "jxxx": 1.0, "jz": 0.1}]}),
         "config.qmi"),
        ({"model": "pxp", "layout": {"n_s": 2, "n_b": 2}, "time": 10.0,
          "params": {"omega_rabi": 1.0}, "analyses": ["phase"],
          "phase": {"parameter": "jz", "start": 0.1, "stop": 1.0, "points": 3, "n_k": 2}},
         "config.phase.parameter"),
        (dict(TINY_CONFIG, analyses=["phase"],
              phase={"parameter": "jz", "start": 0.1, "stop": 1.0, "points": 3, "n_k": 2,
                     "log_grid": "false"}),
         "config.phase.log_grid"),
    ], ids=["bands-no-sweep", "complex-count-no-sweep", "ep-no-ep", "qmi-no-qmi",
            "phase-no-phase", "qmi-on-aah", "phase-on-pxp", "phase-log-grid-string"])
    def test_config_that_cannot_run_is_rejected(self, raw, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:"):
            validate_config(raw)

    @pytest.mark.parametrize("model, params, sweep", [
        ("xxx", {"jxxx": 0.0}, {"parameter": "jxxx", "start": 0.0, "stop": 0.2, "points": 3}),
        ("xx", {"jxx": 0.8}, {"parameter": "jz", "start": 0.1, "stop": 0.3, "points": 3}),
        ("xx", {"jxx": 0.8}, None),
    ], ids=["xxx-jxxx-sweep", "xx-jz-sweep", "xx-no-sweep"])
    def test_anisotropy_compare_needs_xx_coupling_sweep(self, model, params, sweep):
        raw = dict(XX_CONFIG, model=model, params=params, sweep=sweep)
        if sweep is None:
            del raw["sweep"]
        with pytest.raises(ConfigError, match=r"^config\.sweep"):
            validate_config(raw)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "aah",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


class TestRunner:
    def test_tiny_run_produces_outputs(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        manifest = run_experiment(config, tmp_path / "out")
        assert (tmp_path / "out" / "spectrum.csv").exists()
        assert (tmp_path / "out" / "histogram.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert manifest["config_hash"] == config.config_hash()
        assert set(manifest["outputs"]) == {"spectrum.csv", "histogram.csv"}

    def test_manifest_records_channel_health(self, tmp_path):
        manifest = run_experiment(validate_config(TINY_CONFIG), tmp_path)
        health = manifest["health"]
        assert set(health) == {"completeness_residual", "max_eigen_residual"}
        assert 0.0 <= health["completeness_residual"] < 1e-9
        assert 0.0 <= health["max_eigen_residual"] < 1e-9

    def test_fig2_reads_no_inverse_or_svd(self, tmp_path, monkeypatch):
        # spectrum, histogram and overlaps read eigenvalues, right
        # eigenoperators and residuals only: the left side stays unbuilt
        from resetchannel import spectra

        class Proxy:
            def __init__(self, target, **overrides):
                self._target, self._overrides = target, overrides

            def __getattr__(self, name):
                if name in self._overrides:
                    return self._overrides[name]
                return getattr(self._target, name)

        def refuse(*args, **kwargs):
            raise AssertionError("inverse or SVD of the eigenvector matrix computed")

        np_ = spectra.np
        monkeypatch.setattr(spectra, "np", Proxy(np_, linalg=Proxy(np_.linalg, inv=refuse,
                                                                  svd=refuse)))
        builds = []
        original = runner.build_hamiltonian
        monkeypatch.setattr(runner, "build_hamiltonian",
                            lambda *args: builds.append(args) or original(*args))
        manifest = run_experiment(preset_config("fig2"), tmp_path)
        assert not manifest["failures"]
        assert set(manifest["outputs"]) == {"spectrum.csv", "histogram.csv", "overlaps.csv"}
        # the overlaps reuse the eigensystem the channel's propagator computed
        assert len(builds) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        for name in ("spectrum.csv", "histogram.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


SWEEP_CONFIG = {
    "name": "tinysweep",
    "model": "xxx",
    "layout": {"n_s": 2, "n_b": 2},
    "time": 10.0,
    "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0},
    "analyses": ["complex_count", "bands"],
    "sweep": {"parameter": "jxxx", "start": 0.0, "stop": 0.2, "points": 5},
}


# fig9's analyses on a 2+2 chain; at t=10 the isotropic point jyy = jxx is
# fully real while jyy = 1.0 has 8 complex eigenvalues
XX_CONFIG = {
    "name": "tinyxx",
    "model": "xx",
    "layout": {"n_s": 2, "n_b": 2},
    "time": 10.0,
    "params": {"jxx": 0.8, "jyy": 1.0, "jzz": 0.1, "jz": 0.1},
    "analyses": ["anisotropy_compare", "bands"],
    "sweep": {"parameter": "jyy", "start": 0.95, "stop": 0.55, "points": 5},
}


class TestSharedSweep:
    def test_one_channel_build_per_grid_point(self, tmp_path, monkeypatch):
        calls = []
        original = runner.build_channel
        monkeypatch.setattr(runner, "build_channel",
                            lambda *args: calls.append(args) or original(*args))
        # the grid starts at the isotropic point jxx = jyy
        raw = dict(XX_CONFIG, params=dict(XX_CONFIG["params"], jyy=0.8),
                   sweep={"parameter": "jxx", "start": 0.8, "stop": 1.0, "points": 5})
        run_experiment(validate_config(raw), tmp_path)
        assert len(calls) == 5
        rows = (tmp_path / "complex_count.csv").read_text().splitlines()
        assert rows[0] == "jxx,n_complex,n_complex_isotropic"
        assert rows[1] == "0.80000000000000004,0,0"
        assert all(row.endswith(",0") for row in rows[1:])

    def test_isotropic_reference_off_grid_jyy_sweep(self, tmp_path):
        config = validate_config(XX_CONFIG)
        run_experiment(config, tmp_path)
        iso = count_complex(full_spectrum(analysis_matrix(
            build_channel(config, {"jyy": 0.8}))).eigenvalues)
        assert iso == 0
        rows = (tmp_path / "complex_count.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(row.split(",")[2] == "0" for row in rows)
        assert any(int(row.split(",")[1]) > 0 for row in rows)

    def test_manifest_times_shared_stages(self, tmp_path):
        raw = dict(SWEEP_CONFIG, analyses=["spectrum", "complex_count", "bands"])
        manifest = run_experiment(validate_config(raw), tmp_path)
        assert {"channel", "sweep", "spectrum", "complex_count", "bands"} <= set(
            manifest["runtimes"])


class TestEpPipeline:
    def test_manifest_counts_ep_probes(self, tmp_path, monkeypatch):
        probes = []
        original = SweepGrid.probe
        monkeypatch.setattr(SweepGrid, "probe",
                            lambda *args: probes.append(args[1]) or original(*args))
        raw = dict(SWEEP_CONFIG, layout={"n_s": 3, "n_b": 3}, time=50.0, analyses=["ep"],
                   ep={"start": 0.0, "stop": 0.1, "points": 11, "resolution": 1e-6,
                       "max_eps": 2})
        manifest = run_experiment(validate_config(raw), tmp_path)
        assert not manifest["failures"]
        counts = manifest["ep_probes"]
        assert set(counts) == {"near", "full"}
        assert counts["near"] > 0
        assert counts["near"] + counts["full"] == len(probes)


    def test_values_shared_by_sweep_and_ep_grids_built_once(self, tmp_path, monkeypatch):
        calls = []
        original = runner.build_channel
        monkeypatch.setattr(runner, "build_channel",
                            lambda *args: calls.append(repr(args[1:])) or original(*args))
        # the grids share jxxx = 0.0, 0.05 and 0.1
        raw = dict(SWEEP_CONFIG, analyses=["bands", "ep"],
                   ep={"start": 0.0, "stop": 0.1, "points": 5, "resolution": 1e-3})
        run_experiment(validate_config(raw), tmp_path)
        assert len(calls) >= 7
        assert len(calls) == len(set(calls))


class TestCli:
    def test_run_and_plots_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert main(["plots", str(out)]) == 0
        assert (out / "spectrum.gp").exists()
        assert (out / "histogram.gp").exists()

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        assert main(["validate", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, model="bogus")))
        assert main(["validate", str(cfg)]) == 1
        assert "config.model" in capsys.readouterr().err

    def test_plots_on_empty_dir_fails(self, tmp_path, capsys):
        assert main(["plots", str(tmp_path)]) == 2

    def test_custom_sweep_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(SWEEP_CONFIG))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        counts = (out / "complex_count.csv").read_text().splitlines()
        assert counts[0] == "jxxx,n_complex"
        assert len(counts) == 6
        assert counts[1].endswith(",0")  # symmetric point is fully real
        bands = (out / "bands.csv").read_text().splitlines()
        assert bands[0] == "jxxx,band,re,im"

    def test_preset_list(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.count(":") >= 8 and "fig2" in out

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["preset", "fig99"]) == 1


class TestPlots:
    def test_emission_idempotent(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        run_experiment(config, tmp_path)
        first = emit_plots(tmp_path)
        blobs = {name: (tmp_path / name).read_bytes() for name in first}
        second = emit_plots(tmp_path)
        assert first == second
        for name in second:
            assert (tmp_path / name).read_bytes() == blobs[name]

    def test_missing_csvs_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plots(tmp_path)
