import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import resetchannel
from conftest import BENCH_DIR, bench_module
from resetchannel import dynamics, runner
from resetchannel.channel import CompletenessError
from resetchannel.cli import main
from resetchannel.config import (
    _PRESET_TABLE,
    ANALYSES,
    BLAS_THREAD_VARS,
    MAX_COUPLING_TIME,
    MODELS,
    PRESETS,
    ConfigError,
    PxpParams,
    apply_overrides,
    list_presets,
    load_config,
    preset_config,
    validate_config,
)
from resetchannel.dynamics import eigen_overlap
from resetchannel.ep_analysis import SweepGrid, count_complex, sweep_spectrum, track_bands
from resetchannel.hamiltonians import ConstrainedBasis, build_pxp, hermitian_eigensystem
from resetchannel.plots import _COMMON, _SCRIPTS, emit_plots
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


# one valid config per section, each read by its analysis
SECTION_CONFIGS = {
    "sweep": dict(TINY_CONFIG, analyses=["bands"],
                  sweep={"parameter": "jz", "start": 0.1, "stop": 0.3, "points": 3}),
    "ep": dict(TINY_CONFIG, analyses=["ep"],
               sweep={"parameter": "jz", "start": 0.1, "stop": 0.3, "points": 3},
               ep={"start": 0.1, "stop": 0.2, "points": 3}),
    "qmi": dict(TINY_CONFIG, model="xxx", params={"jzz": 0.1, "jz": 0.1}, analyses=["qmi"],
                qmi={"n_k": 2, "cases": [{"name": "a", "jxxx": 1.0, "jz": 0.1}]}),
    "phase": dict(TINY_CONFIG, analyses=["phase"],
                  phase={"parameter": "jz", "start": 0.1, "stop": 1.0, "points": 3, "n_k": 2}),
}


def _section_config(section, drop=None, **changes):
    """``SECTION_CONFIGS[section]`` with key ``drop`` taken out of its section
    and ``changes`` put in."""
    raw = json.loads(json.dumps(SECTION_CONFIGS[section]))
    raw[section].pop(drop, None)
    raw[section].update(changes)
    return raw


class TestValidation:
    def test_presets_all_validate(self):
        names = [name for name, _ in list_presets()]
        assert len(names) == 8
        for name in names:
            # the key is the one place a preset's name is written, and an
            # override still renames it
            assert "name" not in PRESETS[name]()
            assert preset_config(name).name == name
            assert preset_config(name, ["name=other"]).name == "other"

    # sha256 of each raw preset as canonical JSON (sorted keys), so that
    # 1 and 1.0 differ; a moved digest means a preset's raw config moved
    RAW_PRESET_DIGESTS = {
        "fig2": "7a52bf3f67f5a883711784d8dbae747762b18707b20cabc16083e21c52032d46",
        "fig3": "b55532cd551fec8df1fc54b37af58d511afef4fdc67fe1acb92eec604ffcedbc",
        "fig4": "2c2dd6b750ef96ea39a5b8d64c25df3131f93827d49b9e06ebdee8e37ab95b50",
        "fig5": "45a7657c4be0ec965370d6d68064cb3483bd7a3411bbefd1db15954237e616e3",
        "fig6": "799776acfd8310550493a43209204ea3af5323fde43626cb6aa2578b521de883",
        "fig7": "cbd77a0041dc739b5b69bb1099d05843b930a0415f66f95aa11cc961b2f47206",
        "fig8": "7c35fad94adbdb4accf55a202a565e2139c5210737a2d7d5cb5adef43b1e329c",
        "fig9": "6de2c9cb21ddfce339c7862a2b3af768ff8b60ddfcd61708fc0dcbcbdd5c2f53",
    }

    def test_raw_presets_are_pinned(self):
        assert sorted(PRESETS) == sorted(self.RAW_PRESET_DIGESTS)
        for name, digest in self.RAW_PRESET_DIGESTS.items():
            blob = json.dumps(PRESETS[name](), sort_keys=True)
            assert hashlib.sha256(blob.encode()).hexdigest() == digest, name

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_each_preset_call_is_an_independent_copy(self, name):
        want = json.dumps(PRESETS[name](), sort_keys=True)
        want_hash = preset_config(name).config_hash()
        raw = PRESETS[name]()
        raw["params"]["jz"] = 99.0
        raw["layout"]["n_s"] = 1
        if "qmi" in raw:
            raw["qmi"]["cases"][0]["jz"] = 99.0
        assert json.dumps(PRESETS[name](), sort_keys=True) == want
        assert preset_config(name).config_hash() == want_hash

    def test_list_presets_gives_each_note_in_name_order(self):
        assert list_presets() == [(name, _PRESET_TABLE[name][0]) for name in sorted(PRESETS)]
        assert len(list_presets()) == 8 and all(note for _, note in list_presets())

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

    @pytest.mark.parametrize("value", ["[overlaps]", []], ids=["string", "empty"])
    def test_list_error_names_the_value(self, value):
        # an unquoted override such as analyses=[overlaps] is not JSON and
        # arrives as the string "[overlaps]"
        with pytest.raises(ConfigError) as err:
            validate_config(dict(TINY_CONFIG, analyses=value))
        assert str(err.value) == f"config.analyses: must be a non-empty list, got {value!r}"

    @pytest.mark.parametrize("override, key", [("qmi.cases.0.jz=1", "qmi.cases"),
                                               ("time.x=1", "time")])
    def test_override_through_non_object_rejected(self, override, key):
        with pytest.raises(ConfigError) as err:
            preset_config("fig7", [override])
        assert str(err.value).startswith(f"override {override!r}: cannot descend into {key!r}")

    def test_hash_is_stable_and_sensitive(self):
        c1 = validate_config(TINY_CONFIG)
        c2 = validate_config(json.loads(json.dumps(TINY_CONFIG)))
        assert c1.config_hash() == c2.config_hash()
        c3 = validate_config(apply_overrides(TINY_CONFIG, ["params.jz=0.4"]))
        assert c3.config_hash() != c1.config_hash()

    def test_benchmark_reference_hashes(self, monkeypatch):
        # the benchmark compares a run with its reference outputs only where
        # the config hashes agree, so a changed hash turns the check off
        workloads = bench_module("workloads", monkeypatch)
        configs = {run.label: config for name in workloads.WORKLOADS
                   for run, config in workloads.generate(name, 0)}
        index = json.loads((BENCH_DIR / "reference" / "index.json").read_text())
        assert index and set(index) <= set(configs)
        for label, ref in index.items():
            assert configs[label].config_hash() == ref["config_hash"], label

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
        (dict(TINY_CONFIG, analyses=["scar_overlaps"]), "config.model"),
        (dict(TINY_CONFIG, tolerances={"tol_im": 1e-7}), "config"),
        (dict(TINY_CONFIG, model="xxx", params={"jzz": 0.1, "jz": 0.1},
              analyses=["qmi"], qmi={"n_k": 2, "cases": [
                  {"name": "a", "jxxx": 1.0, "jz": 0.1},
                  {"name": "a", "jxxx": 0.0, "jz": 5.0}]}),
         "config.qmi.cases[1].name"),
        (dict(TINY_CONFIG, cluster_window=0.7), "config.cluster_window"),
        (dict(TINY_CONFIG, analyses=["ep"],
              sweep={"parameter": "jz", "start": 0.1, "stop": 0.3, "points": 3},
              ep={"start": 0.2, "stop": 0.2, "points": 5}), "config.ep.stop"),
        (dict(TINY_CONFIG, n_s=5), "config"),
        ({k: v for k, v in dict(TINY_CONFIG, n_s=2, n_b=2).items() if k != "layout"},
         "config"),
        ([TINY_CONFIG], "config"),
        (dict(TINY_CONFIG, layout=5), "config.layout"),
        (dict(TINY_CONFIG, layout=[2, 2]), "config.layout"),
        (dict(TINY_CONFIG, params=5), "config.params"),
        (dict(TINY_CONFIG, sweep=5), "config.sweep"),
        (dict(TINY_CONFIG, ep=5), "config.ep"),
        (dict(TINY_CONFIG, qmi=5), "config.qmi"),
        (dict(TINY_CONFIG, model="xxx", params={"jzz": 0.1, "jz": 0.1},
              analyses=["qmi"], qmi={"n_k": 2, "cases": [5]}), "config.qmi.cases[0]"),
        (dict(TINY_CONFIG, phase=5), "config.phase"),
        (dict(TINY_CONFIG, time=float("inf")), "config.time"),
        (dict(TINY_CONFIG, time=10 ** 400), "config.time"),
        (dict(TINY_CONFIG, params={"j2": 1.0, "jz": float("nan")}), "config.params.jz"),
        (dict(TINY_CONFIG, analyses=["bands"],
              sweep={"parameter": "jz", "start": 0.1, "stop": float("-inf"), "points": 3}),
         "config.sweep.stop"),
        (dict(TINY_CONFIG, analyses=["bands"],
              sweep={"parameter": ["jz"], "start": 0.1, "stop": 0.3, "points": 3}),
         "config.sweep.parameter"),
        (dict(TINY_CONFIG, name={"a": 1}), "config.name"),
        (dict(TINY_CONFIG, name=5), "config.name"),
        (dict(TINY_CONFIG, name=None), "config.name"),
        (dict(TINY_CONFIG, name=""), "config.name"),
        (dict(TINY_CONFIG, name="."), "config.name"),
        (dict(TINY_CONFIG, name=".."), "config.name"),
        (dict(TINY_CONFIG, name="../x"), "config.name"),
        (dict(TINY_CONFIG, name="/tmp/abs"), "config.name"),
        (dict(TINY_CONFIG, name="a/b"), "config.name"),
        (dict(TINY_CONFIG, name="a\x00b"), "config.name"),
        (dict(TINY_CONFIG, name="a\nb"), "config.name"),
        (dict(XX_CONFIG, analyses=["complex_count", "anisotropy_compare"]), "config.analyses"),
        (dict(TINY_CONFIG, analyses=["spectrum", "spectrum", "histogram"]), "config.analyses"),
        (_section_config("sweep", points=True), "config.sweep.points"),
        (_section_config("qmi", n_k=2.0), "config.qmi.n_k"),
        (_section_config("phase", log_grid=1), "config.phase.log_grid"),
        (_section_config("qmi", cases=[{"name": 5, "jxxx": 1.0, "jz": 0.1}]),
         "config.qmi.cases[0].name"),
    ], ids=["bands-no-sweep", "complex-count-no-sweep", "ep-no-ep", "qmi-no-qmi",
            "phase-no-phase", "qmi-on-aah", "phase-on-pxp", "phase-log-grid-string",
            "scar-overlaps-on-aah", "tolerances-key", "qmi-duplicate-case-name",
            "cluster-window-too-wide", "ep-equal-endpoints", "n-s-next-to-layout",
            "top-level-n-s-n-b", "config-not-object", "layout-int", "layout-list",
            "params-int", "sweep-int", "ep-int", "qmi-int", "qmi-case-int", "phase-int",
            "time-infinite", "time-beyond-float", "params-jz-nan", "sweep-stop-infinite",
            "sweep-parameter-list", "name-object", "name-int", "name-null", "name-empty",
            "name-dot", "name-dotdot", "name-parent-path", "name-absolute-path",
            "name-two-components", "name-nul", "name-newline",
            "two-writers-of-complex-count", "analysis-twice",
            "sweep-points-bool", "qmi-n-k-float", "phase-log-grid-int", "qmi-case-name-int"])
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

    @pytest.mark.parametrize("section", sorted(SECTION_CONFIGS))
    def test_section_configs_validate(self, section):
        validate_config(SECTION_CONFIGS[section])

    @pytest.mark.parametrize("raw, message", [
        (_section_config("sweep", drop="parameter"), "config.sweep: missing keys ['parameter']"),
        (_section_config("ep", drop="points"), "config.ep: missing keys ['points']"),
        (_section_config("qmi", drop="cases"), "config.qmi: missing keys ['cases']"),
        (_section_config("phase", drop="n_k"), "config.phase: missing keys ['n_k']"),
        (_section_config("sweep", extra=1), "config.sweep: unknown keys ['extra']"),
        (_section_config("ep", extra=1), "config.ep: unknown keys ['extra']"),
        (_section_config("qmi", extra=1), "config.qmi: unknown keys ['extra']"),
        (_section_config("phase", extra=1), "config.phase: unknown keys ['extra']"),
    ])
    def test_section_key_set_is_checked(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(raw)

    # every preset's config_hash, as shipped and at n_s=5; a moved hash means
    # a preset, a config field or a default moved
    PRESET_HASHES = {
        "fig2": "1850295b7422350335fbef2e9a299b3dec6f21c530a539230ae0796fafe6a268",
        "fig3": "23d832b57b2bd8ea5352f63295ddd9b3b64e198e8f216b5a3bc8ce294cf05431",
        "fig4": "8982b2892f44601a63257e8bfdaa900ba7a57c5973ccecaa5123893ddbf3c92c",
        "fig5": "4e0473455eb0fbb598c822f069a648bd4eea14c64c9957b3da1337cb5dd4eeb7",
        "fig6": "bb91e88b742ffb8b772df321c95e99d957dbcb7a7151468710b15692baad55ec",
        "fig7": "fdce2953a4531281396c6d06b4949d0960ae8291c676f25485233a9db7648385",
        "fig8": "6464e83e1e40ae13e17c7f9aa44674e01797308f90f83b274ac97698b763ab0e",
        "fig9": "4b986580bf1f65aaf2013dcc5a096c5b16a94c018460b97a0c02d52c5ffa9ab1",
        "fig2@n_s=5": "cadeb310a0dc883b73f75c6c831c2dee1cf5adfd4d085ab7b464c99a1e2b71d0",
        "fig5@n_s=5": "162b86c5652657341a52aec971e08a8e89119451978cfd7e17d19cd9418859f5",
    }

    # a name with a space or a letter beyond ASCII is printable: it validates,
    # with a pinned config_hash
    @pytest.mark.parametrize("name, digest", [
        ("fig 3 \u00e9", "8d216b6887c412c6603ccb50363541ec902768866e204d8aaee578bceff3592a"),
        ("\u03a9-run_2", "be202c9eb3c49a450e80522afc1a78f2e046ef2772f5fd4b912f0919c7e7827d"),
    ])
    def test_printable_name_keeps_its_hash(self, name, digest):
        assert preset_config("fig3", [f"name={json.dumps(name)}"]).config_hash() == digest

    @pytest.mark.parametrize("label", sorted(PRESET_HASHES))
    def test_preset_hash_is_pinned(self, label):
        name, _, n_s = label.partition("@")
        config = preset_config(name, [f"layout.{n_s}"] if n_s else None)
        assert config.config_hash() == self.PRESET_HASHES[label]
        # to_dict leaves out exactly the optional sections that are absent
        sections = ("sweep", "ep", "qmi", "phase")
        full = dataclasses.asdict(config)
        assert config.to_dict() == {key: value for key, value in full.items()
                                    if key not in sections or value is not None}

    # the coupling keys each model takes and the ones a sweep may vary,
    # written out apart from the parameter dataclasses that declare them
    PARAM_KEYS = {
        "aah": {"j2", "jzz", "jz", "omega"},
        "xxx": {"j2", "jzz", "jz", "omega", "jxxx"},
        "xx": {"jxx", "jyy", "jzz", "jz", "omega"},
        "pxp": {"omega_rabi"},
    }
    SWEEPABLE = {
        "aah": {"jz", "jzz"},
        "xxx": {"jxxx", "jz", "jzz"},
        "xx": {"jxx", "jyy", "jz", "jzz"},
        "pxp": set(),
    }
    COUPLINGS = sorted(set().union(*PARAM_KEYS.values()))

    @pytest.mark.parametrize("model", sorted(PARAM_KEYS))
    @pytest.mark.parametrize("key", COUPLINGS)
    def test_params_take_exactly_the_model_couplings(self, model, key):
        raw = dict(TINY_CONFIG, model=model, params={key: 0.5})
        if key in self.PARAM_KEYS[model]:
            assert validate_config(raw).params == {key: 0.5}
        else:
            with pytest.raises(ConfigError, match=rf"^config\.params: unknown keys \['{key}'\]"):
                validate_config(raw)

    @pytest.mark.parametrize("model", sorted(SWEEPABLE))
    @pytest.mark.parametrize("key", COUPLINGS)
    def test_sweep_varies_exactly_the_sweepable_couplings(self, model, key):
        # a phase scan varies jz alone, where the model lets it vary
        for section, allowed in (("sweep", self.SWEEPABLE[model]),
                                 ("phase", self.SWEEPABLE[model] & {"jz"})):
            raw = dict(_section_config(section, parameter=key, start=0.5, stop=0.7),
                       model=model, params={})
            if key in allowed:
                assert getattr(validate_config(raw), section).parameter == key
            else:
                with pytest.raises(ConfigError,
                                   match=rf"^config\.{section}\.parameter: cannot sweep"):
                    validate_config(raw)

    @pytest.mark.parametrize("section", ["sweep", "ep", "phase"])
    def test_grid_ends_must_differ(self, section):
        with pytest.raises(ConfigError,
                           match=rf"^config\.{section}\.stop: must differ from start$"):
            validate_config(_section_config(section, start=0.2, stop=0.2))

    @pytest.mark.parametrize("model, key, value", [
        ("aah", "j2", 0), ("aah", "j2", -1), ("xxx", "j2", 0), ("xxx", "j2", -1),
        ("pxp", "omega_rabi", 0),
    ])
    def test_energy_unit_must_be_positive(self, model, key, value):
        raw = dict(TINY_CONFIG, model=model, params={key: value})
        with pytest.raises(ConfigError, match=rf"^config\.params\.{key}: must be positive"):
            validate_config(raw)

    @pytest.mark.parametrize("section, key", [
        ("params", "j2"), ("params", "jz"), ("params", "omega"), ("sweep", "start"),
        ("sweep", "stop"), ("ep", "start"), ("ep", "stop"), ("phase", "start"),
        ("phase", "stop"), ("qmi", "jxxx"), ("qmi", "jz")])
    @pytest.mark.parametrize("time", [0.5, 100.0])
    def test_coupling_times_time_is_bounded(self, section, key, time):
        # every coupling a run can set: accepted up to the bound over
        # max(1, time), rejected past it with the field that sets it
        def raw_with(value):
            raw = json.loads(json.dumps(SECTION_CONFIGS.get(section, TINY_CONFIG)))
            raw["time"] = time
            (raw["qmi"]["cases"][0] if section == "qmi" else raw[section])[key] = value
            return raw

        path = (f"config.qmi.cases[0].{key}" if section == "qmi"
                else f"config.{section}.{key}")
        inside = MAX_COUPLING_TIME / max(1.0, time)
        validate_config(raw_with(inside))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: .* exceeds 1e\+100"):
            validate_config(raw_with(inside * (1 + 1e-9)))

    @pytest.mark.parametrize("n_sites", range(2, 7))
    def test_scar_overlaps_layout_rule_matches_scar_candidates(self, n_sites):
        # validation accepts a blockade chain exactly where its spectrum
        # holds more than SCAR_COUNT states past SCAR_EDGE_FRACTION of
        # each edge, which is where scar_candidates succeeds
        raw = {"model": "pxp", "layout": {"n_s": 1, "n_b": n_sites - 1}, "time": 10.0,
               "params": {}, "analyses": ["scar_overlaps"]}
        try:
            validate_config(raw)
            accepted = True
        except ConfigError as exc:
            assert str(exc).startswith("config.layout: scar_overlaps needs n_s + n_b >= 3")
            accepted = False
        vals, vecs = hermitian_eigensystem(build_pxp(PxpParams(), n_sites))
        edge = int(len(vals) * dynamics.SCAR_EDGE_FRACTION)
        assert accepted == (len(vals) - 2 * edge > dynamics.SCAR_COUNT)
        if accepted:
            dynamics.scar_candidates(vals, vecs, ConstrainedBasis(n_sites))
        else:
            with pytest.raises(ValueError, match="spectrum too small"):
                dynamics.scar_candidates(vals, vecs, ConstrainedBasis(n_sites))

    def test_every_accepted_config_runs(self, tmp_path):
        # each model, layout of 1 or 2 + 1 or 2 sites and single analysis,
        # with the sections it reads at their smallest: whatever validation
        # accepts runs without raising (a grid point may still fail)
        sections = {
            "sweep": lambda model: {"parameter": "jxx" if model == "xx" else "jz",
                                    "start": 0.8, "stop": 1.0, "points": 3},
            "ep": lambda model: {"start": 0.8, "stop": 1.0, "points": 3},
            "qmi": lambda model: {"n_k": 2, "cases": [{"name": "a", "jxxx": 1.0, "jz": 0.1}]},
            "phase": lambda model: {"parameter": "jz", "start": 0.1, "stop": 1.0, "points": 3,
                                    "n_k": 2},
        }
        accepted, raised = set(), []
        for model, n_s, n_b, analysis in itertools.product(MODELS, (1, 2), (1, 2), ANALYSES):
            raw = {"model": model, "layout": {"n_s": n_s, "n_b": n_b}, "time": 10.0,
                   "params": {}, "analyses": [analysis]}
            # ep takes its parameter from the sweep section
            for section in ("sweep", "ep") if analysis == "ep" else [ANALYSES[analysis]]:
                if section is not None:
                    raw[section] = sections[section](model)
            try:
                config = validate_config(raw)
            except ConfigError:
                continue
            accepted.add(analysis)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    run_experiment(config, tmp_path / f"{model}-{n_s}-{n_b}-{analysis}")
            except Exception as exc:
                raised.append((model, n_s, n_b, analysis, f"{type(exc).__name__}: {exc}"))
        assert raised == []
        assert accepted == set(ANALYSES)


class TestRunner:
    def test_tiny_run_produces_outputs(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        manifest = run_experiment(config, tmp_path / "out")
        assert (tmp_path / "out" / "spectrum.csv").exists()
        assert (tmp_path / "out" / "histogram.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert manifest["config_hash"] == config.config_hash()
        assert set(manifest["outputs"]) == {"spectrum.csv", "histogram.csv"}

    def test_spectrum_csv_round_trips_bit_for_bit(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        run_experiment(config, tmp_path)
        lam = full_spectrum(analysis_matrix(build_channel(config))).eigenvalues.tolist()
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        assert len(rows) == len(lam)
        for row, want in zip(rows, lam):
            _, re, im, mag, *_ = row.split(",")
            # builtin abs, not np.abs; hex compares the bits, signed zeros too
            assert [float(x).hex() for x in (re, im, mag)] == [
                want.real.hex(), want.imag.hex(), abs(want).hex()]

    def test_manifest_records_channel_health(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        manifest = run_experiment(config, tmp_path)
        health = manifest["health"]
        assert set(health) == {"completeness_residual", "unitarity_deviation",
                               "max_eigen_residual"}
        # read off the configured channel's Kraus set and its propagator
        kraus = build_channel(config)
        assert health["completeness_residual"] == kraus.completeness_residual()
        assert health["unitarity_deviation"] == kraus.propagator.unitarity_deviation
        assert 0.0 <= health["completeness_residual"] < 1e-9
        assert 0.0 <= health["unitarity_deviation"] < 1e-9
        assert 0.0 <= health["max_eigen_residual"] < 1e-9

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        manifest = run_experiment(validate_config(TINY_CONFIG), tmp_path, n_workers=2)
        env = manifest["environment"]
        assert set(env) == {"blas", "blas_threads", "n_workers"}
        assert set(env["blas"]) == {"name", "version", "runtime"}
        runtime = env["blas"]["runtime"]
        assert set(runtime) == {"library", "threads", "config", "unread"}
        if runtime["unread"] is None:
            # read from the loaded library: its thread count and its
            # run-time configuration, which names the kernel in use
            assert isinstance(runtime["threads"], int) and runtime["threads"] >= 1
            assert runtime["config"].startswith("OpenBLAS")
        else:
            assert runtime["threads"] is None and runtime["config"] is None
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None
        assert env["n_workers"] == 2
        assert manifest["warnings"] == []
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["environment"] == env and on_disk["warnings"] == []

    def test_blas_runtime_unread_records_none_with_reason(self, tmp_path):
        record = runner._blas_runtime(tmp_path)
        assert record["library"] is None and record["threads"] is None
        assert record["config"] is None
        assert record["unread"].startswith("OSError: no lib*openblas64_*")
        (tmp_path / "libopenblas64_.so").write_text("not a shared library")
        record = runner._blas_runtime(tmp_path)
        assert record["library"] == "libopenblas64_.so"
        assert record["threads"] is None and record["config"] is None
        assert record["unread"].startswith("OSError")

    def test_run_warnings_go_to_manifest_and_are_reissued(self, tmp_path, monkeypatch):
        original = runner.count_complex
        seen = []

        def warning_count(lam):
            seen.append(None)
            warnings.warn(f"odd complex count at point {len(seen)}", RuntimeWarning)
            return original(lam)

        monkeypatch.setattr(runner, "count_complex", warning_count)
        raw = dict(SWEEP_CONFIG, analyses=["complex_count"])
        with pytest.warns(RuntimeWarning) as reissued:
            manifest = run_experiment(validate_config(raw), tmp_path)
        expected = [f"RuntimeWarning: odd complex count at point {i}" for i in range(1, 6)]
        assert manifest["warnings"] == expected
        assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == expected
        assert [f"RuntimeWarning: {w.message}" for w in reissued] == expected

    def test_thread_policy_warning(self, tmp_path, monkeypatch):
        # a run started with no BLAS thread variable set warns, whatever the
        # worker count, and leaves the library at the count it loaded with;
        # any one variable set is a choice, and the run does not warn
        config = validate_config(TINY_CONFIG)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = runner._blas_runtime(runner.NUMPY_LIBS)["threads"]
        for n_workers in (1, 2):
            with pytest.warns(RuntimeWarning, match="BLAS threads not pinned") as reissued:
                manifest = run_experiment(config, tmp_path / f"a{n_workers}", n_workers)
            assert len(manifest["warnings"]) == 1
            assert manifest["warnings"][0].startswith("RuntimeWarning: BLAS threads not pinned")
            assert all(var in manifest["warnings"][0] for var in BLAS_THREAD_VARS)
            assert [f"RuntimeWarning: {w.message}" for w in reissued] == manifest["warnings"]
            assert manifest["environment"]["blas"]["runtime"]["threads"] == before
            assert runner._blas_runtime(runner.NUMPY_LIBS)["threads"] == before
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "2")
            assert run_experiment(config, tmp_path / var, n_workers=2)["warnings"] == []
            monkeypatch.delenv(var)

    def test_manifest_records_warnings_the_caller_ignores(self, tmp_path, monkeypatch):
        # the caller's filters decide what is issued again after the run,
        # not what the manifest lists
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with warnings.catch_warnings(record=True) as reissued:
            warnings.simplefilter("ignore")
            manifest = run_experiment(validate_config(TINY_CONFIG), tmp_path)
        assert reissued == []
        assert len(manifest["warnings"]) == 1
        assert manifest["warnings"][0].startswith("RuntimeWarning: BLAS threads not pinned")
        assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == \
            manifest["warnings"]

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

    def test_overlap_references_are_reached_by_the_reset(self, tmp_path):
        # the U(1) presets hold eigenstates in sectors the all-|0> bath never
        # reaches; the references are picked among the others, so every
        # preset's configured channel fills every xi cell
        for preset in [f"fig{i}" for i in range(2, 10)]:
            config = preset_config(preset, ['analyses=["overlaps"]'])
            manifest = run_experiment(config, tmp_path / preset)
            assert manifest["failures"] == [], preset
            rows = _read_csv(tmp_path / preset / "overlaps.csv")
            assert {row["reference"] for row in rows} == {"ground", "median", "top"}, preset
            assert all(row["xi"] != "" for row in rows), preset
        # fig2 reaches every eigenstate: its references are 0, dim/2 and dim-1
        kraus = build_channel(preset_config("fig2"))
        spectrum = full_spectrum(analysis_matrix(kraus))
        rows = _read_csv(tmp_path / "fig2" / "overlaps.csv")
        for label, k in {"ground": 0, "median": 128, "top": 255}.items():
            xis = eigen_overlap(spectrum.right, kraus.propagator.vecs[:, k], kraus.layout)
            written = [float(row["xi"]) for row in rows if row["reference"] == label]
            assert np.allclose(written, xis, rtol=1e-9, atol=1e-9), label

    def test_overlap_references_match_the_per_state_loop(self, tmp_path, monkeypatch):
        # the picker weighs every eigenstate in one call; the loop of one
        # call per eigenstate that it replaced is the oracle
        picked = []
        monkeypatch.setattr(runner, "eigen_overlap",
                            lambda right, psi, layout: picked.append(psi) or np.zeros(1))
        spectrum = SimpleNamespace(eigenvalues=np.zeros(1), right=None)
        for name in PRESETS:
            config = preset_config(name, ['analyses=["overlaps"]'])
            kraus = build_channel(config)
            vecs, layout = kraus.propagator.vecs, kraus.layout
            reached = [k for k in range(vecs.shape[1]) if dynamics.bath_vacuum_weight(
                vecs[:, k], layout) >= dynamics.OVERLAP_MIN_WEIGHT]
            picked.clear()
            runner._run_one("overlaps", config, spectrum, kraus, None, tmp_path, {}, 1)
            want = [reached[0], reached[len(reached) // 2], reached[-1]]
            assert len(picked) == 3, name
            for psi, k in zip(picked, want):
                assert np.array_equal(psi, vecs[:, k]), name

    def test_raising_stage_still_writes_the_manifest(self, tmp_path, capsys, monkeypatch):
        # the sweep points past jz = 1 warn and then fail their completeness
        # check; bands has one solved point left, too few to track
        raw = {"model": "aah", "layout": {"n_s": 2, "n_b": 2}, "time": 100.0,
               "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1},
               "analyses": ["complex_count", "bands"],
               "sweep": {"parameter": "jz", "start": 0.1, "stop": 10.0, "points": 3}}
        original = runner.build_channel

        def failing_past_one(config, overrides=None, real=False):
            if overrides and overrides["jz"] > 1.0:
                warnings.warn(f"jz = {overrides['jz']} is past 1", RuntimeWarning)
                raise CompletenessError("sum K^dag K deviates from identity by nan")
            return original(config, overrides, real)

        monkeypatch.setattr(runner, "build_channel", failing_past_one)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(raw))
        with pytest.warns(RuntimeWarning) as reissued:
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "band tracking needs at least 2 sweep points" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [f"RuntimeWarning: {w.message}" for w in reissued]
        failures = manifest["failures"]
        assert [(f["analysis"], f.get("point")) for f in failures] == [
            ("sweep", 1), ("sweep", 2), ("bands", None)]
        assert failures[-1]["error"] == (
            "ValueError: band tracking needs at least 2 sweep points")
        assert manifest["outputs"] == ["complex_count.csv"]
        rows = _read_csv(out / "complex_count.csv")
        assert [row["jz"] for row in rows] == ["0.10000000000000001"]
        assert "bands" not in manifest["runtimes"] and "complex_count" in manifest["runtimes"]

    def test_abs_lambda_agrees_across_csvs(self, tmp_path):
        # spectrum.csv's abs and the overlap files' abs_lambda follow one
        # rule (builtin abs per eigenvalue), string for string
        for preset, name in (("fig2", "overlaps"), ("fig6", "scar_overlaps")):
            config = preset_config(preset, [f'analyses=["spectrum", "{name}"]'])
            run_experiment(config, tmp_path / preset)
            mags = [row["abs"] for row in _read_csv(tmp_path / preset / "spectrum.csv")]
            rows = _read_csv(tmp_path / preset / f"{name}.csv")
            assert len(rows) == len(mags) * len({row["reference"] for row in rows})
            for row in rows:
                assert row["abs_lambda"] == mags[int(row["mode"])], (preset, row)

    def test_linear_phase_grid(self, tmp_path):
        config = preset_config("fig8", ["phase.log_grid=false"])
        manifest = run_experiment(config, tmp_path)
        assert manifest["failures"] == []
        rows = _read_csv(tmp_path / "phase_scan.csv")
        assert [row["jz"] for row in rows] == [f"{v:.17g}" for v in np.linspace(0.1, 5.0, 13)]

    def test_tracer_targets_resolve(self, monkeypatch):
        # the benchmark's traced run wraps these names; one missing name
        # fails every traced run before its first pass
        spans = bench_module("spans", monkeypatch)
        targets = spans.program_targets()
        assert targets
        for module, attr, _, _ in targets:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_tracer_targets_are_called(self, tmp_path, monkeypatch):
        # a traced name that no run calls is a span that always reads 0
        spans = bench_module("spans", monkeypatch)
        calls = {}
        for module, attr, _, _ in spans.program_targets():
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            calls[name] = 0

            def counted(*args, _name=name, _original=getattr(module, attr), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
        # every analysis, on small chains
        raws = [
            dict(SWEEP_CONFIG,
                 analyses=["spectrum", "histogram", "overlaps", "complex_count", "bands", "qmi"],
                 qmi={"n_k": 2, "cases": [{"name": "c", "jxxx": 1.0, "jz": 0.1}]}),
            dict(TINY_CONFIG, analyses=["phase"],
                 phase={"parameter": "jz", "start": 0.1, "stop": 1.0, "points": 3, "n_k": 2}),
            {"name": "tinypxp", "model": "pxp", "layout": {"n_s": 2, "n_b": 2}, "time": 10.0,
             "params": {"omega_rabi": 1.0}, "analyses": ["scar_overlaps"]},
            XX_CONFIG,
            TestEpPipeline.RAW,
        ]
        for i, raw in enumerate(raws):
            manifest = run_experiment(validate_config(raw), tmp_path / str(i))
            assert not manifest["failures"]
        assert {a for raw in raws for a in raw["analyses"]} == set(resetchannel.config.ANALYSES)
        # the EP run located and fitted its EPs
        eps = _read_csv(tmp_path / "4" / "eps.csv")
        assert eps and all(row["exponent"] for row in eps)
        # names kept only for the tracer: never called, so their spans read 0
        assert {name for name, n in calls.items() if not n} == {
            "ep_analysis.full_spectrum", "runner.hermitian_eigensystem",
            "dynamics.apply_channel", "dynamics.partial_trace", "dynamics.qmi_trajectory"}

    @pytest.mark.parametrize("preset, csv_name", [("fig7", "qmi.csv"),
                                                  ("fig8", "phase_scan.csv")])
    def test_iterated_channels_real_solve_matches_complex(self, preset, csv_name, tmp_path,
                                                          monkeypatch):
        check = bench_module("check", monkeypatch)
        config = preset_config(preset)
        builds = []
        original = runner.build_channel
        monkeypatch.setattr(runner, "build_channel",
                            lambda *args, **kwargs: builds.append(kwargs.get("real"))
                            or original(*args, **kwargs))
        manifest = run_experiment(config, tmp_path / "real")
        assert builds and all(builds)  # every iterated channel took the real solve
        monkeypatch.setattr(runner, "build_channel",
                            lambda config, overrides=None, real=False: original(config, overrides))
        run_experiment(config, tmp_path / "exact")
        real, exact = tmp_path / "real" / csv_name, tmp_path / "exact" / csv_name
        assert check.compare_csv(real, exact, config) == []
        assert real.read_bytes() != exact.read_bytes()  # the real solve did run
        assert not manifest["failures"]

    @pytest.mark.parametrize("preset, n_channels", [("fig7", 3), ("fig8", 13)])
    def test_iterated_channels_power_one_real_matrix(self, preset, n_channels, tmp_path,
                                                     monkeypatch):
        # each iterated channel (3 qmi cases, 13 phase points) builds its
        # real Hermitian-basis matrix once and iterates it; a trajectory that
        # goes back to rounds of apply_channel fails here
        calls = {}

        def counting(name):
            original = getattr(dynamics, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            return counted

        for name in ("real_channel_form", "apply_channel"):
            monkeypatch.setattr(dynamics, name, counting(name))
        manifest = run_experiment(preset_config(preset), tmp_path)
        assert not manifest["failures"]
        assert calls == {"real_channel_form": n_channels}

    @staticmethod
    def _record_builds(monkeypatch) -> list[dict]:
        """The health of every ``runner.build_channel`` result, in build order."""
        metas = []
        original = runner.build_channel

        def recording(*args, **kwargs):
            kraus = original(*args, **kwargs)
            metas.append({"completeness_residual": kraus.completeness_residual(),
                          "unitarity_deviation": kraus.propagator.unitarity_deviation})
            return kraus

        monkeypatch.setattr(runner, "build_channel", recording)
        return metas

    @pytest.mark.parametrize("preset, n_builds", [("fig7", 3), ("fig8", 13)])
    def test_manifest_records_iterated_channel_health(self, preset, n_builds, tmp_path,
                                                      monkeypatch):
        metas = self._record_builds(monkeypatch)
        health = run_experiment(preset_config(preset), tmp_path)["health"]
        assert len(metas) == n_builds
        assert set(health) == {"completeness_residual", "unitarity_deviation"}
        for key in health:
            assert health[key] == max(meta[key] for meta in metas)
            assert 0.0 <= health[key] < 1e-9

    def test_manifest_health_covers_configured_and_iterated_channels(self, tmp_path,
                                                                    monkeypatch):
        # the configured channel and each qmi case's iterated channel in one
        # run: one rule keeps the worst value over all of their builds
        raw = dict(SECTION_CONFIGS["qmi"], analyses=["spectrum", "qmi"],
                   qmi={"n_k": 2, "cases": [{"name": "a", "jxxx": 1.0, "jz": 0.1},
                                            {"name": "b", "jxxx": 0.0, "jz": 2.0}]})
        metas = self._record_builds(monkeypatch)
        manifest = run_experiment(validate_config(raw), tmp_path)
        health = manifest["health"]
        assert len(metas) == 3
        assert set(health) == {"completeness_residual", "unitarity_deviation",
                               "max_eigen_residual"}
        for key in ("completeness_residual", "unitarity_deviation"):
            assert health[key] == max(meta[key] for meta in metas)
            assert 0.0 <= health[key] < 1e-9
        assert not manifest["failures"]

    def test_presets_match_reference_outputs(self, tmp_path, monkeypatch):
        # fig6 is the only blockade (pxp) reference, fig2-ns5 the only
        # overlaps.csv one, fig7 and fig8 the iterated-channel ones, fig4
        # the only eps.csv and ep_fit_points.csv one, and fig4 and fig9 the
        # complex_count.csv and bands.csv ones. The references were written
        # with BLAS at one thread, and at two fig6's spectrum.csv reorders
        # conjugate pairs and fig9's bands move, so the presets run in a
        # fresh interpreter with BLAS pinned.
        runs = {"fig2-ns5": ["fig2", ["layout.n_s=5"]], "fig4": ["fig4", []],
                "fig6": ["fig6", []], "fig7": ["fig7", []], "fig8": ["fig8", []],
                "fig9": ["fig9", []]}
        manifests = _reference_runs(runs, tmp_path, monkeypatch,
                                    dict.fromkeys(BLAS_THREAD_VARS, "1"))
        for manifest in manifests.values():
            runtime = manifest["environment"]["blas"]["runtime"]
            # the thread count the library runs with, as pinned at start-up
            assert runtime["threads"] == 1 or runtime["unread"] is not None

    def test_default_run_reproduces_reference(self, tmp_path, monkeypatch):
        # with the BLAS thread variables unset the library would start at one
        # thread per core, and on more than one core fig9's bands move; the
        # CLI sets all three to one before numpy loads
        manifest = _reference_runs({"fig9": ["fig9", []]}, tmp_path, monkeypatch, {})["fig9"]
        runtime = manifest["environment"]["blas"]["runtime"]
        assert runtime["threads"] == 1 or runtime["unread"] is not None
        assert manifest["environment"]["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
        assert manifest["warnings"] == []

    def test_cli_keeps_a_chosen_thread_count(self, tmp_path):
        # one variable set is the caller's choice: the CLI sets none of the
        # others, the library runs at that count (capped at the cores it
        # may use) and the run does not warn
        cfg, out = tmp_path / "tiny.json", tmp_path / "out"
        cfg.write_text(json.dumps(TINY_CONFIG))
        _cli(["run", str(cfg), "--out", str(out)], {"OPENBLAS_NUM_THREADS": "2"})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        runtime = manifest["environment"]["blas"]["runtime"]
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert runtime["threads"] == min(2, cores) or runtime["unread"] is not None
        assert manifest["warnings"] == []

    def test_rerun_is_byte_identical(self, tmp_path):
        config = validate_config(TINY_CONFIG)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        for name in ("spectrum.csv", "histogram.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _cli(argv, blas_threads):
    """``resetchannel.cli`` on ``argv`` in a fresh interpreter whose BLAS
    thread variables are exactly ``blas_threads``; asserts exit 0."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_threads)
    src = str(Path(resetchannel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "resetchannel.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr


def _reference_runs(runs, tmp_path, monkeypatch, blas_threads):
    """Run each preset of ``runs`` ({label: [preset, overrides]}) into
    ``tmp_path/<label>`` through the CLI (see :func:`_cli`), check each run
    against its reference, and return the manifests by label."""
    check = bench_module("check", monkeypatch)
    index, manifests = check.load_index(), {}
    for label, (name, overrides) in runs.items():
        config, out = preset_config(name, overrides), tmp_path / label
        _cli(["preset", name, "--out", str(out),
              *(arg for o in overrides for arg in ("--override", o))], blas_threads)
        assert index[label]["config_hash"] == config.config_hash(), label
        manifests[label] = json.loads((out / "manifest.json").read_text())
        # the references hold on the OpenBLAS kernel that wrote them; the
        # message names the one this run picked
        kernel = manifests[label]["environment"]["blas"]["runtime"]["config"]
        assert check.check_run(label, config, out, manifests[label], index) == [], (label, kernel)
    return manifests


SWEEP_CONFIG = {
    "name": "tinysweep",
    "model": "xxx",
    "layout": {"n_s": 2, "n_b": 2},
    "time": 10.0,
    "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0},
    "analyses": ["complex_count", "bands"],
    "sweep": {"parameter": "jxxx", "start": 0.0, "stop": 0.2, "points": 5},
}


class TestSharedSweep:
    def test_one_channel_build_per_grid_point(self, tmp_path, monkeypatch):
        calls = []
        original = runner.build_channel
        monkeypatch.setattr(runner, "build_channel",
                            lambda *args, **kwargs: calls.append(args)
                            or original(*args, **kwargs))
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


def _read_csv(path):
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, row.split(","))) for row in rows[1:]]


def _failing_builds(monkeypatch, lo, hi):
    """Make every channel build whose swept coupling lies strictly between
    ``lo`` and ``hi`` fail its completeness check."""
    original = runner.build_channel

    def build(config, overrides=None, real=False):
        if overrides and lo < overrides[config.sweep.parameter] < hi:
            raise CompletenessError("sum K^dag K deviates from identity by nan")
        return original(config, overrides, real)

    monkeypatch.setattr(runner, "build_channel", build)


class TestFailedGridPoint:
    # a 3-point aah sweep whose middle point, jz = 0.3, fails to build
    RAW = {"name": "failing", "model": "aah", "layout": {"n_s": 2, "n_b": 2}, "time": 10.0,
           "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1},
           "analyses": ["complex_count", "bands"],
           "sweep": {"parameter": "jz", "start": 0.1, "stop": 0.5, "points": 3}}
    FAILURE = {"analysis": "sweep", "point": 1,
               "error": "CompletenessError: sum K^dag K deviates from identity by nan"}

    def _runs(self, tmp_path, monkeypatch):
        """The run with every point solved, then the CLI run with the
        middle point failed: (config, output dir, manifest) of each."""
        config = validate_config(self.RAW)
        full = run_experiment(config, tmp_path / "full")
        _failing_builds(monkeypatch, 0.2, 0.4)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(self.RAW))
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        failed = json.loads((out / "manifest.json").read_text())
        return config, (tmp_path / "full", full), (out, failed)

    def test_failed_sweep_point_has_no_row(self, tmp_path, monkeypatch):
        _, (full_dir, full), (out, failed) = self._runs(tmp_path, monkeypatch)
        assert full["failures"] == [] and failed["failures"] == [self.FAILURE]
        assert failed["outputs"] == ["complex_count.csv", "bands.csv"]
        # the solved points keep their rows; the failed one has none
        counts = _read_csv(full_dir / "complex_count.csv")
        assert _read_csv(out / "complex_count.csv") == [counts[0], counts[2]]
        bands = _read_csv(out / "bands.csv")
        assert [row["jz"] for row in bands] == ["0.10000000000000001"] * 2 + ["0.5"] * 2
        assert bands[:2] == _read_csv(full_dir / "bands.csv")[:2]
        assert failed["health"]["max_band_step"] > 0

    def test_benchmark_check_reports_the_failed_point(self, tmp_path, monkeypatch):
        check = bench_module("check", monkeypatch)
        config, (full_dir, full), (out, failed) = self._runs(tmp_path, monkeypatch)
        ref = check.reference_entry(config, full_dir, full)
        assert ref["files"] == ["bands.csv", "complex_count.csv"]
        assert check.invariant_problems(out, failed, ref) == [
            f"failure recorded: {failed['failures'][0]}"]
        assert check.compare_csv(out / "complex_count.csv", full_dir / "complex_count.csv",
                                 config) == ["complex_count.csv: 2 rows, reference has 3"]


class TestEpPipeline:
    # a 3+3 chain whose EP grid holds two EPs with sqrt fits
    RAW = dict(SWEEP_CONFIG, layout={"n_s": 3, "n_b": 3}, time=50.0, analyses=["ep"],
               ep={"start": 0.0, "stop": 0.1, "points": 11, "resolution": 1e-6, "max_eps": 2})

    def test_manifest_counts_ep_probes(self, tmp_path, monkeypatch):
        calls = []  # probe_counts counts probe calls, one guessed pair each
        original = SweepGrid.probe
        monkeypatch.setattr(SweepGrid, "probe",
                            lambda *args: calls.append(args[2]) or original(*args))
        manifest = run_experiment(validate_config(self.RAW), tmp_path)
        assert not manifest["failures"]
        counts = manifest["ep_probes"]
        assert set(counts) == {"near", "full"}
        assert counts["near"] > 0
        assert counts["near"] + counts["full"] == len(calls)

    def test_eps_located_over_the_solved_points(self, tmp_path, monkeypatch):
        # the grid's EPs lie in (0, 0.01) and (0.06, 0.07); the point at
        # jxxx = 0.04 fails, and the EP track steps over it
        full = run_experiment(validate_config(self.RAW), tmp_path / "full")
        _failing_builds(monkeypatch, 0.035, 0.045)
        failed = run_experiment(validate_config(self.RAW), tmp_path / "out")
        assert [(f["analysis"], f["point"]) for f in failed["failures"]] == [("ep", 4)]
        for name in ("eps.csv", "ep_fit_points.csv"):
            assert (tmp_path / "out" / name).read_text() == (tmp_path / "full" / name).read_text()
        step = failed["health"]["ep_max_band_step"]
        assert step >= full["health"]["ep_max_band_step"] > 0

    def test_failed_fit_leaves_empty_cells(self, tmp_path, monkeypatch):
        failed = []
        original = runner.fit_sqrt_exponent

        def fail_first(grid, rec, tol):
            if not failed:
                failed.append(rec.j_star)
                raise ValueError("no sqrt window")
            return original(grid, rec, tol)

        monkeypatch.setattr(runner, "fit_sqrt_exponent", fail_first)
        manifest = run_experiment(validate_config(self.RAW), tmp_path)
        first, second = _read_csv(tmp_path / "eps.csv")
        assert float(first["j_star"]) == failed[0]
        assert (first["exponent"], first["r2"]) == ("", "")
        assert float(second["exponent"]) > 0 and float(second["r2"]) > 0
        assert manifest["failures"] == [
            {"analysis": "ep", "j_star": failed[0], "error": "ValueError: no sqrt window"}]
        fit_rows = _read_csv(tmp_path / "ep_fit_points.csv")
        assert fit_rows and {r["j_star"] for r in fit_rows} == {second["j_star"]}

    def test_eps_sharing_a_j_star_keep_both_fits(self, tmp_path, monkeypatch):
        # blocks [[a, j], [-j, b]] turn complex at j = |a - b| / 2: here at
        # 0.05 and 0.05 + 1e-9, so both EPs end their bisection in one bracket
        g = 0.05 + 1e-9
        base = np.diag([0.9, 0.8, 0.7 + g, 0.7 - g, *np.linspace(0.05, 0.5, 36)])

        def family(config, parameter, real=False):
            def build(j):
                mat = base.copy()
                mat[0, 1] = mat[2, 3] = j
                mat[1, 0] = mat[3, 2] = -j
                return mat
            return build

        fits = []
        original = runner.fit_sqrt_exponent
        monkeypatch.setattr(runner, "spectral_matrix_factory", family)
        monkeypatch.setattr(runner, "fit_sqrt_exponent",
                            lambda *args: fits.append(original(*args)) or fits[-1])
        raw = dict(self.RAW, ep={"start": 0.03, "stop": 0.07, "points": 5, "resolution": 2e-7})
        manifest = run_experiment(validate_config(raw), tmp_path)
        eps = _read_csv(tmp_path / "eps.csv")
        assert len(eps) == len(fits) == 2 and not manifest["failures"]
        assert eps[0]["j_star"] == eps[1]["j_star"]
        assert sorted(round(float(r["re_lambda_star"]), 6) for r in eps) == [0.7, 0.85]
        fit_rows = _read_csv(tmp_path / "ep_fit_points.csv")
        assert [float(r["delta"]) for r in fit_rows] == [d for f in fits for d in f.deltas]
        assert manifest["health"]["ep_min_fit_r2"] == min(f.r2 for f in fits)

    def test_manifest_records_ep_health(self, tmp_path):
        config = validate_config(self.RAW)
        manifest = run_experiment(config, tmp_path)
        health = manifest["health"]
        assert set(health) == {"ep_max_band_step", "ep_max_bracket_width", "ep_converged",
                               "ep_min_fit_r2"}
        # the worst matching step of the track that picks the pairs to bisect
        grid = SweepGrid("jxxx", np.linspace(0.0, 0.1, 11),
                         runner.spectral_matrix_factory(config, "jxxx", real=True))
        track = track_bands(sweep_spectrum(grid), select="top_re_decile")
        assert health["ep_max_band_step"] == np.max(track.step_distances) > 0
        eps = _read_csv(tmp_path / "eps.csv")
        assert len(eps) == 2
        assert health["ep_converged"] == {"converged": 2, "total": 2}
        assert health["ep_max_bracket_width"] == max(
            float(r["bracket_hi"]) - float(r["bracket_lo"]) for r in eps)
        assert 0.0 < health["ep_max_bracket_width"] <= 1e-6
        assert health["ep_min_fit_r2"] == min(float(r["r2"]) for r in eps)

    def test_manifest_records_max_band_step(self, tmp_path):
        manifest = run_experiment(validate_config(dict(SWEEP_CONFIG, analyses=["bands"])),
                                  tmp_path)
        assert set(manifest["health"]) == {"max_band_step"}
        rows = _read_csv(tmp_path / "bands.csv")
        lam = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        bands = lam.reshape(SWEEP_CONFIG["sweep"]["points"], -1)
        assert manifest["health"]["max_band_step"] == pytest.approx(
            np.max(np.abs(np.diff(bands, axis=0))), rel=1e-12)

    def test_real_probes_match_exact_probes(self, tmp_path, monkeypatch):
        config = validate_config(self.RAW)
        run_experiment(config, tmp_path / "real")
        # the exact pipeline: grid, bisection and fit on the complex matrix
        original = runner.spectral_matrix_factory
        monkeypatch.setattr(runner, "spectral_matrix_factory",
                            lambda config, parameter, real=False: original(config, parameter))
        run_experiment(config, tmp_path / "exact")
        for name, same, close in (
                ("eps.csv", ("j_star", "bracket_lo", "bracket_hi", "converged"),
                 {"re_lambda_star": 1e-10, "exponent": 1e-6, "r2": 1e-6}),
                ("ep_fit_points.csv", ("j_star", "delta"), {"im": 1e-10})):
            real, exact = _read_csv(tmp_path / "real" / name), _read_csv(tmp_path / "exact" / name)
            assert len(real) == len(exact) > 0
            for got, want in zip(real, exact):
                assert [got[c] for c in same] == [want[c] for c in same]
                for column, tol in close.items():
                    assert abs(float(got[column]) - float(want[column])) <= tol * max(
                        1.0, abs(float(want[column])))

    def test_fig4_builds_kron_form_only_at_sweep_points(self, tmp_path, monkeypatch):
        # the 21 sweep points take the kron superoperator; the 11 EP-grid
        # points and every EP probe build the real Hermitian-basis form, so
        # an EP build that goes back to kron fails here
        calls = {}

        def counting(name):
            original = getattr(runner, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            return counted

        for name in ("superoperator_matrix", "real_reversal_form"):
            monkeypatch.setattr(runner, name, counting(name))
        manifest = run_experiment(preset_config("fig4"), tmp_path)
        assert not manifest["failures"]
        assert calls == {"superoperator_matrix": 21, "real_reversal_form": 75}
        assert manifest["ep_probes"] == {"near": 68, "full": 0}

    def test_fig4_ep_solves_only_real_arrays(self, tmp_path, monkeypatch):
        # the EP grid, every bisection probe and the sqrt fit hand numpy.linalg
        # real arrays only, so a complex shift or start vector fails here
        names = ("eig", "eigvals", "eigh", "inv", "lstsq")
        kinds = {name: set() for name in names}

        def recording(name):
            original = getattr(np.linalg, name)

            def recorded(*args, **kwargs):
                kinds[name].update(a.dtype.kind for a in args if isinstance(a, np.ndarray))
                return original(*args, **kwargs)

            return recorded

        for name in names:
            monkeypatch.setattr(np.linalg, name, recording(name))
        manifest = run_experiment(preset_config("fig4", ['analyses=["ep"]']), tmp_path)
        assert not manifest["failures"] and manifest["ep_probes"]["near"] > 0
        assert kinds == {name: {"f"} for name in names}

    def test_each_grid_builds_each_value_once_in_its_own_form(self, tmp_path, monkeypatch):
        calls = []
        original = runner.build_channel
        monkeypatch.setattr(runner, "build_channel",
                            lambda config, overrides=None, real=False:
                            calls.append((overrides["jxxx"], real))
                            or original(config, overrides, real))
        # the grids meet at jxxx = 0.0, 0.05 and 0.1; each builds them in its form
        config = validate_config(dict(self.RAW, analyses=["bands", "ep"]))
        run_experiment(config, tmp_path)
        assert [v for v, real in calls if not real] == config.sweep_values().tolist()
        ep_values = np.linspace(0.0, 0.1, 11).tolist()
        ep_builds = [v for v, real in calls if real]
        assert ep_builds[:11] == ep_values and len(ep_builds) > 11  # grid, then probes
        assert all(ep_builds.count(v) == 1 for v in ep_values)

    # each output of the base analyses at one worker, against a run of the
    # variant analyses; the sweep grid's bit-pinned files at two workers too
    @pytest.mark.parametrize("base, variant, n_workers", [
        (["ep"], ["bands", "ep"], 1), (["ep"], ["ep"], 2),
        (["complex_count", "bands"], ["complex_count", "bands"], 2),
    ], ids=["after-bands", "two-workers", "sweep-two-workers"])
    def test_ep_outputs_independent_of_sweep_and_workers(self, tmp_path, base, variant,
                                                          n_workers):
        outputs = run_experiment(validate_config(dict(self.RAW, analyses=base)),
                                 tmp_path / "base")["outputs"]
        run_experiment(validate_config(dict(self.RAW, analyses=variant)),
                       tmp_path / "variant", n_workers=n_workers)
        assert len(outputs) == 2
        for name in outputs:
            assert (tmp_path / "base" / name).read_bytes() == (
                tmp_path / "variant" / name).read_bytes()


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

    def test_overflowing_coupling_is_config_error(self, tmp_path, capsys):
        # jz = 1e307 at t = 100 overflows E t; neither validate nor run accepts it
        raw = {"model": "aah", "layout": {"n_s": 2, "n_b": 2}, "time": 100.0,
               "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1}, "analyses": ["complex_count"],
               "sweep": {"parameter": "jz", "start": 0.1, "stop": 1e307, "points": 3}}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(raw))
        assert main(["validate", str(cfg)]) == 1
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("config.sweep.stop: |1e+307| x max(1, ") == 2
        assert not out.exists()

    def test_coupling_at_the_bound_runs_without_runtime_warnings(self, tmp_path):
        # the same sweep ending at the bound: every product stays finite, so
        # a run with RuntimeWarnings as errors succeeds and records nothing
        raw = {"model": "aah", "layout": {"n_s": 2, "n_b": 2}, "time": 100.0,
               "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1},
               "analyses": ["complex_count", "bands"],
               "sweep": {"parameter": "jz", "start": 0.1, "stop": MAX_COUPLING_TIME / 100.0,
                         "points": 3}}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(raw))
        src = str(Path(resetchannel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "resetchannel.cli", "run", str(cfg), "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [] and manifest["warnings"] == []
        assert manifest["outputs"] == ["complex_count.csv", "bands.csv"]

    def test_two_site_blockade_chain_cannot_take_scar_overlaps(self, tmp_path, capsys):
        raw = {"model": "pxp", "layout": {"n_s": 1, "n_b": 1}, "time": 10.0,
               "params": {"omega_rabi": 1.0}, "analyses": ["scar_overlaps"]}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(raw))
        assert main(["validate", str(cfg)]) == 1
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count(
            "config.layout: scar_overlaps needs n_s + n_b >= 3") == 2
        assert not out.exists()

    def test_xxx_chain_too_short_is_config_error(self, tmp_path, capsys):
        # xxx's three-site term needs three sites; n_s + n_b = 3 is enough
        raw = dict(TINY_CONFIG, model="xxx", params={"jzz": 0.1, "jz": 0.1})
        validate_config(dict(raw, layout={"n_s": 2, "n_b": 1}))
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(dict(raw, layout={"n_s": 1, "n_b": 1})))
        assert main(["validate", str(cfg)]) == 1
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("config.layout: model 'xxx' needs") == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "preset"])
    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, analyses=["histogram"])))
        source = str(cfg) if command == "run" else "fig3"
        assert main([command, source, "--out", str(cfg / "x")]) == 2  # below a file
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, str(tmp_path), *extra]) == 1  # a directory, not a file
        assert "Is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "absolute", "", "a\x00b", "a\nb"])
    def test_name_outside_runs_is_config_error(self, tmp_path, monkeypatch, capsys, name):
        # without --out the run goes to runs/<name>, which must stay below
        # runs/ and be a file name: the OS rejects a NUL, and a newline
        # would name a directory runs/a<newline>b
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if name == "absolute":
            name = str(tmp_path / "escaped")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, name=name)))
        assert main(["run", str(cfg)]) == 1
        assert "config.name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "cwd"]
        assert not any(cwd.iterdir())

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
        assert main(["preset"]) == 0  # no NAME and no run option: the list too
        assert capsys.readouterr().out == out
        # run and preset share --out and --threads, with their help texts
        for command in ("preset", "run"):
            with pytest.raises(SystemExit) as exited:
                main([command, "--help"])
            assert exited.value.code == 0
            usage = capsys.readouterr().out
            assert "worker threads for sweeps" in usage and "output directory" in usage

    def test_list_with_a_name_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "fig4"
        assert main(["preset", "--list", "fig4", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument name: not allowed with argument --list" in captured.err
        assert not out.exists()

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["preset", "fig99"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["preset", "fig3", "--threads", "abc"], "argument --threads: invalid int value: 'abc'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        # a run option with no preset to run: neither listed nor dropped
        (["preset", "--override", "time=5"], "argument --override: needs a preset NAME"),
        (["preset", "--out", "runs/x"], "argument --out: needs a preset NAME"),
        (["preset", "--threads", "4"], "argument --threads: needs a preset NAME"),
        (["preset", "fig3", "--threads", "0"], "argument --threads: must be at least 1, got 0"),
        (["run", "cfg.json", "--threads", "-3"],
         "argument --threads: must be at least 1, got -3"),
        # --list runs nothing, so it takes no NAME and no run option either
        (["preset", "--list", "fig4", "--out", "runs/x"],
         "argument name: not allowed with argument --list"),
        (["preset", "--list", "--threads", "2"],
         "argument --threads: not allowed with argument --list"),
        (["preset", "--override", "time=5", "--list"],
         "argument --override: not allowed with argument --list"),
    ])
    def test_usage_error_is_config_error(self, capsys, argv, message):
        # exit 2 is a numerical error here, so a usage error exits 1, with
        # argparse's usage line and message
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: resetchannel")
        assert f"error: {message}" in captured.err

    def test_thread_count_reaches_the_run(self, tmp_path, monkeypatch):
        workers = []

        def run_experiment(config, out, n_workers):
            workers.append(n_workers)
            return {"outputs": []}

        # the CLI imports it from the runner when a run starts
        monkeypatch.setattr(runner, "run_experiment", run_experiment)
        for raw in ("0", "-3", "3"):
            expected = 0 if raw == "3" else 1  # below one is a usage error, and no run
            assert main(["preset", "fig3", "--threads", raw, "--out", str(tmp_path)]) == expected
        assert main(["preset", "fig3", "--out", str(tmp_path)]) == 0
        assert workers == [3, 1]

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps(TINY_CONFIG).encode().replace(b"tiny", b"\xff\xfe"))
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: config: not UTF-8")
        assert not out.exists()


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

    def test_header_and_png_name_come_from_the_script_name(self, tmp_path):
        for csv_name in _SCRIPTS:
            (tmp_path / csv_name).write_text("")
        written = emit_plots(tmp_path)
        assert written == sorted(f"{stem}.gp" for stem, _ in _SCRIPTS.values())
        for stem, body in _SCRIPTS.values():
            text = (tmp_path / f"{stem}.gp").read_text()
            assert text == _COMMON + f"set output '{stem}.png'\n" + body
            assert "set output" not in body
