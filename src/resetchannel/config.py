"""Experiment configuration: JSON schema, validation with path-anchored
errors, figure presets at desk scale, and deterministic config hashing.

All couplings are dimensionless ratios to the XY scale (PXP: to the Rabi
scale); times are in units of the inverse energy scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from .hamiltonians import GOLDEN_OMEGA

MODELS = ("aah", "xxx", "xx", "pxp")
ANALYSES = (
    "spectrum", "histogram", "overlaps", "scar_overlaps",
    "bands", "ep", "complex_count", "anisotropy_compare", "qmi", "phase",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class SweepSection:
    parameter: str
    start: float
    stop: float
    points: int


@dataclass
class EpSection:
    start: float
    stop: float
    points: int
    resolution: float = 1e-6
    max_eps: int = 4


@dataclass
class QmiCase:
    name: str
    jxxx: float
    jz: float


@dataclass
class QmiSection:
    n_k: int
    cases: list[QmiCase]


@dataclass
class PhaseSection:
    parameter: str
    start: float
    stop: float
    points: int
    n_k: int
    log_grid: bool = True


@dataclass
class ExperimentConfig:
    name: str
    model: str
    n_s: int
    n_b: int
    time: float
    params: dict
    analyses: list[str]
    sweep: SweepSection | None = None
    ep: EpSection | None = None
    qmi: QmiSection | None = None
    phase: PhaseSection | None = None
    histogram_bins: int = 60
    cluster_window: float = 0.15
    seed: int = 7

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("sweep", "ep", "qmi", "phase"):
            if out[key] is None:
                del out[key]
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def sweep_values(self) -> np.ndarray:
        if self.sweep is None:
            raise ConfigError("sweep: section missing")
        return np.linspace(self.sweep.start, self.sweep.stop, self.sweep.points)

    def phase_values(self) -> np.ndarray:
        if self.phase is None:
            raise ConfigError("phase: section missing")
        if self.phase.log_grid:
            return np.geomspace(self.phase.start, self.phase.stop, self.phase.points)
        return np.linspace(self.phase.start, self.phase.stop, self.phase.points)


_PARAM_KEYS = {
    "aah": {"j2", "jzz", "jz", "omega"},
    "xxx": {"j2", "jzz", "jz", "omega", "jxxx"},
    "xx": {"jxx", "jyy", "jzz", "jz", "omega"},
    "pxp": {"omega_rabi"},
}

_SWEEPABLE = {
    "aah": {"jz", "jzz"},
    "xxx": {"jxxx", "jz", "jzz"},
    "xx": {"jxx", "jyy", "jz", "jzz"},
    "pxp": set(),
}


# the config section each analysis reads
_ANALYSIS_SECTION = {
    "bands": "sweep", "complex_count": "sweep", "anisotropy_compare": "sweep",
    "ep": "ep", "qmi": "qmi", "phase": "phase",
}


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(section: dict, allowed: set[str], required: set[str], path: str) -> None:
    _expect(isinstance(section, dict), path, f"must be an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")
    missing = required - set(section)
    _expect(not missing, path, f"missing keys {sorted(missing)}")


def _number(section: dict, key: str, path: str, positive: bool = False) -> float:
    value = section[key]
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}.{key}", f"must be a number, got {value!r}")
    _expect(abs(value) <= sys.float_info.max, f"{path}.{key}", f"must be finite, got {value!r}")
    if positive:
        _expect(value > 0, f"{path}.{key}", f"must be positive, got {value}")
    return float(value)


def _integer(section: dict, key: str, path: str, minimum: int) -> int:
    value = section[key]
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"{path}.{key}", f"must be an integer, got {value!r}")
    _expect(value >= minimum, f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a raw configuration dictionary."""
    top_allowed = {"name", "model", "layout", "time", "params", "analyses", "sweep",
                   "ep", "qmi", "phase", "histogram_bins", "cluster_window",
                   "seed"}
    _check_keys(raw, top_allowed, {"model", "layout", "time", "params", "analyses"}, "config")

    name = raw.get("name", "custom")
    # cli writes to runs/<name> by default, so the name must stay inside runs/
    _expect(isinstance(name, str) and name not in ("", ".", "..")
            and not any(sep and sep in name for sep in (os.sep, os.altsep)),
            "config.name", f"must be a non-empty string that is one path component, "
            f"got {name!r}")

    model = raw["model"]
    _expect(model in MODELS, "config.model", f"must be one of {MODELS}, got {model!r}")

    _check_keys(raw["layout"], {"n_s", "n_b"}, {"n_s", "n_b"}, "config.layout")
    n_s = _integer(raw["layout"], "n_s", "config.layout", 1)
    n_b = _integer(raw["layout"], "n_b", "config.layout", 1)

    time = _number(raw, "time", "config", positive=True)

    params = raw["params"]
    _check_keys(params, _PARAM_KEYS[model], set(), "config.params")
    parsed_params = {k: _number(params, k, "config.params") for k in params}
    if model in ("aah", "xxx"):
        _expect(parsed_params.get("j2", 1.0) > 0, "config.params.j2", "must be positive")
    if model == "pxp":
        _expect(parsed_params.get("omega_rabi", 1.0) > 0,
                "config.params.omega_rabi", "must be positive")

    analyses = raw["analyses"]
    _expect(isinstance(analyses, list) and analyses, "config.analyses",
            "must be a non-empty list")
    for a in analyses:
        _expect(a in ANALYSES, "config.analyses", f"unknown analysis {a!r}")
    # each analysis writes its own CSVs, and none may be written twice
    _expect(len(set(analyses)) == len(analyses), "config.analyses", "lists an analysis twice")
    _expect(not {"complex_count", "anisotropy_compare"} <= set(analyses), "config.analyses",
            "complex_count and anisotropy_compare both write complex_count.csv")

    sweep = None
    if "sweep" in raw:
        sec, path = raw["sweep"], "config.sweep"
        _check_keys(sec, {"parameter", "start", "stop", "points"},
                    {"parameter", "start", "stop", "points"}, path)
        _expect(isinstance(sec["parameter"], str), f"{path}.parameter",
                f"must be a string, got {sec['parameter']!r}")
        _expect(sec["parameter"] in _SWEEPABLE[model], f"{path}.parameter",
                f"cannot sweep {sec['parameter']!r} for model {model!r}")
        sweep = SweepSection(
            parameter=sec["parameter"],
            start=_number(sec, "start", path),
            stop=_number(sec, "stop", path),
            points=_integer(sec, "points", path, 3),
        )
        _expect(sweep.stop != sweep.start, f"{path}.stop", "must differ from start")

    ep = None
    if "ep" in raw:
        sec, path = raw["ep"], "config.ep"
        _check_keys(sec, {"start", "stop", "points", "resolution", "max_eps"},
                    {"start", "stop", "points"}, path)
        ep = EpSection(
            start=_number(sec, "start", path),
            stop=_number(sec, "stop", path),
            points=_integer(sec, "points", path, 3),
            resolution=_number(sec, "resolution", path, positive=True)
            if "resolution" in sec else EpSection.resolution,
            max_eps=_integer(sec, "max_eps", path, 1) if "max_eps" in sec else EpSection.max_eps,
        )
        _expect(ep.stop != ep.start, f"{path}.stop", "must differ from start")
        _expect("sweep" in raw, path, "ep analysis needs a sweep section for the parameter name")

    qmi = None
    if "qmi" in raw:
        sec, path = raw["qmi"], "config.qmi"
        _check_keys(sec, {"n_k", "cases"}, {"n_k", "cases"}, path)
        lacking = {"jxxx", "jz"} - _PARAM_KEYS[model]
        _expect(not lacking, path, f"cases set {sorted(lacking)}, which model {model!r} lacks")
        _expect(isinstance(sec["cases"], list) and sec["cases"], f"{path}.cases",
                "must be a non-empty list")
        cases = []
        for i, case in enumerate(sec["cases"]):
            cpath = f"{path}.cases[{i}]"
            _check_keys(case, {"name", "jxxx", "jz"}, {"name", "jxxx", "jz"}, cpath)
            _expect(isinstance(case["name"], str), f"{cpath}.name", "must be a string")
            _expect(case["name"] not in {c.name for c in cases}, f"{cpath}.name",
                    f"duplicate case name {case['name']!r}; qmi.csv keys its rows by name")
            cases.append(QmiCase(case["name"], _number(case, "jxxx", cpath),
                                 _number(case, "jz", cpath)))
        qmi = QmiSection(n_k=_integer(sec, "n_k", path, 1), cases=cases)

    phase = None
    if "phase" in raw:
        sec, path = raw["phase"], "config.phase"
        _check_keys(sec, {"parameter", "start", "stop", "points", "n_k", "log_grid"},
                    {"parameter", "start", "stop", "points", "n_k"}, path)
        _expect(sec["parameter"] == "jz", f"{path}.parameter", "only jz scans are supported")
        _expect("jz" in _PARAM_KEYS[model], f"{path}.parameter",
                f"model {model!r} has no field 'jz' to scan")
        log_grid = sec.get("log_grid", PhaseSection.log_grid)
        _expect(isinstance(log_grid, bool), f"{path}.log_grid",
                f"must be true or false, got {log_grid!r}")
        phase = PhaseSection(
            parameter=sec["parameter"],
            start=_number(sec, "start", path, positive=True),
            stop=_number(sec, "stop", path, positive=True),
            points=_integer(sec, "points", path, 3),
            n_k=_integer(sec, "n_k", path, 1),
            log_grid=log_grid,
        )

    sections = {"sweep": sweep, "ep": ep, "qmi": qmi, "phase": phase}
    for a in analyses:
        needed = _ANALYSIS_SECTION.get(a)
        _expect(needed is None or sections[needed] is not None, f"config.{needed}",
                f"section missing; analysis {a!r} needs it")
    if "anisotropy_compare" in analyses:
        _expect(model == "xx" and sweep.parameter in ("jxx", "jyy"), "config.sweep.parameter",
                f"anisotropy_compare needs model 'xx' swept in 'jxx' or 'jyy', "
                f"got {sweep.parameter!r} on {model!r}")
    if "scar_overlaps" in analyses:
        _expect(model == "pxp", "config.model",
                f"scar_overlaps needs the blockaded model 'pxp', got {model!r}")

    cluster_window = (_number(raw, "cluster_window", "config", positive=True)
                      if "cluster_window" in raw else ExperimentConfig.cluster_window)
    _expect(cluster_window < 0.5, "config.cluster_window",
            f"must lie in (0, 0.5), got {cluster_window}")

    return ExperimentConfig(
        name=name,
        model=model,
        n_s=n_s,
        n_b=n_b,
        time=time,
        params=parsed_params,
        analyses=list(analyses),
        sweep=sweep,
        ep=ep,
        qmi=qmi,
        phase=phase,
        histogram_bins=_integer(raw, "histogram_bins", "config", 10)
        if "histogram_bins" in raw else ExperimentConfig.histogram_bins,
        cluster_window=cluster_window,
        seed=_integer(raw, "seed", "config", 0) if "seed" in raw else ExperimentConfig.seed,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
    return validate_config(raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``key.path=value`` overrides to a raw config dictionary."""
    out = json.loads(json.dumps(raw))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return out


def _preset_fig2() -> dict:
    return {
        "name": "fig2",
        "model": "xxx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 2.0, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram", "overlaps"],
    }


def _preset_fig3() -> dict:
    return {
        "name": "fig3",
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.3, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram"],
    }


def _preset_fig4() -> dict:
    return {
        "name": "fig4",
        "model": "xxx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 1000.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0, "omega": GOLDEN_OMEGA},
        "analyses": ["complex_count", "bands", "ep"],
        "sweep": {"parameter": "jxxx", "start": 0.0, "stop": 0.1, "points": 21},
        "ep": {"start": 0.0, "stop": 0.005, "points": 11, "resolution": 2e-7, "max_eps": 4},
    }


def _preset_fig5() -> dict:
    return {
        "name": "fig5",
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 5},
        "time": 200.0,
        "params": {"j2": 1.0, "jzz": 0.0, "jz": 5.0, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram"],
    }


def _preset_fig6() -> dict:
    return {
        "name": "fig6",
        "model": "pxp",
        "layout": {"n_s": 5, "n_b": 5},
        "time": 200.0,
        "params": {"omega_rabi": 1.0},
        "analyses": ["spectrum", "histogram", "scar_overlaps"],
    }


def _preset_fig7() -> dict:
    return {
        "name": "fig7",
        "model": "xxx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0, "omega": GOLDEN_OMEGA},
        "analyses": ["qmi"],
        "qmi": {
            "n_k": 30,
            "cases": [
                {"name": "chaotic", "jxxx": 2.0, "jz": 0.1},
                {"name": "ergodic", "jxxx": 0.0, "jz": 0.1},
                {"name": "mbl", "jxxx": 0.0, "jz": 5.0},
            ],
        },
    }


def _preset_fig8() -> dict:
    return {
        "name": "fig8",
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["phase"],
        "phase": {"parameter": "jz", "start": 0.1, "stop": 5.0, "points": 13,
                  "n_k": 20, "log_grid": True},
    }


def _preset_fig9() -> dict:
    return {
        "name": "fig9",
        "model": "xx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 1000.0,
        "params": {"jxx": 1.0, "jyy": 1.0, "jzz": 0.1, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["anisotropy_compare", "bands"],
        "sweep": {"parameter": "jxx", "start": 1.0, "stop": 0.8, "points": 11},
    }


PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "fig9": _preset_fig9,
}

PRESET_NOTES = {
    "fig2": "chaotic channel: bulk magnitude law plus real outliers and eigenstate overlaps",
    "fig3": "symmetry-constrained ergodic channel: all-real spectrum, heavy tail",
    "fig4": "chaos-parameter sweep: band coalescence, EP localization, sqrt scaling",
    "fig5": "localized regime: discrete spectrum and the period-doubling cluster",
    "fig6": "blockaded chain: smooth bulk with slow scar-linked modes",
    "fig7": "mutual-information decay across chaotic/ergodic/localized channels",
    "fig8": "localization phase scan: retained information and imbalance vs field",
    "fig9": "anisotropy sweep: EP count against the isotropic reference",
}


def preset_config(name: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Named preset as a validated config; overrides use key.path=value."""
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; available: {sorted(PRESETS)}")
    raw = PRESETS[name]()
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def list_presets() -> list[tuple[str, str]]:
    return [(name, PRESET_NOTES[name]) for name in sorted(PRESETS)]
