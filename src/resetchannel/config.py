"""Experiment configuration: JSON schema, validation with path-anchored
errors, figure presets at desk scale, and deterministic config hashing.

All couplings are dimensionless ratios to the XY scale (PXP: to the Rabi
scale); times are in units of the inverse energy scale.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

GOLDEN_OMEGA = 2 * math.pi * (math.sqrt(5) - 1) / 2  # inverse golden ratio modulation


# The parameter dataclasses are the schema of a config's ``params``: a
# field's name is its key and its default the value an absent key takes.
# Metadata "positive" bounds a field, checked on construction and by validation;
# "fixed" keeps it out of every sweep (the energy unit, the field frequency).
@dataclass(frozen=True)
class AahParams:
    """Quasiperiodic XY chain couplings: XY scale ``j2``, Ising ``jzz``,
    on-site cosine field amplitude ``jz`` with frequency ``omega``."""

    j2: float = field(default=1.0, metadata={"positive": True, "fixed": True})
    jzz: float = 0.0
    jz: float = 0.0
    omega: float = field(default=GOLDEN_OMEGA, metadata={"fixed": True})

    def __post_init__(self):
        _check_positive(self)


@dataclass(frozen=True)
class XxxParams(AahParams):
    """AAH chain plus a three-site XXX coupling that breaks U(1)."""

    jxxx: float = 0.0


@dataclass(frozen=True)
class XxParams:
    """Anisotropic chain: unequal XX/YY couplings break U(1)."""

    jxx: float = 1.0
    jyy: float = 1.0
    jzz: float = 0.0
    jz: float = 0.0
    omega: float = field(default=GOLDEN_OMEGA, metadata={"fixed": True})


@dataclass(frozen=True)
class PxpParams:
    """Blockaded spin-flip model; ``omega_rabi`` sets the energy scale."""

    omega_rabi: float = field(default=1.0, metadata={"positive": True, "fixed": True})

    def __post_init__(self):
        _check_positive(self)


def _check_positive(params) -> None:
    for f in fields(params):
        if f.metadata.get("positive") and not getattr(params, f.name) > 0:
            raise ValueError(f"{f.name} sets the energy unit and must be positive")


MODEL_PARAMS = {"aah": AahParams, "xxx": XxxParams, "xx": XxParams, "pxp": PxpParams}
MODELS = tuple(MODEL_PARAMS)
# the variables a BLAS reads for its thread count when numpy loads; the
# reference outputs hold at one thread, where the CLI starts a run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each analysis and the config section it reads; None where it reads the
# configured channel
ANALYSES = {
    "spectrum": None, "histogram": None, "overlaps": None, "scar_overlaps": None,
    "bands": "sweep", "ep": "ep", "complex_count": "sweep", "anisotropy_compare": "sweep",
    "qmi": "qmi", "phase": "phase",
}

# The largest |coupling| x max(1, time) a config may set. A layout that
# fits in memory has fewer than 64 sites, so H is a sum of fewer than 1e3
# Pauli strings, each of entries of modulus 1 times a coupling: |H_ij|,
# ||H|| and |E| t stay below 1e3 times this bound, 1e103. Every product a
# run forms from them (E t, its phase, |H_ij|^2 summed over < 2^64
# entries) is then below 1e103^2 x 2e19 < 1e226, far from float64's
# 1.8e308, while the bound is far above the presets' 5 x 1000.
MAX_COUPLING_TIME = 1e100


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# The section dataclasses are the schema that validate_config reads: a
# field's key is its name, a field without a default is required, its
# annotation is its type, and its metadata holds its bounds ("min" for an
# integer, "positive" for a number; "in" names the object that holds it).
# The model's parameter dataclass above is read the same way for
# ``params``; its "fixed" fields are the ones no sweep may vary.
@dataclass
class SweepSection:
    parameter: str
    start: float
    stop: float
    points: int = field(metadata={"min": 3})


@dataclass
class EpSection:
    start: float
    stop: float
    points: int = field(metadata={"min": 3})
    resolution: float = field(default=1e-6, metadata={"positive": True})
    max_eps: int = field(default=4, metadata={"min": 1})


@dataclass
class QmiCase:
    name: str
    jxxx: float
    jz: float


@dataclass
class QmiSection:
    n_k: int = field(metadata={"min": 1})
    cases: list[QmiCase]


@dataclass
class PhaseSection:
    parameter: str
    start: float = field(metadata={"positive": True})
    stop: float = field(metadata={"positive": True})
    points: int = field(metadata={"min": 3})
    n_k: int = field(metadata={"min": 1})
    log_grid: bool = True


# keyword-only, so that the optional name keeps its place first in the
# field order, which is the key order of the manifest's config
@dataclass(kw_only=True)
class ExperimentConfig:
    name: str = "custom"
    model: str
    n_s: int = field(metadata={"min": 1, "in": "layout"})
    n_b: int = field(metadata={"min": 1, "in": "layout"})
    time: float = field(metadata={"positive": True})
    params: dict[str, float]
    analyses: list[str]
    sweep: SweepSection | None = None
    ep: EpSection | None = None
    qmi: QmiSection | None = None
    phase: PhaseSection | None = None
    histogram_bins: int = field(default=60, metadata={"min": 10})
    cluster_window: float = field(default=0.15, metadata={"positive": True})
    seed: int = field(default=7, metadata={"min": 0})

    def to_dict(self) -> dict:
        # only the optional sections can be None, and an absent one is left out
        return {key: value for key, value in asdict(self).items() if value is not None}

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # numpy is imported here, not at the top: validating a config needs none
    def sweep_values(self):
        import numpy as np

        if self.sweep is None:
            raise ConfigError("sweep: section missing")
        return np.linspace(self.sweep.start, self.sweep.stop, self.sweep.points)

    def phase_values(self):
        import numpy as np

        if self.phase is None:
            raise ConfigError("phase: section missing")
        if self.phase.log_grid:
            return np.geomspace(self.phase.start, self.phase.stop, self.phase.points)
        return np.linspace(self.phase.start, self.phase.stop, self.phase.points)


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(section: dict, allowed: set[str], required: set[str], path: str) -> None:
    _expect(isinstance(section, dict), path, f"must be an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")
    missing = required - set(section)
    _expect(not missing, path, f"missing keys {sorted(missing)}")


# the dataclasses a field may hold, by annotation
_SECTIONS = {cls.__name__: cls for cls in (SweepSection, EpSection, QmiCase, QmiSection,
                                           PhaseSection)}


def _read(cls, sec, path: str, within: str | None = None) -> dict:
    """The fields of dataclass ``cls`` read from the JSON object ``sec`` at
    ``path``, keyed by name; the fields marked ``"in": within`` only."""
    specs = [f for f in fields(cls) if f.metadata.get("in") == within]
    inner = {f.metadata["in"] for f in fields(cls) if within is None and "in" in f.metadata}
    _check_keys(sec, {f.name for f in specs} | inner,
                {f.name for f in specs if f.default is MISSING} | inner, path)
    values = {f.name: _value(f.type, sec[f.name], f"{path}.{f.name}", f.metadata)
              for f in specs if f.name in sec}
    for key in inner:
        values |= _read(cls, sec[key], f"{path}.{key}", key)
    return values


def _value(kind: str, value, path: str, bounds) -> object:
    """``value`` checked against the annotation ``kind`` and the ``bounds``."""
    kind = kind.removesuffix(" | None")
    if kind in _SECTIONS:
        return _SECTIONS[kind](**_read(_SECTIONS[kind], value, path))
    if kind.startswith("list["):
        _expect(isinstance(value, list) and value, path,
                f"must be a non-empty list, got {value!r}")
        return [_value(kind[5:-1], v, f"{path}[{i}]", bounds) for i, v in enumerate(value)]
    if kind.startswith("dict[str, "):
        _expect(isinstance(value, dict), path, f"must be an object, got {type(value).__name__}")
        return {k: _value(kind[10:-1], v, f"{path}.{k}", bounds) for k, v in value.items()}
    if kind == "float":
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                path, f"must be a number, got {value!r}")
        _expect(abs(value) <= sys.float_info.max, path, f"must be finite, got {value!r}")
        _expect(value > 0 or not bounds.get("positive"), path, f"must be positive, got {value}")
        return float(value)
    if kind == "int":
        _expect(isinstance(value, int) and not isinstance(value, bool),
                path, f"must be an integer, got {value!r}")
        _expect(value >= bounds["min"], path, f"must be >= {bounds['min']}, got {value}")
        return value
    if kind == "bool":
        _expect(isinstance(value, bool), path, f"must be true or false, got {value!r}")
        return value
    _expect(isinstance(value, str), path, f"must be a string, got {value!r}")  # kind "str"
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a raw configuration dictionary: the dataclass
    fields give each value's key, type and bounds, and the rules below tie
    the values together."""
    config = ExperimentConfig(**_read(ExperimentConfig, raw, "config"))
    model, analyses, sweep = config.model, config.analyses, config.sweep

    # cli writes to runs/<name> by default, so the name must stay inside runs/
    # and be printable: a path with a NUL fails, one with a newline misleads
    _expect(config.name not in ("", ".", "..") and config.name.isprintable()
            and not any(sep and sep in config.name for sep in (os.sep, os.altsep)),
            "config.name", f"must be a non-empty printable string that is one path "
            f"component, got {config.name!r}")
    _expect(model in MODELS, "config.model", f"must be one of {MODELS}, got {model!r}")
    _expect(model != "xxx" or config.n_s + config.n_b >= 3, "config.layout",
            "model 'xxx' needs n_s + n_b >= 3 for its three-site term")

    # the model's parameter dataclass is the schema of its params
    _read(MODEL_PARAMS[model], config.params, "config.params")
    # the couplings that may vary: a sweep's, a phase scan's and the qmi cases'
    varied = {f.name for f in fields(MODEL_PARAMS[model]) if not f.metadata.get("fixed")}

    for a in analyses:
        _expect(a in ANALYSES, "config.analyses", f"unknown analysis {a!r}")
    # each analysis writes its own CSVs, and none may be written twice
    _expect(len(set(analyses)) == len(analyses), "config.analyses", "lists an analysis twice")
    _expect(not {"complex_count", "anisotropy_compare"} <= set(analyses), "config.analyses",
            "complex_count and anisotropy_compare both write complex_count.csv")

    # a sweep varies any coupling that may vary, a phase scan jz alone
    for key, allowed in (("sweep", varied), ("phase", varied & {"jz"})):
        grid = getattr(config, key)
        if grid is not None:
            _expect(grid.parameter in allowed, f"config.{key}.parameter",
                    f"cannot sweep {grid.parameter!r} for model {model!r}")
    # every grid spans an interval, and ep varies the sweep's parameter
    for key in ("sweep", "ep", "phase"):
        grid = getattr(config, key)
        _expect(grid is None or grid.stop != grid.start, f"config.{key}.stop",
                "must differ from start")
    _expect(config.ep is None or sweep is not None, "config.ep",
            "ep analysis needs a sweep section for the parameter name")
    if config.ep is not None:  # below the float spacing no bisection closes its bracket
        spacing = math.ulp(max(abs(config.ep.start), abs(config.ep.stop)))
        _expect(config.ep.resolution >= spacing, "config.ep.resolution", f"must be at least "
                f"the float spacing {spacing!r} at the grid's ends, got {config.ep.resolution!r}")

    # every coupling a run can set, by the field that sets it, stays below
    # float64 overflow once multiplied by the time
    couplings = {f"config.params.{key}": value for key, value in config.params.items()}
    for key in ("sweep", "ep", "phase"):
        grid = getattr(config, key)
        if grid is not None:
            couplings |= {f"config.{key}.start": grid.start, f"config.{key}.stop": grid.stop}
    for i, case in enumerate(config.qmi.cases if config.qmi is not None else []):
        couplings |= {f"config.qmi.cases[{i}].jxxx": case.jxxx,
                      f"config.qmi.cases[{i}].jz": case.jz}
    for path, value in couplings.items():
        _expect(abs(value) * max(1.0, config.time) <= MAX_COUPLING_TIME, path,
                f"|{value!r}| x max(1, time = {config.time!r}) exceeds {MAX_COUPLING_TIME:g},"
                f" past which energies times time can overflow")

    if config.qmi is not None:
        lacking = {"jxxx", "jz"} - varied
        _expect(not lacking, "config.qmi",
                f"cases set {sorted(lacking)}, which model {model!r} lacks")
        names = [case.name for case in config.qmi.cases]
        for i, name in enumerate(names):
            _expect(name not in names[:i], f"config.qmi.cases[{i}].name",
                    f"duplicate case name {name!r}; qmi.csv keys its rows by name")

    for a in analyses:
        needed = ANALYSES[a]
        _expect(needed is None or getattr(config, needed) is not None, f"config.{needed}",
                f"section missing; analysis {a!r} needs it")
    if "anisotropy_compare" in analyses:
        _expect(model == "xx" and sweep.parameter in ("jxx", "jyy"), "config.sweep.parameter",
                f"anisotropy_compare needs model 'xx' swept in 'jxx' or 'jyy', "
                f"got {sweep.parameter!r} on {model!r}")
    if "scar_overlaps" in analyses:
        _expect(model == "pxp", "config.model",
                f"scar_overlaps needs the blockaded model 'pxp', got {model!r}")
        # dynamics.scar_candidates picks SCAR_COUNT = 4 states from the middle
        # of the joint spectrum, SCAR_EDGE_FRACTION = 1/6 of it left out at
        # each edge; a 2-site blockade chain has 3 states, 3 sites have 5
        _expect(config.n_s + config.n_b >= 3, "config.layout",
                "scar_overlaps needs n_s + n_b >= 3 for enough mid-spectrum states")

    _expect(config.cluster_window < 0.5, "config.cluster_window",
            f"must lie in (0, 0.5), got {config.cluster_window}")
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not UTF-8 text: {exc}") from exc
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
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            _expect(isinstance(node, dict), f"override {item!r}",
                    f"cannot descend into {'.'.join(parts[:i + 1])!r}, a {type(node).__name__}")
        node[parts[-1]] = value
    return out


# Each preset's ``--list`` note and raw config, under its name. A preset is
# named after its key (see preset_config), so no entry holds a "name".
_PRESET_TABLE = {
    "fig2": ("chaotic channel: bulk magnitude law plus real outliers and eigenstate overlaps", {
        "model": "xxx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 2.0, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram", "overlaps"],
    }),
    "fig3": ("symmetry-constrained ergodic channel: all-real spectrum, heavy tail", {
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.3, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram"],
    }),
    "fig4": ("chaos-parameter sweep: band coalescence, EP localization, sqrt scaling", {
        "model": "xxx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 1000.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "jxxx": 0.0, "omega": GOLDEN_OMEGA},
        "analyses": ["complex_count", "bands", "ep"],
        "sweep": {"parameter": "jxxx", "start": 0.0, "stop": 0.1, "points": 21},
        "ep": {"start": 0.0, "stop": 0.005, "points": 11, "resolution": 2e-7, "max_eps": 4},
    }),
    "fig5": ("localized regime: discrete spectrum and the period-doubling cluster", {
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 5},
        "time": 200.0,
        "params": {"j2": 1.0, "jzz": 0.0, "jz": 5.0, "omega": GOLDEN_OMEGA},
        "analyses": ["spectrum", "histogram"],
    }),
    "fig6": ("blockaded chain: smooth bulk with slow scar-linked modes", {
        "model": "pxp",
        "layout": {"n_s": 5, "n_b": 5},
        "time": 200.0,
        "params": {"omega_rabi": 1.0},
        "analyses": ["spectrum", "histogram", "scar_overlaps"],
    }),
    "fig7": ("mutual-information decay across chaotic/ergodic/localized channels", {
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
    }),
    "fig8": ("localization phase scan: retained information and imbalance vs field", {
        "model": "aah",
        "layout": {"n_s": 3, "n_b": 4},
        "time": 100.0,
        "params": {"j2": 1.0, "jzz": 0.1, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["phase"],
        "phase": {"parameter": "jz", "start": 0.1, "stop": 5.0, "points": 13,
                  "n_k": 20, "log_grid": True},
    }),
    "fig9": ("anisotropy sweep: EP count against the isotropic reference", {
        "model": "xx",
        "layout": {"n_s": 4, "n_b": 4},
        "time": 1000.0,
        "params": {"jxx": 1.0, "jyy": 1.0, "jzz": 0.1, "jz": 0.1, "omega": GOLDEN_OMEGA},
        "analyses": ["anisotropy_compare", "bands"],
        "sweep": {"parameter": "jxx", "start": 1.0, "stop": 0.8, "points": 11},
    }),
}

# each preset's raw config; every call returns a fresh copy
PRESETS = {name: partial(copy.deepcopy, raw) for name, (_, raw) in _PRESET_TABLE.items()}


def preset_config(name: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Named preset as a validated config, named after its ``PRESETS`` key
    unless an override sets ``name``; overrides use key.path=value."""
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; available: {sorted(PRESETS)}")
    raw = {"name": name, **PRESETS[name]()}
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def list_presets() -> list[tuple[str, str]]:
    return [(name, _PRESET_TABLE[name][0]) for name in sorted(_PRESET_TABLE)]
