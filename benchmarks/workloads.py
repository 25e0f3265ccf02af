"""Seeded workload generator.

A workload is a list of preset runs. Each run is a shipped preset plus a
list of ``key.path=value`` overrides, fed through ``preset_config`` exactly
as the CLI's ``preset --override`` would. Seed 0 adds only the fixed size
overrides of a workload, so it reproduces the shipped presets. Any other seed shifts every
sweep, EP and phase grid by a seeded fraction of one grid step, with a fresh
fraction per grid; grid sizes, couplings, omega and time stay as shipped,
because those decide which regime (and how much work) a run measures.

The fraction stays below ``MAX_GRID_SHIFT`` of a step. fig4's spectrum is
dense with exceptional points: shifting its EP grid by a few hundredths of a
step already changes which four EPs are located first, and at larger shifts
a grid point can land inside a complex bubble only a few 1e-6 wide, where
the sqrt fit gets too few points and the run records a failure. Below a
hundredth of a step the same four EPs are located at every shift tried.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from resetchannel.config import PRESETS, ExperimentConfig, preset_config

MAX_GRID_SHIFT = 0.01


@dataclass(frozen=True)
class PresetRun:
    """One run of a workload: ``label`` names its outputs and reference."""

    label: str
    preset: str
    overrides: tuple[str, ...] = ()


# Why each workload exists is recorded in benchmarks/README.md.
WORKLOADS: dict[str, tuple[PresetRun, ...]] = {
    "ep-sweep": (PresetRun("fig4", "fig4"),),
    "spectra": (
        PresetRun("fig2-ns5", "fig2", ("layout.n_s=5",)),
        PresetRun("fig5-ns5", "fig5", ("layout.n_s=5",)),
        PresetRun("fig6", "fig6"),
        PresetRun("fig9", "fig9"),
    ),
    "dynamics": (
        PresetRun("fig7", "fig7"),
        PresetRun("fig8", "fig8"),
    ),
}


def _shifted_linear(section: dict, frac: float, prefix: str) -> list[str]:
    step = (section["stop"] - section["start"]) / (section["points"] - 1)
    return [f"{prefix}.start={section['start'] + frac * step!r}",
            f"{prefix}.stop={section['stop'] + frac * step!r}"]


def _shifted_log(section: dict, frac: float, prefix: str) -> list[str]:
    ratio = (section["stop"] / section["start"]) ** (1.0 / (section["points"] - 1))
    scale = math.exp(frac * math.log(ratio))
    return [f"{prefix}.start={section['start'] * scale!r}",
            f"{prefix}.stop={section['stop'] * scale!r}"]


def grid_overrides(preset: str, seed: int) -> list[str]:
    """Overrides that shift each grid of ``preset`` by a seeded fraction of
    its step; empty for seed 0 and for presets without a grid."""
    if seed == 0:
        return []
    raw = PRESETS[preset]()
    rng = random.Random(f"{seed}:{preset}")
    out: list[str] = []
    for key in ("sweep", "ep"):
        if key in raw:
            out += _shifted_linear(raw[key], MAX_GRID_SHIFT * rng.random(), key)
    if "phase" in raw:
        phase = raw["phase"]
        shift = _shifted_log if phase.get("log_grid", True) else _shifted_linear
        out += shift(phase, MAX_GRID_SHIFT * rng.random(), "phase")
    return out


def generate(workload: str, seed: int) -> list[tuple[PresetRun, ExperimentConfig]]:
    """Validated configs of ``workload`` at ``seed``, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; available: {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [
        (run, preset_config(run.preset, list(run.overrides) + grid_overrides(run.preset, seed)))
        for run in WORKLOADS[workload]
    ]
