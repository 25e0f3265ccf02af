"""Noise-injection stability: the outputs of a preset that must not move when
every matrix the run solves carries floating-point noise.

Each matrix a run solves or iterates is made by one of three builders:
``runner.analysis_matrix`` (the configured spectrum and the ``sweep`` grid),
``runner.real_reversal_form`` (the ``ep`` grid and its probes) or
``dynamics.real_channel_form`` (the channels that ``qmi`` and ``phase``
iterate). The helper wraps all three and adds seeded noise of
``NOISE_RTOL`` times the largest entry, real noise on a real matrix and
complex noise on a complex one. A
noisy run is compared with a clean one by the benchmark's own rules
(``benchmarks/check.py``: 1e-10 relative, EP locations within the bracket
resolution, fit exponents and r^2 within 1e-6).

``STABLE`` lists the outputs that held on every noise seed measured. The
others are pinned to the noise today, and the README's Determinism section
names them with the change that will make each stable; such a change moves
its outputs into ``STABLE``. Another BLAS kernel rounds differently too,
and ``STABLE`` must hold under it as well.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import bench_module
from resetchannel import dynamics, runner
from resetchannel.channel import SuperoperatorMatrix
from resetchannel.config import preset_config

NOISE_RTOL = 1e-15
NOISE_SEED = 1
# an OpenBLAS kernel every x86-64 machine can run; OPENBLAS_CORETYPE picks
# it at load time in a DYNAMIC_ARCH build
OTHER_KERNEL = "Nehalem"
BLAS_CONFIG = (runner._blas_runtime(runner.NUMPY_LIBS)["config"] or "").split()

STABLE = {
    "fig2": ["histogram.csv", "overlaps.csv"],
    "fig3": ["histogram.csv"],
    "fig4": ["complex_count.csv", "eps.csv", "ep_fit_points.csv"],
    "fig5": ["histogram.csv"],
    "fig6": ["histogram.csv", "scar_overlaps.csv"],
    "fig7": ["qmi.csv"],
    "fig8": ["phase_scan.csv"],
    "fig9": ["complex_count.csv"],
}


def add_noise(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``mat`` plus noise of ``NOISE_RTOL`` times its largest entry, in its
    own arithmetic."""
    noise = rng.standard_normal(mat.shape)
    if np.iscomplexobj(mat):
        noise = noise + 1j * rng.standard_normal(mat.shape)
    return mat + NOISE_RTOL * np.max(np.abs(mat)) * noise


def inject_noise(monkeypatch, seed: int) -> list:
    """Wrap the three matrix builders so that each matrix they make carries
    seeded noise; returns the list of shapes made, one per matrix."""
    rng = np.random.default_rng(seed)
    made = []
    analysis_matrix = runner.analysis_matrix

    def noisy_analysis_matrix(kraus):
        sop = analysis_matrix(kraus)
        made.append(sop.mat.shape)
        return SuperoperatorMatrix(add_noise(sop.mat, rng), sop.bath_dim)

    def noisy(real_form):
        def wrapped(kraus):
            mat = real_form(kraus)
            made.append(mat.shape)
            return add_noise(mat, rng)

        return wrapped

    monkeypatch.setattr(runner, "analysis_matrix", noisy_analysis_matrix)
    monkeypatch.setattr(runner, "real_reversal_form", noisy(runner.real_reversal_form))
    monkeypatch.setattr(dynamics, "real_channel_form", noisy(dynamics.real_channel_form))
    return made


def noise_problems(preset: str, tmp_path: Path, monkeypatch, seed: int, files) -> dict:
    """``check.compare_csv`` problems of each of ``files`` between a clean run
    of ``preset`` and one with noise seeded by ``seed``."""
    check = bench_module("check", monkeypatch)
    config = preset_config(preset)
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    assert not runner.run_experiment(config, clean)["failures"]
    with monkeypatch.context() as patch:
        made = inject_noise(patch, seed)
        assert not runner.run_experiment(config, noisy)["failures"]
    assert made, "no matrix carried noise"
    return {name: check.compare_csv(noisy / name, clean / name, config) for name in files}


@pytest.mark.parametrize("preset", sorted(STABLE))
def test_outputs_stable_under_noise(preset, tmp_path, monkeypatch):
    problems = noise_problems(preset, tmp_path, monkeypatch, NOISE_SEED, STABLE[preset])
    assert problems == {name: [] for name in STABLE[preset]}


def test_noise_reaches_a_pinned_output(tmp_path, monkeypatch):
    # positive control: fig3's spectrum.csv is pinned to the noise today (its
    # exactly degenerate eigenvalues split under it), so the same injection
    # must move it; were the noise lost before the solve, the test above
    # would pass without checking anything
    problems = noise_problems("fig3", tmp_path, monkeypatch, NOISE_SEED, ["spectrum.csv"])
    assert problems["spectrum.csv"]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or "DYNAMIC_ARCH" not in BLAS_CONFIG or OTHER_KERNEL in BLAS_CONFIG,
                    reason=f"needs numpy on a DYNAMIC_ARCH OpenBLAS on x86-64 whose "
                           f"default kernel is not {OTHER_KERNEL}")
@pytest.mark.parametrize("preset", ["fig6", "fig9"])
def test_stable_outputs_hold_under_another_blas_kernel(preset, tmp_path, monkeypatch):
    # another kernel rounds differently, as noise does: the outputs pinned
    # to the noise move (fig6's spectrum.csv, fig9's bands.csv), and the
    # stable ones must hold
    check = bench_module("check", monkeypatch)
    config = preset_config(preset)
    default, other = tmp_path / "default", tmp_path / OTHER_KERNEL
    assert not runner.run_experiment(config, default)["failures"]
    src = str(Path(runner.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=OTHER_KERNEL,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "resetchannel.cli", "preset", preset,
                          "--out", str(other)], env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((other / "manifest.json").read_text())
    assert OTHER_KERNEL in manifest["environment"]["blas"]["runtime"]["config"].split()
    problems = {name: check.compare_csv(other / name, default / name, config)
                for name in STABLE[preset]}
    assert problems == {name: [] for name in STABLE[preset]}
