"""Experiment runner: assemble channels from a configuration, execute the
enabled analyses, and write deterministic CSV outputs plus a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import platform
import time as _time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import (
    KrausSet,
    SuperoperatorMatrix,
    kraus_from_unitary,
    propagate,
    reversal_form,
    superoperator_matrix,
)
from .config import ExperimentConfig
from .dynamics import (
    OverlapRecord,
    eigen_overlap,
    phase_scan,
    qmi_trajectory,
    scar_candidates,
    scar_overlap_avg,
    write_overlaps_csv,
    write_phase_scan_csv,
    write_trajectory_csv,
)
from .ep_analysis import (
    SweepGrid,
    count_complex,
    fit_sqrt_exponent,
    locate_eps,
    sweep_spectrum,
    track_bands,
    write_bands_csv,
    write_complex_count_csv,
    write_eps_csv,
)
from .hamiltonians import (
    AahParams,
    ConstrainedBasis,
    PxpParams,
    XxParams,
    XxxParams,
    build_aah,
    build_pxp,
    build_xx,
    build_xxx,
    hermitian_eigensystem,
)
from .spectra import (
    full_spectrum,
    magnitude_histogram,
    write_histogram_csv,
    write_spectrum_csv,
)
from .spin_ops import ChainLayout


def build_hamiltonian(model: str, params: dict, n_sites: int):
    if model == "aah":
        return build_aah(AahParams(**params), n_sites)
    if model == "xxx":
        jxxx = params.get("jxxx", 0.0)
        aah = {k: v for k, v in params.items() if k != "jxxx"}
        return build_xxx(XxxParams(AahParams(**aah), jxxx), n_sites)
    if model == "xx":
        return build_xx(XxParams(**params), n_sites)
    if model == "pxp":
        return build_pxp(PxpParams(**params), n_sites)
    raise ValueError(f"unknown model {model!r}")


def build_channel(config: ExperimentConfig, param_overrides: dict | None = None) -> KrausSet:
    """Kraus set of the configured channel, optionally with some couplings
    replaced (used by sweeps and scans)."""
    params = dict(config.params)
    if param_overrides:
        params.update(param_overrides)
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    h = build_hamiltonian(config.model, params, layout.n_h)
    return kraus_from_unitary(propagate(h, config.time), layout)


def analysis_matrix(kraus: KrausSet) -> SuperoperatorMatrix:
    """Reversal-form channel matrix used for all spectral statistics."""
    return reversal_form(superoperator_matrix(kraus))


def spectral_matrix_factory(config: ExperimentConfig, parameter: str):
    def build(value: float) -> np.ndarray:
        return analysis_matrix(build_channel(config, {parameter: value})).mat

    return build


def run_experiment(config: ExperimentConfig, output_dir, n_workers: int = 1) -> dict:
    """Execute every enabled analysis; returns the manifest dictionary.

    CSV outputs are deterministic for a fixed config; the manifest includes
    the config hash, library versions, and per-analysis runtimes.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "name": config.name,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "versions": {
            "resetchannel": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "seed": config.seed,
        "outputs": [],
        "runtimes": {},
        "failures": [],
    }

    needs_channel = {"spectrum", "histogram", "overlaps", "scar_overlaps"}
    spectrum = None
    if needs_channel & set(config.analyses):
        kraus = build_channel(config)
        spectrum = full_spectrum(analysis_matrix(kraus))

    for analysis in config.analyses:
        started = _time.perf_counter()
        files = _run_one(analysis, config, spectrum, out, manifest, n_workers)
        manifest["runtimes"][analysis] = round(_time.perf_counter() - started, 3)
        manifest["outputs"].extend(files)

    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _run_one(analysis: str, config: ExperimentConfig, spectrum, out: Path,
             manifest: dict, n_workers: int) -> list[str]:
    if analysis == "spectrum":
        path = out / "spectrum.csv"
        write_spectrum_csv(spectrum, path)
        return [path.name]

    if analysis == "histogram":
        stats = magnitude_histogram(spectrum, bins=config.histogram_bins,
                                    cluster_window=config.cluster_window)
        path = out / "histogram.csv"
        write_histogram_csv(stats, path)
        return [path.name]

    if analysis == "overlaps":
        return _overlaps(config, spectrum, out)

    if analysis == "scar_overlaps":
        return _scar_overlaps(config, spectrum, out)

    if analysis in ("complex_count", "anisotropy_compare"):
        return _complex_counts(analysis, config, out, manifest, n_workers)

    if analysis == "bands":
        grid = SweepGrid(config.sweep.parameter, config.sweep_values(),
                         spectral_matrix_factory(config, config.sweep.parameter))
        sweep = sweep_spectrum(grid, n_workers)
        manifest["failures"].extend(
            {"analysis": "bands", "point": i, "error": err} for i, err in sweep.failures)
        track = track_bands(sweep, select="top_re_decile")
        path = out / "bands.csv"
        write_bands_csv(track, path)
        return [path.name]

    if analysis == "ep":
        return _ep_pipeline(config, out, manifest, n_workers)

    if analysis == "qmi":
        records = {}
        for case in config.qmi.cases:
            kraus = build_channel(config, {"jxxx": case.jxxx, "jz": case.jz})
            records[case.name] = qmi_trajectory(kraus, config.qmi.n_k)
        path = out / "qmi.csv"
        write_trajectory_csv(records, path)
        return [path.name]

    if analysis == "phase":
        factory = lambda jz: build_channel(config, {"jz": jz})
        points, failures = phase_scan(factory, config.phase_values(), config.phase.n_k)
        manifest["failures"].extend(
            {"analysis": "phase", "point": i, "error": err} for i, err in failures)
        path = out / "phase_scan.csv"
        write_phase_scan_csv(config.phase.parameter, points, path)
        return [path.name]

    raise ValueError(f"unknown analysis {analysis!r}")


def _overlaps(config: ExperimentConfig, spectrum, out: Path) -> list[str]:
    layout = ChainLayout(config.n_s, config.n_b, constrained=(config.model == "pxp"))
    h = build_hamiltonian(config.model, config.params, layout.n_h)
    _, vecs = hermitian_eigensystem(h)
    dim = vecs.shape[1]
    refs = {"ground": 0, "median": dim // 2, "top": dim - 1}
    records = []
    for label, k in refs.items():
        psi = vecs[:, k]
        for i, mode in enumerate(spectrum.modes):
            records.append(OverlapRecord(i, abs(mode.lam),
                                         eigen_overlap(mode, psi, layout), label))
    path = out / "overlaps.csv"
    write_overlaps_csv(records, path)
    return [path.name]


def _scar_overlaps(config: ExperimentConfig, spectrum, out: Path) -> list[str]:
    layout = ChainLayout(config.n_s, config.n_b, constrained=True)
    h = build_hamiltonian(config.model, config.params, layout.n_h)
    vals, vecs = hermitian_eigensystem(h)
    basis = ConstrainedBasis(layout.n_h)
    scars = scar_candidates(vals, vecs, basis)
    records = [
        OverlapRecord(i, abs(mode.lam), scar_overlap_avg(mode, scars.states, layout),
                      "scar_avg")
        for i, mode in enumerate(spectrum.modes)
    ]
    path = out / "scar_overlaps.csv"
    write_overlaps_csv(records, path)
    return [path.name]


def _complex_counts(analysis: str, config: ExperimentConfig, out: Path,
                    manifest: dict, n_workers: int) -> list[str]:
    grid = SweepGrid(config.sweep.parameter, config.sweep_values(),
                     spectral_matrix_factory(config, config.sweep.parameter))
    sweep = sweep_spectrum(grid, n_workers)
    manifest["failures"].extend(
        {"analysis": analysis, "point": i, "error": err} for i, err in sweep.failures)
    counts = [count_complex(s, tol_im=config.tol_im) if s is not None else -1
              for s in sweep.spectra]
    path = out / "complex_count.csv"
    if analysis == "anisotropy_compare":
        # isotropic reference: the same grid length at the symmetric point
        iso_params = dict(config.params)
        iso_value = iso_params.get("jyy", 1.0)
        iso_kraus = build_channel(config, {config.sweep.parameter: iso_value})
        iso_count = count_complex(full_spectrum(analysis_matrix(iso_kraus)),
                                  tol_im=config.tol_im)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([config.sweep.parameter, "n_complex", "n_complex_isotropic"])
            for v, c in zip(grid.values, counts):
                writer.writerow([f"{v:.17g}", c, iso_count])
    else:
        write_complex_count_csv(config.sweep.parameter, grid.values, counts, path)
    return [path.name]


def _ep_pipeline(config: ExperimentConfig, out: Path, manifest: dict,
                 n_workers: int) -> list[str]:
    ep_cfg = config.ep
    values = np.linspace(ep_cfg.start, ep_cfg.stop, ep_cfg.points)
    grid = SweepGrid(config.sweep.parameter, values,
                     spectral_matrix_factory(config, config.sweep.parameter))
    sweep = sweep_spectrum(grid, n_workers)
    manifest["failures"].extend(
        {"analysis": "ep", "point": i, "error": err} for i, err in sweep.failures)
    track = track_bands(sweep, select="top_re_decile")
    records = locate_eps(grid, track, resolution=ep_cfg.resolution,
                         tol_im=config.tol_im, max_eps=ep_cfg.max_eps)
    fits = {}
    for rec in records:
        try:
            fit = fit_sqrt_exponent(grid, rec, tol_im=config.tol_im)
            rec.exponent, rec.fit_r2, rec.fit_points = fit.exponent, fit.r2, len(fit.deltas)
            fits[rec.j_star] = fit
        except ValueError as exc:
            manifest["failures"].append(
                {"analysis": "ep", "j_star": rec.j_star, "error": str(exc)})
    path = out / "eps.csv"
    write_eps_csv(records, path)
    fit_path = out / "ep_fit_points.csv"
    with open(fit_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j_star", "delta", "im"])
        for j_star, fit in fits.items():
            for delta, im in zip(fit.deltas, fit.im_values):
                writer.writerow([f"{j_star:.17g}", f"{delta:.17g}", f"{im:.17g}"])
    return [path.name, fit_path.name]
